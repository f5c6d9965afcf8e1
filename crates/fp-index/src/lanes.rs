//! Lanes: one search's per-entry passes split across the host's cores.
//!
//! Every score a search computes is a pure function of (probe, entry) and
//! every work meter is an integer sum, so which core computes an entry
//! cannot change a bit: a pass cut into jobs, computed on whichever lane
//! takes each, and joined in job order returns what the one-lane pass
//! returns. [`run`] is the one fork-join helper, [`share`] deals a pass's
//! jobs over it, [`count`] decides how many lanes a pass gets. A one-core
//! process and a small pass get one lane, which runs inline: the serial
//! code path.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock, PoisonError};

/// The least work that earns a lane of its own, in gallery entries of a
/// stage-1 pass.
///
/// Measured on the reference host (2-core Xeon @ 2.1 GHz): a scoped spawn
/// plus its join costs 15–21 µs. One entry costs 0.5 µs at the cheapest,
/// in both channels together: 0.6 µs (codes) + 0.17 µs (votes) at
/// `identify_10k`'s scaled config, 0.41 µs (codes alone) over the
/// 2,000-entry bench arena, 1.9 µs (both) for `identify_cohort`'s real
/// captures at the default config. 128 entries are then at least 64 µs,
/// three spawns, so a lane spends at most a third of its work coming into
/// being and still more than halves it; the break-even is near 40 entries.
/// A re-rank comparison counts as `COMPARISON_ENTRIES` entries.
///
/// It is a constant, not a knob: it decides which core computes a score,
/// never the score.
pub const MIN_LANE_ENTRIES: usize = 128;

/// One exact re-rank comparison in the units of [`MIN_LANE_ENTRIES`]. On
/// the same host a comparison costs 19 µs at `identify_10k`'s shortlist
/// (2.4 ms for 128) to 45 µs at `identify_cohort`'s (2.2 ms for 49), 38 to
/// 90 entries: 64, so a re-rank lane needs two comparisons, about two
/// spawns of work.
pub(crate) const COMPARISON_ENTRIES: usize = 64;

/// Gallery entries one job of the codes pass scores, and, in the same
/// units, about the size of every job [`share`] deals: 64 entries are
/// 32–40 µs at the cheapest per-entry cost above, one re-rank comparison is
/// a job of its own, and the vote pass's jobs of [`JOB_FEATURES`] and
/// [`JOB_IDS`] cost the same order. A job is the most a lane can be left
/// waiting for when the other lane's core is taken from it mid-pass; its
/// claim costs one lock, well under 1 % of that.
///
/// Jobs rather than one fixed range per lane, because the host does not
/// always lend the second core when asked: on the reference host a spawned
/// lane starts 40–80 µs into the pass on average, but in some phases only
/// once the caller's lane is done. With fixed halves such a pass took
/// longer than the serial one, and `identify_cohort`'s throughput spread
/// 18 % between runs where the serial build spread 16 %; with jobs, 9 %.
pub(crate) const JOB_ENTRIES: usize = 64;

/// Probe pair features one job of the vote pass's reach phase looks up:
/// each binary-searches its 27 neighbourhood keys in a key array of about
/// 5,400 keys (both benchmark galleries), 0.5–0.6 µs a feature on one
/// lane, so 32 are 16–19 µs. A benchmark probe has 200–1,050 features
/// at the median of its class.
pub(crate) const JOB_FEATURES: usize = 32;

/// Bucket ids one job of the vote pass's stream phase adds its weights
/// to, at least: one id costs 0.8–1.0 ns on one lane (a read from the id
/// array, an add into a count array that stays in cache), so a job is
/// 26–33 µs. An `identify_10k` search streams 1.7–2.7 M ids at the median
/// of its probe classes, an `identify_cohort` search 155–190 k.
pub(crate) const JOB_IDS: usize = 32_768;

/// The host's logical cores, asked once per process: on Linux
/// `available_parallelism` reads cgroup files (about 14 µs on the reference
/// host), too slow to ask on every search. 4 when the host will not say.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, NonZeroUsize::get))
}

/// Lanes for a pass of `work` entries allowed up to `max` lanes: one per
/// [`MIN_LANE_ENTRIES`], at least one, at most `max`.
pub(crate) fn count(work: usize, max: usize) -> usize {
    (work / MIN_LANE_ENTRIES).clamp(1, max.max(1))
}

/// Runs `work` on every job with one of `states`, on one lane per state
/// (no more lanes than jobs; the last state's lane is the caller's), and
/// returns the results in job order. A lane takes the next job nobody has
/// taken whenever it finishes one, so a lane whose thread starts late or
/// loses its core mid-pass leaves its share to the others instead of
/// holding the pass up: a pass waits at most one job for the slowest lane,
/// not half of its work. One state runs every job inline, in order.
///
/// In this crate's unit tests every lane takes a job before any lane runs
/// one, so a test of a pass with at least as many jobs as lanes uses every
/// lane's state, however the threads are scheduled.
pub(crate) fn share<J: Send, S: Send, T: Send>(
    jobs: Vec<J>,
    mut states: Vec<S>,
    work: impl Fn(&mut S, J) -> T + Sync,
) -> Vec<T> {
    assert!(!states.is_empty(), "a pass needs at least one lane");
    let n = jobs.len();
    let unused = states.len().saturating_sub(n.max(1));
    states.drain(..unused);
    #[cfg(test)]
    let all_in = std::sync::Barrier::new(states.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // No lane panics while holding the lock: it is held for `next` alone.
    let take = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let done = run(states, |mut state| {
        let mut mine = Vec::new();
        while let Some((at, job)) = take() {
            #[cfg(test)]
            if mine.is_empty() {
                all_in.wait();
            }
            mine.push((at, work(&mut state, job)));
        }
        mine
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (at, result) in done.into_iter().flatten() {
        slots[at] = Some(result);
    }
    // The queue hands out every job index once.
    #[allow(clippy::expect_used)]
    slots
        .into_iter()
        .map(|slot| slot.expect("every job is taken once"))
        .collect()
}

/// Runs `lane` once per job and returns the results in job order. Every job
/// but the last runs on a scoped thread of its own; the last runs on the
/// caller's thread, so one job costs no thread at all. A lane that panics
/// re-raises its own payload on the caller — a lazy table load that fails
/// on a helper lane reads as that failure, not as a generic one.
pub(crate) fn run<J: Send, T: Send>(mut jobs: Vec<J>, lane: impl Fn(J) -> T + Sync) -> Vec<T> {
    let Some(last) = jobs.pop() else {
        return Vec::new();
    };
    if jobs.is_empty() {
        return vec![lane(last)];
    }
    let lane = &lane;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move || lane(job)))
            .collect();
        let last = lane(last);
        let mut out: Vec<T> = helpers
            .into_iter()
            .map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
        out.push(last);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        assert_eq!(run(Vec::<u32>::new(), |j| j), Vec::<u32>::new());
        assert_eq!(run(vec![7], |j| j * 2), vec![14]);
        let jobs: Vec<u64> = (0..9).collect();
        assert_eq!(
            run(jobs, |j| j * j),
            (0..9).map(|j| j * j).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "lane 0 lost its table")]
    fn a_helper_lane_panic_keeps_its_message() {
        run(vec![0, 1, 2], |j| {
            if j == 0 {
                panic!("lane {j} lost its table");
            }
            j
        });
    }

    #[test]
    fn lanes_follow_the_work_and_the_cap() {
        assert_eq!(count(0, 8), 1);
        assert_eq!(count(2 * MIN_LANE_ENTRIES - 1, 8), 1);
        assert_eq!(count(2 * MIN_LANE_ENTRIES, 8), 2);
        assert_eq!(count(100 * MIN_LANE_ENTRIES, 3), 3);
        assert_eq!(count(100 * MIN_LANE_ENTRIES, 0), 1);
        assert!(cores() >= 1);
    }

    #[test]
    fn shared_jobs_run_once_each_and_come_back_in_job_order() {
        for (jobs, lanes) in [(0, 1), (0, 3), (1, 1), (1, 4), (9, 2), (200, 7)] {
            // Each lane's first job waits for every other lane's, so every
            // lane takes part and their results interleave.
            let all_in = std::sync::Barrier::new(lanes.min(jobs.max(1)));
            let out = share((0..jobs as u64).collect(), vec![true; lanes], |first, j| {
                if std::mem::take(first) {
                    all_in.wait();
                }
                j * j
            });
            assert_eq!(out, (0..jobs as u64).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_stalled_lane_leaves_its_share_to_the_others() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;

        // The helper's first job stalls until the caller's lane has done
        // every other job: with the jobs split up front it would wait for
        // 49 where the caller's lane had only 25.
        struct Lane {
            stall: Option<Receiver<()>>,
            tell: Option<Sender<()>>,
        }
        let (tx, rx) = channel();
        let lanes = vec![
            Lane {
                stall: Some(rx),
                tell: None,
            },
            Lane {
                stall: None,
                tell: Some(tx),
            },
        ];
        let out = share((0..50u32).collect(), lanes, |lane, j| {
            if let Some(rx) = lane.stall.take() {
                for _ in 0..49 {
                    rx.recv_timeout(Duration::from_secs(10))
                        .expect("the caller's lane takes every job the helper does not");
                }
            }
            if let Some(tx) = &lane.tell {
                let _ = tx.send(());
            }
            j
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }
}
