//! The pair-table geometric-hash bucket index.
//!
//! Every gallery template registers each of its pair-table entries under a
//! quantized `(distance, beta1, beta2)` key — the same rotation- and
//! translation-invariant features the pair-table matcher associates on. A
//! probe then votes: each of its own entries looks up the neighbourhood of
//! its key (±1 bin per dimension, so quantization boundaries cannot split a
//! genuine pair from its mate), and every registration in every bucket
//! found there is one vote for its gallery template. The pass counts how
//! many probe entries reach each bucket, then reads each reached bucket
//! once and adds that count to its ids. Genuine gallery entries share many
//! compatible pairs with the probe and accumulate deep vote counts;
//! impostors only collect accidental geometry.
//!
//! A bucket table has one form, [`FlatBuckets`]: sorted keys, bucket
//! offsets and one id array — the BUCKETS section `fp-store` persists, so
//! saving borrows it and opening adopts it. A batch is appended in place:
//! its unseen keys are sorted in as empty buckets (in rounds that double,
//! so the scratch stays small), one binary search per registration finds
//! its bucket, the id array grows once, old buckets move right back to
//! front, and the new ids land behind them: ascending ids in every
//! bucket, however the gallery was batched, at a cost near linear in
//! table plus batch even when a fine tuning gives every pair its own key.
//! Binary search is enough: the 10,000-entry benchmark gallery has
//! 2,761,495 ids under 5,376 keys (a 42 KB key array) and measured as
//! fast as the hash map it replaced.

use fp_match::PairFeature;

use crate::lanes;

/// A geometric-hash bucket table: keys strictly ascending, bucket `k`
/// owning `ids[offsets[k]..offsets[k + 1]]`, none empty. Its fields are
/// private: a table passed [`from_raw_parts`](Self::from_raw_parts), was
/// built by the index, or was derived from one of those — and its ids are
/// checked against the gallery again wherever an index adopts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatBuckets {
    keys: Vec<u64>,
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Default for FlatBuckets {
    fn default() -> Self {
        FlatBuckets {
            keys: Vec::new(),
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

impl FlatBuckets {
    /// Rebuilds a table from persisted parts — keys, bucket lengths, ids
    /// in key order — if the keys ascend strictly, the lengths are non-zero
    /// and tile the ids, and every id is below `entry_count` (a vote is a
    /// `votes[id]` increment). A violation is an error, never a panic.
    pub fn from_raw_parts(
        keys: Vec<u64>,
        lens: Vec<u32>,
        ids: Vec<u32>,
        entry_count: usize,
    ) -> Result<FlatBuckets, String> {
        let mut offsets = vec![0usize];
        for &len in &lens {
            offsets.push(offsets[offsets.len() - 1].saturating_add(len as usize));
        }
        let tiled =
            lens.len() == keys.len() && !lens.contains(&0) && offsets[lens.len()] == ids.len();
        let table = FlatBuckets { keys, offsets, ids };
        if let Some(pair) = table.keys.windows(2).find(|pair| pair[1] <= pair[0]) {
            Err(format!("bucket keys not ascending at {pair:?}"))
        } else if !tiled {
            Err(format!(
                "bucket lengths do not tile {} ids",
                table.ids.len()
            ))
        } else if let Some(bad) = table.stray_id(entry_count) {
            Err(format!("bucket id {bad} >= entry count {entry_count}"))
        } else {
            Ok(table)
        }
    }

    /// The first id that names no entry of an `entry_count`-entry gallery.
    pub(crate) fn stray_id(&self, entry_count: usize) -> Option<u32> {
        self.ids
            .iter()
            .copied()
            .find(|&id| id as usize >= entry_count)
    }

    /// Every bucket as `(key, ids)`, key ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> + Clone + '_ {
        self.keys
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&key, span)| (key, &self.ids[span[0]..span[1]]))
    }

    /// The ids of bucket `k`, the bucket of the `k`-th smallest key.
    fn at(&self, k: usize) -> &[u32] {
        &self.ids[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Appends a later run of the same gallery — a later segment's
    /// survivors, say: every id in `later` ranks after every id here.
    pub fn append(&mut self, later: FlatBuckets) {
        if self.ids.is_empty() {
            *self = later;
        } else {
            let regs = later
                .iter()
                .flat_map(|(key, ids)| ids.iter().map(move |&id| (key, id)));
            self.register(regs);
        }
    }

    /// The table with each id `i` renamed `map(i)`, or dropped when that
    /// is `None`; `map` must keep the ids it keeps in order. Buckets left
    /// empty are dropped.
    pub fn remap(&self, map: impl Fn(u32) -> Option<u32>) -> FlatBuckets {
        let mut out = FlatBuckets::default();
        for (key, ids) in self.iter() {
            out.ids.extend(ids.iter().filter_map(|&id| map(id)));
            if out.ids.len() > out.offsets[out.keys.len()] {
                out.keys.push(key);
                out.offsets.push(out.ids.len());
            }
        }
        out
    }

    /// Registers `(key, id)` pairs whose ids rank after every id here and
    /// ascend within each key, in place.
    fn register(&mut self, regs: impl Iterator<Item = (u64, u32)> + Clone) {
        // The keys the table lacks join as empty buckets: every bucket
        // ends where the old buckets up to its key ended. Unseen keys are
        // sorted in whenever they outnumber the keys known so far, which
        // keeps the scratch no larger than the table's keys and the cost
        // near linear, however many keys are new.
        let mut keys = self.keys.clone();
        let mut unseen = Vec::new();
        for (key, _) in regs.clone() {
            if keys.binary_search(&key).is_err() {
                unseen.push(key);
                if unseen.len() > keys.len() {
                    keys.append(&mut unseen);
                    keys.sort_unstable();
                    keys.dedup();
                }
            }
        }
        keys.append(&mut unseen);
        keys.sort_unstable();
        keys.dedup();
        self.offsets = std::iter::once(0)
            .chain(
                keys.iter()
                    .map(|key| self.offsets[self.keys.partition_point(|k| k <= key)]),
            )
            .collect();
        self.keys = keys;
        let mut grow = vec![0usize; self.keys.len()];
        let slots: Vec<u32> = regs
            .clone()
            .map(|(key, _)| {
                let slot = self.keys.partition_point(|&k| k < key);
                grow[slot] += 1;
                slot as u32
            })
            .collect();
        // Grow the id array once, then move every bucket right by the
        // growth of the buckets before it, back to front so none
        // overwrites one that has not moved yet.
        let mut shift: usize = grow.iter().sum();
        self.ids.resize(self.ids.len() + shift, 0);
        let mut free = grow;
        for k in (0..free.len()).rev() {
            let (start, end) = (self.offsets[k], self.offsets[k + 1]);
            self.offsets[k + 1] = end + shift;
            shift -= free[k];
            self.ids.copy_within(start..end, start + shift);
            free[k] = end + shift;
        }
        for ((_, id), slot) in regs.zip(slots) {
            self.ids[free[slot as usize]] = id;
            free[slot as usize] += 1;
        }
    }
}

/// Bucket index from quantized pair features to the gallery ids that own
/// them.
#[derive(Debug, Clone)]
pub(crate) struct BucketIndex {
    pub(crate) table: FlatBuckets,
    distance_bin: f64,
    angle_bins: usize,
}

impl BucketIndex {
    pub(crate) fn new(distance_bin: f64, angle_bins: usize) -> BucketIndex {
        assert!(distance_bin > 0.0, "distance bin must be positive");
        assert!(angle_bins >= 2, "need at least two angular bins");
        BucketIndex {
            table: FlatBuckets::default(),
            distance_bin,
            angle_bins,
        }
    }

    fn angle_bin(&self, beta: f64) -> i64 {
        // beta is in (-pi, pi]; map to [0, angle_bins).
        let frac = (beta + std::f64::consts::PI) / std::f64::consts::TAU;
        let bin = (frac * self.angle_bins as f64).floor() as i64;
        bin.rem_euclid(self.angle_bins as i64)
    }

    /// The distinct angular bins within ±1 of `bin`. With few bins the
    /// neighbourhood wraps onto itself (`angle_bins = 2` maps `bin - 1` and
    /// `bin + 1` to the same bucket), so the offsets are deduplicated —
    /// otherwise a probe feature would visit one bucket key twice and
    /// double-count both its votes and the `bucket_hits` meter.
    fn angle_neighbourhood(&self, bin: i64) -> ([i64; 3], usize) {
        let bins = self.angle_bins as i64;
        let mut out = [0i64; 3];
        let mut n = 0;
        for db in -1..=1i64 {
            let b = (bin + db).rem_euclid(bins);
            if !out[..n].contains(&b) {
                out[n] = b;
                n += 1;
            }
        }
        (out, n)
    }

    fn key(&self, d_bin: i64, b1_bin: i64, b2_bin: i64) -> u64 {
        // 21 bits per dimension: `IndexConfig::validate` bounds the angle
        // bins, and keeps the longest pair's distance bin plus one inside.
        debug_assert!([d_bin, b1_bin, b2_bin]
            .iter()
            .all(|&b| (b as u64) < 1 << 21));
        ((d_bin as u64) << 42) | ((b1_bin as u64) << 21) | b2_bin as u64
    }

    /// The bucket key of every feature, in feature order: what an entry
    /// registers, computed on the worker that prepares the entry.
    pub(crate) fn keys(&self, features: impl Iterator<Item = PairFeature>) -> Vec<u64> {
        features
            .map(|f| {
                self.key(
                    (f.d / self.distance_bin).floor() as i64,
                    self.angle_bin(f.beta1),
                    self.angle_bin(f.beta2),
                )
            })
            .collect()
    }

    /// Registers a batch by each entry's [`keys`](Self::keys), as ids
    /// `first_id..` in order.
    pub(crate) fn append<'a>(
        &mut self,
        first_id: u32,
        entries: impl Iterator<Item = &'a [u64]> + Clone,
    ) {
        let entries = (first_id..).zip(entries);
        self.table
            .register(entries.flat_map(|(id, keys)| keys.iter().map(move |&key| (key, id))));
    }

    /// Calls `visit` with every distinct key in the ±1-bin neighbourhood
    /// of `f`'s key. The angular neighbourhoods are deduplicated, so tiny
    /// `angle_bins` cannot wrap a feature back onto a key it already
    /// visited.
    fn neighbourhood(&self, f: &PairFeature, mut visit: impl FnMut(u64)) {
        let d_bin = (f.d / self.distance_bin).floor() as i64;
        let (b1s, n1) = self.angle_neighbourhood(self.angle_bin(f.beta1));
        let (b2s, n2) = self.angle_neighbourhood(self.angle_bin(f.beta2));
        // The distance offsets are distinct integers, so only the angular
        // dimensions can collide.
        for d in (d_bin - 1..=d_bin + 1).filter(|&d| d >= 0) {
            for &b1 in &b1s[..n1] {
                for &b2 in &b2s[..n2] {
                    visit(self.key(d, b1, b2));
                }
            }
        }
    }

    /// Adds to `votes[id]` one vote per (probe feature, bucket in the
    /// feature's neighbourhood, registration of `id` in that bucket), and
    /// returns that number of votes, the bucket hits. Two phases, each an
    /// integer sum:
    ///
    /// 1. *Reach.* Every probe feature looks up its neighbourhood keys and
    ///    adds 1 to the weight of each bucket that exists.
    /// 2. *Stream.* Every reached bucket is read once and adds its weight
    ///    to each of its ids; the hits are Σ weight × bucket length.
    ///
    /// The cost is the lookups, one weight slot per key (a table has no
    /// more keys than ids), and the ids of the reached buckets, once each.
    /// Voting feature by feature reads a bucket's ids once per feature
    /// that reaches it: 2.2 times as many ids over `identify_10k`'s probes,
    /// 3.6 over `identify_cohort`'s, up to 10 for one ink card.
    ///
    /// Both phases run on up to `max_lanes` lanes (`crate::lanes`, sized
    /// by the gallery, `votes.len()`), each lane counting into a private
    /// array that is then summed, so the votes and the hits are exactly
    /// the one-lane pass's.
    pub(crate) fn accumulate(
        &self,
        features: &[PairFeature],
        votes: &mut [u32],
        max_lanes: usize,
    ) -> u64 {
        let lanes = lanes::count(votes.len(), max_lanes);
        let weights = self.reach(features, lanes, lanes::JOB_FEATURES);
        self.stream(&weights, votes, lanes, lanes::JOB_IDS)
    }

    /// The reach phase of [`accumulate`](Self::accumulate): how many of
    /// `features` reach each bucket, in key order, over jobs of
    /// `job_features` features.
    fn reach(&self, features: &[PairFeature], lanes: usize, job_features: usize) -> Vec<u32> {
        let keys = &self.table.keys;
        let mut weights = vec![0u32; keys.len()];
        let jobs = features.chunks(job_features).collect();
        count_on_lanes(&mut weights, lanes, jobs, |weights, features| {
            for f in features {
                self.neighbourhood(f, |key| {
                    if let Ok(k) = keys.binary_search(&key) {
                        weights[k] += 1;
                    }
                });
            }
            0
        });
        weights
    }

    /// The stream phase of [`accumulate`](Self::accumulate): adds each
    /// bucket's weight to every id in it, over jobs of at least `job_ids`
    /// ids (the last may hold fewer), and returns the hits.
    fn stream(&self, weights: &[u32], votes: &mut [u32], lanes: usize, job_ids: usize) -> u64 {
        let reached: Vec<(usize, u32)> = (0..weights.len())
            .filter(|&k| weights[k] > 0)
            .map(|k| (k, weights[k]))
            .collect();
        let mut jobs = Vec::new();
        let (mut start, mut ids) = (0, 0);
        for (end, &(k, _)) in (1..).zip(&reached) {
            ids += self.table.at(k).len();
            if ids >= job_ids || end == reached.len() {
                jobs.push(&reached[start..end]);
                (start, ids) = (end, 0);
            }
        }
        count_on_lanes(votes, lanes, jobs, |votes, job| {
            let mut hits = 0u64;
            for &(k, weight) in job {
                let bucket = self.table.at(k);
                hits += u64::from(weight) * bucket.len() as u64;
                for &id in bucket {
                    votes[id as usize] += weight;
                }
            }
            hits
        })
    }

    /// The feature-at-a-time pass [`accumulate`](Self::accumulate)
    /// replaced, kept as its oracle: one increment per id per bucket per
    /// feature, so a bucket's ids are read once per feature reaching it.
    #[cfg(test)]
    fn vote(&self, features: &[PairFeature], votes: &mut [u32]) -> u64 {
        let mut hits = 0u64;
        for f in features {
            self.neighbourhood(f, |key| {
                if let Ok(k) = self.table.keys.binary_search(&key) {
                    let bucket = self.table.at(k);
                    hits += bucket.len() as u64;
                    for &id in bucket {
                        votes[id as usize] += 1;
                    }
                }
            });
        }
        hits
    }
}

/// Runs `work` over `jobs` on up to `lanes` lanes (`crate::lanes`), each
/// lane adding into an array of `total`'s length: the caller's lane into
/// `total` itself, every other into a private array that is then added
/// in. Returns the sum of the jobs' results.
fn count_on_lanes<J: Send>(
    total: &mut [u32],
    lanes: usize,
    jobs: Vec<J>,
    work: impl Fn(&mut [u32], J) -> u64 + Sync,
) -> u64 {
    let lanes = lanes.min(jobs.len().max(1));
    let mut private = vec![vec![0u32; total.len()]; lanes - 1];
    let counts = private
        .iter_mut()
        .map(Vec::as_mut_slice)
        .chain(std::iter::once(&mut *total))
        .collect();
    let results = lanes::share(jobs, counts, |counts, job| work(counts, job));
    for counts in &private {
        for (sum, &count) in total.iter_mut().zip(counts) {
            *sum += count;
        }
    }
    results.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::time::Instant;

    use proptest::prelude::*;

    use super::*;

    fn feature(d: f64, beta1: f64, beta2: f64) -> PairFeature {
        PairFeature { d, beta1, beta2 }
    }

    /// An index over `entries`, enrolled one entry at a time.
    fn enrolled(distance_bin: f64, angle_bins: usize, entries: &[Vec<PairFeature>]) -> BucketIndex {
        let mut index = BucketIndex::new(distance_bin, angle_bins);
        for (id, features) in (0u32..).zip(entries) {
            let keys = index.keys(features.iter().copied());
            index.append(id, std::iter::once(keys.as_slice()));
        }
        index
    }

    #[test]
    fn identical_features_vote_for_their_owner() {
        let index = enrolled(
            0.5,
            16,
            &[vec![feature(4.2, 0.3, -1.1)], vec![feature(9.0, 2.0, 2.5)]],
        );
        let mut votes = vec![0u32; 2];
        let hits = index.accumulate(&[feature(4.2, 0.3, -1.1)], &mut votes, 1);
        assert_eq!(votes[0], 1);
        assert_eq!(votes[1], 0);
        assert_eq!(hits, 1);
    }

    #[test]
    fn near_boundary_features_still_match_via_neighbourhood() {
        let index = enrolled(0.5, 16, &[vec![feature(4.49, 0.0, 0.0)]]);
        let mut votes = vec![0u32; 1];
        // One distance bin over and slightly rotated: the ±1 neighbourhood
        // still reaches the registered bucket.
        index.accumulate(&[feature(4.51, 0.1, -0.1)], &mut votes, 1);
        assert_eq!(votes[0], 1);
    }

    #[test]
    fn angle_bins_wrap_around_pi() {
        let pi = std::f64::consts::PI;
        let index = enrolled(0.5, 16, &[vec![feature(6.0, pi - 0.01, 0.0)]]);
        let mut votes = vec![0u32; 1];
        // Just across the ±pi seam: wrapping neighbourhood must find it.
        index.accumulate(&[feature(6.0, -pi + 0.01, 0.0)], &mut votes, 1);
        assert_eq!(votes[0], 1);
    }

    #[test]
    fn two_angle_bins_do_not_double_count_the_wrapped_neighbour() {
        // With angle_bins = 2 the ±1 angular offsets wrap onto the same
        // bin (`bin - 1 ≡ bin + 1 mod 2`), so before deduplication a probe
        // feature visited the opposite-bin bucket 2x per angular dimension
        // (4x combined) and double-counted votes and bucket_hits.
        let pi = std::f64::consts::PI;
        // beta = +pi/2 lands in bin 1 on both angles; the probe below (bin
        // 0 on both) reaches it only through the wrapping neighbourhood.
        let index = enrolled(0.5, 2, &[vec![feature(5.0, pi / 2.0, pi / 2.0)]]);
        let mut votes = vec![0u32; 1];
        let hits = index.accumulate(&[feature(5.0, -pi / 2.0, -pi / 2.0)], &mut votes, 1);
        assert_eq!(votes[0], 1, "wrapped neighbour must be visited once");
        assert_eq!(hits, 1, "bucket_hits must match the deduped visits");

        // A same-bin probe also votes exactly once.
        let mut votes = vec![0u32; 1];
        let hits = index.accumulate(&[feature(5.0, pi / 2.0, pi / 2.0)], &mut votes, 1);
        assert_eq!(votes[0], 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn three_angle_bins_visit_every_bucket_exactly_once() {
        // angle_bins = 3: the ±1 neighbourhood spans all three bins, each
        // exactly once — any same-distance feature gets exactly one vote
        // per probe feature, never two.
        let tau = std::f64::consts::TAU;
        let entries: Vec<Vec<PairFeature>> = [0.1, 0.45, 0.8]
            .iter()
            .map(|frac| {
                let beta = frac * tau - std::f64::consts::PI;
                vec![feature(5.0, beta, beta)]
            })
            .collect();
        let index = enrolled(0.5, 3, &entries);
        let mut votes = vec![0u32; 3];
        let probe_beta = 0.45 * tau - std::f64::consts::PI;
        let hits = index.accumulate(&[feature(5.0, probe_beta, probe_beta)], &mut votes, 1);
        assert_eq!(votes, vec![1, 1, 1], "one vote per reachable entry");
        assert_eq!(hits, 3);
    }

    #[test]
    fn far_features_do_not_vote() {
        let index = enrolled(0.5, 16, &[vec![feature(3.0, 0.0, 0.0)]]);
        let mut votes = vec![0u32; 1];
        index.accumulate(&[feature(8.0, 2.0, -2.0)], &mut votes, 1);
        assert_eq!(votes[0], 0);
        assert_eq!(index.table.keys.len(), 1);
    }

    #[test]
    fn raw_parts_round_trip_and_reject_hostile_shapes() {
        let table =
            FlatBuckets::from_raw_parts(vec![3, 9, 40], vec![2, 1, 3], vec![0, 2, 1, 0, 1, 1], 3)
                .unwrap();
        assert_eq!(table.keys, [3, 9, 40]);
        assert_eq!(table.ids, [0, 2, 1, 0, 1, 1]);
        let buckets: Vec<(u64, &[u32])> = table.iter().collect();
        assert_eq!(
            buckets,
            [(3, &[0, 2][..]), (9, &[1][..]), (40, &[0, 1, 1][..])]
        );

        // Keys out of order or repeated, a length per key missing or
        // extra, an empty bucket, lengths that under- or over-cover the
        // ids (or overflow), and an id past the gallery all come back as
        // errors, never panics.
        let hostile = [
            (vec![9, 3], vec![1, 1], vec![0, 0], 1),
            (vec![3, 3], vec![1, 1], vec![0, 0], 1),
            (vec![3, 9], vec![2], vec![0, 0], 1),
            (vec![3], vec![1, 1], vec![0, 0], 1),
            (vec![3, 9], vec![0, 2], vec![0, 0], 1),
            (vec![3, 9], vec![1, 2], vec![0, 0], 1),
            (vec![3, 9], vec![1, 1], vec![0, 0, 0], 1),
            (vec![3, 9], vec![u32::MAX, u32::MAX], vec![0, 0], 1),
            (vec![3], vec![2], vec![0, 1], 1),
            (vec![3], vec![1], vec![u32::MAX], 0),
        ];
        for (keys, lens, ids, entry_count) in hostile {
            let shape = format!("{keys:?} {lens:?} {ids:?} {entry_count}");
            assert!(
                FlatBuckets::from_raw_parts(keys, lens, ids, entry_count).is_err(),
                "accepted {shape}"
            );
        }
        assert_eq!(
            FlatBuckets::from_raw_parts(Vec::new(), Vec::new(), Vec::new(), 0),
            Ok(FlatBuckets::default())
        );
    }

    #[test]
    fn runs_and_remap_like_enrollment_does() {
        let entries: Vec<Vec<PairFeature>> = (0..13)
            .map(|id| {
                let feature_k = |k| feature(1.0 + (id * 7 + k) as f64 % 11.0, k as f64 - 1.5, 0.3);
                (0..id % 5).map(feature_k).collect()
            })
            .collect();
        let whole = enrolled(0.5, 16, &entries).table;

        // Two runs, the second's ids shifted past the first's.
        let mut joined = enrolled(0.5, 16, &entries[..6]).table;
        joined.append(
            enrolled(0.5, 16, &entries[6..])
                .table
                .remap(|id| Some(id + 6)),
        );
        assert_eq!(joined, whole);

        // Dropping every third id from 1 on and renaming the rest densely.
        let survivors = whole.remap(|id| (id % 3 != 1).then(|| id - (id + 1) / 3));
        let kept: Vec<Vec<PairFeature>> = (0..entries.len())
            .filter(|id| id % 3 != 1)
            .map(|id| entries[id].clone())
            .collect();
        assert_eq!(survivors, enrolled(0.5, 16, &kept).table);
    }

    /// `entries` entries of `per` features strided irrationally over the
    /// whole 12 mm x 2pi x 2pi domain, so that a fine tuning gives nearly
    /// every feature its own key.
    fn spread(entries: usize, per: usize) -> Vec<Vec<PairFeature>> {
        let pi = std::f64::consts::PI;
        let frac = |x: f64| x - x.floor();
        (0..entries * per)
            .map(|n| {
                let n = n as f64;
                feature(
                    12.0 * frac(n * 0.618_034),
                    pi * (2.0 * frac(n * 0.414_214) - 1.0),
                    pi * (2.0 * frac(n * 0.732_051) - 1.0),
                )
            })
            .collect::<Vec<_>>()
            .chunks(per)
            .map(<[PairFeature]>::to_vec)
            .collect()
    }

    /// A tuning far finer than the default (1e-5 mm, 4096 angle bins)
    /// gives nearly every registration its own key. A batch still appends
    /// in near-linear time — four times the registrations take nowhere
    /// near the sixteen times that inserting keys one by one would — and
    /// the table is the one batch splits build and votes like brute force.
    #[test]
    fn a_fine_tuning_appends_in_near_linear_time_and_votes_like_brute_force() {
        let index = BucketIndex::new(1e-5, 4096);
        let keys_of = |gallery: &[Vec<PairFeature>]| -> Vec<Vec<u64>> {
            gallery
                .iter()
                .map(|fs| index.keys(fs.iter().copied()))
                .collect()
        };
        let fastest = |keys: &[Vec<u64>]| {
            (0..5)
                .map(|_| {
                    let mut built = index.clone();
                    let start = Instant::now();
                    built.append(0, keys.iter().map(Vec::as_slice));
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (keys_of(&spread(512, 32)), keys_of(&spread(2048, 32)));
        let ratio = fastest(&large) / fastest(&small);
        assert!(
            ratio < 10.0,
            "4x the registrations took {ratio:.1}x as long"
        );

        let gallery = spread(2048, 32);
        let keys = keys_of(&gallery);
        let mut whole = index.clone();
        whole.append(0, keys.iter().map(Vec::as_slice));
        assert!(
            whole.table.keys.len() > 60_000,
            "{} keys",
            whole.table.keys.len()
        );
        let mut split = index.clone();
        for first in (0..keys.len()).step_by(600) {
            let run = &keys[first..keys.len().min(first + 600)];
            split.append(first as u32, run.iter().map(Vec::as_slice));
        }
        assert_eq!(split.table, whole.table);

        // Entry 5 nudged within one bin, plus a few features of entry 1500.
        let probe: Vec<PairFeature> = gallery[5]
            .iter()
            .map(|f| feature(f.d + 4e-6, f.beta1 + 1e-3, f.beta2 - 1e-3))
            .chain(gallery[1500][..4].iter().copied())
            .collect();
        let mut oracle_votes = vec![0u32; gallery.len()];
        for &f in &probe {
            let near = neighbourhood_oracle(&index, f);
            for (id, entry_keys) in keys.iter().enumerate() {
                oracle_votes[id] +=
                    entry_keys.iter().filter(|key| near.contains(key)).count() as u32;
            }
        }
        let mut votes = vec![0u32; gallery.len()];
        let hits = whole.accumulate(&probe, &mut votes, 1);
        assert!(
            votes[5] >= 32 && votes[1500] >= 4,
            "the probe finds its sources"
        );
        assert_eq!(
            hits,
            oracle_votes.iter().map(|&v| u64::from(v)).sum::<u64>()
        );
        assert_eq!(votes, oracle_votes);
    }

    /// Every neighbourhood key of `f`, deduplicated by a set rather than
    /// by [`BucketIndex::angle_neighbourhood`].
    fn neighbourhood_oracle(index: &BucketIndex, f: PairFeature) -> BTreeSet<u64> {
        let bins = index.angle_bins as i64;
        let d_bin = (f.d / index.distance_bin).floor() as i64;
        let (b1, b2) = (index.angle_bin(f.beta1), index.angle_bin(f.beta2));
        let mut keys = BTreeSet::new();
        for dd in -1..=1 {
            for db1 in -1..=1 {
                for db2 in -1..=1 {
                    if d_bin + dd >= 0 {
                        keys.insert(index.key(
                            d_bin + dd,
                            (b1 + db1).rem_euclid(bins),
                            (b2 + db2).rem_euclid(bins),
                        ));
                    }
                }
            }
        }
        keys
    }

    /// Up to eight features over the first eight distance bins, so that
    /// gallery and probe keys meet often even at 16 angle bins.
    fn features() -> impl Strategy<Value = Vec<PairFeature>> {
        let pi = std::f64::consts::PI;
        prop::collection::vec((0.0f64..4.0, -pi..pi, -pi..pi), 0..9).prop_map(|fs| {
            fs.into_iter()
                .map(|(d, b1, b2)| feature(d, b1, b2))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One batch, random batch splits and one entry at a time build the
        /// same table, and its votes and hits equal a brute-force count of
        /// every (probe feature, neighbourhood key, gallery key) match.
        #[test]
        fn any_batching_builds_one_table_that_votes_like_brute_force(
            mut gallery in prop::collection::vec(features(), 0..14),
            probe in features(),
            bins_at in 0usize..3,
            cuts in prop::collection::vec(0usize..14, 0..4),
        ) {
            let angle_bins = [2, 3, 16][bins_at];
            // One entry registers a key twice.
            if let Some(entry) = gallery.iter_mut().find(|fs| !fs.is_empty()) {
                entry.push(entry[0]);
            }
            let index = BucketIndex::new(0.5, angle_bins);
            let keys: Vec<Vec<u64>> = gallery.iter().map(|fs| index.keys(fs.iter().copied())).collect();

            let mut one_batch = index.clone();
            one_batch.append(0, keys.iter().map(Vec::as_slice));
            let mut split = index.clone();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(keys.len())).collect();
            cuts.extend([0, keys.len()]);
            cuts.sort_unstable();
            for run in cuts.windows(2) {
                split.append(run[0] as u32, keys[run[0]..run[1]].iter().map(Vec::as_slice));
            }
            let one_at_a_time = enrolled(0.5, angle_bins, &gallery);
            let expected: Vec<(u64, &[u32])> = one_batch.table.iter().collect();
            prop_assert_eq!(&split.table.iter().collect::<Vec<_>>(), &expected);
            prop_assert_eq!(&one_at_a_time.table.iter().collect::<Vec<_>>(), &expected);
            prop_assert!(expected.iter().all(|(_, ids)| !ids.is_empty() && ids.windows(2).all(|w| w[0] <= w[1])));

            let mut oracle_votes = vec![0u32; gallery.len()];
            let mut oracle_hits = 0u64;
            for &f in &probe {
                let near = neighbourhood_oracle(&index, f);
                for (id, entry_keys) in keys.iter().enumerate() {
                    let matched = entry_keys.iter().filter(|key| near.contains(key)).count();
                    oracle_votes[id] += matched as u32;
                    oracle_hits += matched as u64;
                }
            }
            let mut votes = vec![0u32; gallery.len()];
            let hits = one_batch.accumulate(&probe, &mut votes, 1);
            prop_assert_eq!(votes, oracle_votes);
            prop_assert_eq!(hits, oracle_hits);
        }

        /// The two-phase pass equals the feature-at-a-time oracle on votes
        /// and hits, on any lane count and job sizes: repeated probe
        /// features weigh a bucket more than once, one entry registers a
        /// key twice, and small jobs give many lanes little or no work.
        #[test]
        fn two_phases_vote_like_the_feature_at_a_time_oracle(
            mut gallery in prop::collection::vec(features(), 0..14),
            probe in prop::collection::vec(features(), 0..4),
            repeats in prop::collection::vec(0usize..64, 0..12),
            bins_at in 0usize..3,
            job_features in 1usize..5,
            job_ids in 1usize..9,
        ) {
            if let Some(entry) = gallery.iter_mut().find(|fs| !fs.is_empty()) {
                entry.push(entry[0]);
            }
            let mut probe: Vec<PairFeature> = probe.into_iter().flatten().collect();
            if !probe.is_empty() {
                let again: Vec<PairFeature> = repeats.iter().map(|&r| probe[r % probe.len()]).collect();
                probe.extend(again);
            }
            let index = enrolled(0.5, [2, 3, 16][bins_at], &gallery);
            two_phases_equal_the_oracle(&index, &probe, job_features, job_ids);
        }
    }

    /// Runs both phases on 1, 2, 3 and 7 lanes, and the production pass,
    /// against [`BucketIndex::vote`].
    fn two_phases_equal_the_oracle(
        index: &BucketIndex,
        probe: &[PairFeature],
        job_features: usize,
        job_ids: usize,
    ) {
        let entries = index
            .table
            .ids
            .iter()
            .max()
            .map_or(0, |&id| id as usize + 1);
        let mut oracle = vec![0u32; entries];
        let oracle_hits = index.vote(probe, &mut oracle);
        for lanes in [1, 2, 3, 7] {
            let mut votes = vec![0u32; entries];
            let weights = index.reach(probe, lanes, job_features);
            let hits = index.stream(&weights, &mut votes, lanes, job_ids);
            assert_eq!((&votes, hits), (&oracle, oracle_hits), "{lanes} lanes");
            let mut votes = vec![0u32; entries];
            let hits = index.accumulate(probe, &mut votes, lanes);
            assert_eq!(
                (&votes, hits),
                (&oracle, oracle_hits),
                "accumulate, {lanes} lanes"
            );
        }
    }

    #[test]
    fn empty_probes_empty_tables_and_spare_lanes_vote_like_the_oracle() {
        let f = feature(2.0, 0.5, -0.5);
        let empty = enrolled(0.5, 16, &[]);
        let one = enrolled(0.5, 16, &[vec![f]]);
        two_phases_equal_the_oracle(&empty, &[], 1, 1);
        two_phases_equal_the_oracle(&empty, &[f, f], 1, 1);
        two_phases_equal_the_oracle(&one, &[], 1, 1);
        // One bucket reached by every feature: seven lanes share one
        // stream job, and up to seven reach jobs add into its weight.
        two_phases_equal_the_oracle(&one, &[f; 9], 1, 1);
        two_phases_equal_the_oracle(&one, &[f; 9], 2, 4);
    }
}
