//! The pair-table geometric-hash bucket index.
//!
//! Every gallery template registers each of its pair-table entries under a
//! quantized `(distance, beta1, beta2)` key — the same rotation- and
//! translation-invariant features the pair-table matcher associates on. A
//! probe then votes: each of its own entries looks up the neighbourhood of
//! its key (±1 bin per dimension, so quantization boundaries cannot split a
//! genuine pair from its mate) and every gallery template found there gains
//! one vote. Genuine gallery entries share many compatible pairs with the
//! probe and accumulate deep vote counts; impostors only collect accidental
//! geometry.
//!
//! The table has two physical representations with identical lookup
//! behavior. A *map* (hash table) serves incremental enrollment. A *flat*
//! form — sorted keys, bucket offsets, one contiguous id array, exactly the
//! shape `fp-store` persists — serves galleries opened from disk: building
//! it is three bulk array moves instead of a million hash inserts, which is
//! what keeps segment open time in milliseconds. Lookups are key-exact in
//! both forms (hash probe vs. binary search), so votes accumulate
//! bit-identically; the first post-open `BucketIndex::insert`
//! thaws a flat table back into a map.

use std::collections::HashMap;

use fp_match::PairFeature;

/// The flat persisted form of a bucket table: `keys` sorted strictly
/// ascending, bucket `k` owning `ids[offsets[k]..offsets[k + 1]]`
/// (`offsets.len() == keys.len() + 1`). This is byte-for-byte the shape
/// `fp-store` reads out of a segment's BUCKETS section.
#[derive(Debug, Clone, Default)]
pub struct FlatBuckets {
    /// Bucket keys, strictly ascending.
    pub keys: Vec<u64>,
    /// Prefix offsets into `ids`, one per key plus a trailing total.
    pub offsets: Vec<usize>,
    /// Every bucket's gallery ids, concatenated in key order.
    pub ids: Vec<u32>,
}

impl FlatBuckets {
    /// Flattens `(key, ids)` buckets that are already sorted by key
    /// ascending — the order [`iter`](Self::iter) yields and
    /// `CandidateIndex::store_buckets` dumps.
    pub fn from_sorted_parts(parts: impl IntoIterator<Item = (u64, Vec<u32>)>) -> FlatBuckets {
        let mut flat = FlatBuckets::default();
        flat.offsets.push(0);
        for (key, ids) in parts {
            flat.keys.push(key);
            flat.ids.extend_from_slice(&ids);
            flat.offsets.push(flat.ids.len());
        }
        flat
    }

    /// Every bucket as `(key, ids)`, key ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        self.keys
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&key, span)| (key, &self.ids[span[0]..span[1]]))
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Map(HashMap<u64, Vec<u32>>),
    Flat(FlatBuckets),
}

/// Bucket index from quantized pair features to the gallery ids that own
/// them.
#[derive(Debug, Clone)]
pub(crate) struct BucketIndex {
    repr: Repr,
    distance_bin: f64,
    angle_bins: usize,
}

impl BucketIndex {
    pub(crate) fn new(distance_bin: f64, angle_bins: usize) -> BucketIndex {
        assert!(distance_bin > 0.0, "distance bin must be positive");
        assert!(angle_bins >= 2, "need at least two angular bins");
        BucketIndex {
            repr: Repr::Map(HashMap::new()),
            distance_bin,
            angle_bins,
        }
    }

    /// Number of occupied buckets.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match &self.repr {
            Repr::Map(map) => map.len(),
            Repr::Flat(flat) => flat.keys.len(),
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
        // Distances are bounded by the pair-table max (~12 mm / bin width),
        // angles by angle_bins; 21 bits per dimension is far more than
        // enough and keeps the key a cheap single u64.
        debug_assert!(d_bin >= 0 && (b1_bin as u64) < (1 << 21) && (b2_bin as u64) < (1 << 21));
        ((d_bin as u64) << 42) | ((b1_bin as u64) << 21) | b2_bin as u64
    }

    /// The ids registered under exactly `key`, in either representation.
    fn bucket(&self, key: u64) -> Option<&[u32]> {
        match &self.repr {
            Repr::Map(map) => map.get(&key).map(Vec::as_slice),
            Repr::Flat(flat) => flat
                .keys
                .binary_search(&key)
                .ok()
                .map(|k| &flat.ids[flat.offsets[k]..flat.offsets[k + 1]]),
        }
    }

    /// Dumps every bucket as `(key, ids)` sorted by key ascending, ids in
    /// insertion order (ascending gallery id, duplicates adjacent when one
    /// entry registered the same key twice). The canonical persistence
    /// order: dumping, re-loading via [`FlatBuckets::from_sorted_parts`]
    /// and dumping again yields identical bytes.
    pub(crate) fn dump_sorted(&self) -> Vec<(u64, Vec<u32>)> {
        match &self.repr {
            Repr::Map(map) => {
                let mut out: Vec<(u64, Vec<u32>)> =
                    map.iter().map(|(&key, ids)| (key, ids.clone())).collect();
                out.sort_unstable_by_key(|(key, _)| *key);
                out
            }
            Repr::Flat(flat) => flat.iter().map(|(key, ids)| (key, ids.to_vec())).collect(),
        }
    }

    /// Adopts an already-flat bucket table (the zero-shuffle open path:
    /// `fp-store` decodes a segment's BUCKETS section straight into this
    /// shape). The caller (the single boundary is
    /// `CandidateIndex::from_store_parts`) has already validated ids
    /// against the gallery length, keys as strictly ascending, and the
    /// `(distance_bin, angle_bins)` pair against [`new`](Self::new)'s
    /// requirements. Lookup behavior is key-exact and per-bucket id order
    /// is preserved, so the rebuilt index accumulates votes bit-identically
    /// to one grown by [`insert`](Self::insert) calls.
    pub(crate) fn from_flat_parts(
        distance_bin: f64,
        angle_bins: usize,
        flat: FlatBuckets,
    ) -> BucketIndex {
        debug_assert_eq!(flat.offsets.len(), flat.keys.len() + 1);
        debug_assert!(flat.keys.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(flat.offsets.last().copied().unwrap_or(0), flat.ids.len());
        let mut index = BucketIndex::new(distance_bin, angle_bins);
        index.repr = Repr::Flat(flat);
        index
    }

    /// Registers the pair features of gallery template `id`. A flat
    /// (opened-from-disk) table is thawed into a map first; bucket id
    /// order is preserved, so post-open enrollment behaves exactly as if
    /// the whole gallery had been enrolled incrementally.
    pub(crate) fn insert(&mut self, id: u32, features: impl Iterator<Item = PairFeature>) {
        if let Repr::Flat(flat) = &self.repr {
            self.repr = Repr::Map(flat.iter().map(|(key, ids)| (key, ids.to_vec())).collect());
        }
        for f in features {
            let key = self.key(
                (f.d / self.distance_bin).floor() as i64,
                self.angle_bin(f.beta1),
                self.angle_bin(f.beta2),
            );
            let Repr::Map(map) = &mut self.repr else {
                unreachable!("flat tables are thawed above");
            };
            map.entry(key).or_default().push(id);
        }
    }

    /// Accumulates one vote into `votes[id]` for every gallery entry found
    /// in the ±1-bin neighbourhood of each probe feature. Each distinct
    /// bucket key is visited at most once per probe feature (the angular
    /// neighbourhoods are deduplicated, so tiny `angle_bins` cannot wrap a
    /// feature back onto a key it already voted through). Returns the
    /// number of bucket hits (vote increments) performed.
    pub(crate) fn accumulate(
        &self,
        features: impl Iterator<Item = PairFeature>,
        votes: &mut [u32],
    ) -> u64 {
        let mut hits = 0u64;
        for f in features {
            let d_bin = (f.d / self.distance_bin).floor() as i64;
            let (b1s, n1) = self.angle_neighbourhood(self.angle_bin(f.beta1));
            let (b2s, n2) = self.angle_neighbourhood(self.angle_bin(f.beta2));
            // The distance offsets are distinct integers, so only the
            // angular dimensions can collide.
            for dd in -1..=1i64 {
                let d = d_bin + dd;
                if d < 0 {
                    continue;
                }
                for &b1 in &b1s[..n1] {
                    for &b2 in &b2s[..n2] {
                        if let Some(bucket) = self.bucket(self.key(d, b1, b2)) {
                            hits += bucket.len() as u64;
                            for &id in bucket {
                                votes[id as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature(d: f64, beta1: f64, beta2: f64) -> PairFeature {
        PairFeature { d, beta1, beta2 }
    }

    #[test]
    fn identical_features_vote_for_their_owner() {
        let mut index = BucketIndex::new(0.5, 16);
        index.insert(0, [feature(4.2, 0.3, -1.1)].into_iter());
        index.insert(1, [feature(9.0, 2.0, 2.5)].into_iter());
        let mut votes = vec![0u32; 2];
        let hits = index.accumulate([feature(4.2, 0.3, -1.1)].into_iter(), &mut votes);
        assert_eq!(votes[0], 1);
        assert_eq!(votes[1], 0);
        assert_eq!(hits, 1);
    }

    #[test]
    fn near_boundary_features_still_match_via_neighbourhood() {
        let mut index = BucketIndex::new(0.5, 16);
        index.insert(0, [feature(4.49, 0.0, 0.0)].into_iter());
        let mut votes = vec![0u32; 1];
        // One distance bin over and slightly rotated: the ±1 neighbourhood
        // still reaches the registered bucket.
        index.accumulate([feature(4.51, 0.1, -0.1)].into_iter(), &mut votes);
        assert_eq!(votes[0], 1);
    }

    #[test]
    fn angle_bins_wrap_around_pi() {
        let mut index = BucketIndex::new(0.5, 16);
        let pi = std::f64::consts::PI;
        index.insert(0, [feature(6.0, pi - 0.01, 0.0)].into_iter());
        let mut votes = vec![0u32; 1];
        // Just across the ±pi seam: wrapping neighbourhood must find it.
        index.accumulate([feature(6.0, -pi + 0.01, 0.0)].into_iter(), &mut votes);
        assert_eq!(votes[0], 1);
    }

    #[test]
    fn two_angle_bins_do_not_double_count_the_wrapped_neighbour() {
        // With angle_bins = 2 the ±1 angular offsets wrap onto the same
        // bin (`bin - 1 ≡ bin + 1 mod 2`), so before deduplication a probe
        // feature visited the opposite-bin bucket 2x per angular dimension
        // (4x combined) and double-counted votes and bucket_hits.
        let pi = std::f64::consts::PI;
        let mut index = BucketIndex::new(0.5, 2);
        // beta = +pi/2 lands in bin 1 on both angles; the probe below (bin
        // 0 on both) reaches it only through the wrapping neighbourhood.
        index.insert(0, [feature(5.0, pi / 2.0, pi / 2.0)].into_iter());
        let mut votes = vec![0u32; 1];
        let hits = index.accumulate([feature(5.0, -pi / 2.0, -pi / 2.0)].into_iter(), &mut votes);
        assert_eq!(votes[0], 1, "wrapped neighbour must be visited once");
        assert_eq!(hits, 1, "bucket_hits must match the deduped visits");

        // A same-bin probe also votes exactly once.
        let mut votes = vec![0u32; 1];
        let hits = index.accumulate([feature(5.0, pi / 2.0, pi / 2.0)].into_iter(), &mut votes);
        assert_eq!(votes[0], 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn three_angle_bins_visit_every_bucket_exactly_once() {
        // angle_bins = 3: the ±1 neighbourhood spans all three bins, each
        // exactly once — any same-distance feature gets exactly one vote
        // per probe feature, never two.
        let tau = std::f64::consts::TAU;
        let mut index = BucketIndex::new(0.5, 3);
        for (id, frac) in [(0u32, 0.1), (1, 0.45), (2, 0.8)] {
            let beta = frac * tau - std::f64::consts::PI;
            index.insert(id, [feature(5.0, beta, beta)].into_iter());
        }
        let mut votes = vec![0u32; 3];
        let probe_beta = 0.45 * tau - std::f64::consts::PI;
        let hits = index.accumulate(
            [feature(5.0, probe_beta, probe_beta)].into_iter(),
            &mut votes,
        );
        assert_eq!(votes, vec![1, 1, 1], "one vote per reachable entry");
        assert_eq!(hits, 3);
    }

    #[test]
    fn far_features_do_not_vote() {
        let mut index = BucketIndex::new(0.5, 16);
        index.insert(0, [feature(3.0, 0.0, 0.0)].into_iter());
        let mut votes = vec![0u32; 1];
        index.accumulate([feature(8.0, 2.0, -2.0)].into_iter(), &mut votes);
        assert_eq!(votes[0], 0);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn flat_and_map_representations_vote_identically() {
        let tau = std::f64::consts::TAU;
        let mut grown = BucketIndex::new(0.5, 16);
        for id in 0..20u32 {
            let fs: Vec<PairFeature> = (0..6)
                .map(|k| {
                    let a =
                        ((id as f64 * 0.37 + k as f64 * 0.11) % 1.0) * tau - std::f64::consts::PI;
                    feature(2.0 + (id as f64 * 0.63 + k as f64) % 9.0, a, -a * 0.5)
                })
                .collect();
            grown.insert(id, fs.into_iter());
        }
        let flat = BucketIndex::from_flat_parts(
            0.5,
            16,
            FlatBuckets::from_sorted_parts(grown.dump_sorted()),
        );
        assert!(matches!(flat.repr, Repr::Flat(_)));
        assert_eq!(grown.dump_sorted(), flat.dump_sorted());

        let probes: Vec<PairFeature> = (0..10)
            .map(|k| {
                feature(
                    2.5 + k as f64 * 0.8,
                    k as f64 * 0.3 - 1.5,
                    1.2 - k as f64 * 0.2,
                )
            })
            .collect();
        let mut votes_map = vec![0u32; 20];
        let mut votes_flat = vec![0u32; 20];
        let hits_map = grown.accumulate(probes.iter().copied(), &mut votes_map);
        let hits_flat = flat.accumulate(probes.iter().copied(), &mut votes_flat);
        assert_eq!(votes_map, votes_flat);
        assert_eq!(hits_map, hits_flat);

        // Thaw: inserting into the flat table matches inserting into the
        // grown map, buckets and all.
        let mut thawed = flat.clone();
        let extra = [feature(4.0, 0.25, -0.75)];
        thawed.insert(20, extra.iter().copied());
        let mut also_grown = grown.clone();
        also_grown.insert(20, extra.iter().copied());
        assert_eq!(thawed.dump_sorted(), also_grown.dump_sorted());
    }
}
