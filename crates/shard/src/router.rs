//! Key-range shard routing: [`ShardRouter`] lives beside the books in
//! [`deco_serve::cache`], which route every key with it; it is
//! re-exported here, and these tests pin the range properties the
//! sharded tiers' byte-identity rests on.

pub use deco_serve::cache::ShardRouter;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_owns_everything() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 0);
        assert_eq!(r.range_of(0), (0, None));
    }

    #[test]
    fn ranges_are_contiguous_and_exhaustive() {
        for n in [2usize, 3, 4, 7, 16] {
            let r = ShardRouter::new(n);
            let mut prev_end = 0u64;
            for i in 0..n {
                let (start, end) = r.range_of(i);
                assert_eq!(
                    start, prev_end,
                    "shard {i} of {n} must abut its left neighbor"
                );
                // Boundary keys route to the range that claims them.
                assert_eq!(r.shard_of(start), i);
                if let Some(end) = end {
                    assert_eq!(r.shard_of(end - 1), i);
                    assert_eq!(r.shard_of(end), i + 1);
                    prev_end = end;
                } else {
                    assert_eq!(i, n - 1);
                    assert_eq!(r.shard_of(u64::MAX), i);
                }
            }
        }
    }

    #[test]
    fn contiguous_ranges_preserve_global_key_order() {
        // Walking shards in index order and keys within each shard in
        // ascending order visits keys in globally ascending order — the
        // property the merge layer's byte-identity rests on.
        let r = ShardRouter::new(4);
        let keys: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for &k in &keys {
            by_shard[r.shard_of(k)].push(k);
        }
        let mut walked: Vec<u64> = Vec::new();
        for part in &mut by_shard {
            part.sort_unstable();
            walked.extend_from_slice(part);
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(walked, sorted);
    }

    #[test]
    fn load_splits_evenly_for_uniform_keys() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[r.shard_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "uniform keys should split evenly: {counts:?}"
            );
        }
    }
}
