//! The deterministic latency histogram's algebraic contract: merging is
//! an exact element-wise bucket sum, so it must be associative and
//! commutative, and any partition of a sample stream across histograms
//! must merge back to the histogram of the whole stream — the property
//! that makes per-core (and per-shard) accumulation order irrelevant to
//! every reported percentile. A histogram that never recorded (it holds
//! no buckets yet) is the identity of that sum.

use proptest::prelude::*;

use sabre_sim::LatencyHistogram;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h
}

fn fingerprint(h: &LatencyHistogram) -> (u64, String, Vec<Option<u64>>) {
    (
        h.count(),
        h.dump(),
        vec![h.p50(), h.p99(), h.p999(), h.min_ns(), h.max_ns()],
    )
}

proptest! {
    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..2_000_000, 0..100),
        b in proptest::collection::vec(0u64..2_000_000, 0..100),
        c in proptest::collection::vec(0u64..2_000_000, 0..100),
    ) {
        // (a ∪ b) ∪ c
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        // a ∪ (b ∪ c)
        let mut right_tail = hist_of(&b);
        right_tail.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&right_tail);
        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
        // c ∪ b ∪ a
        let mut rev = hist_of(&c);
        rev.merge(&hist_of(&b));
        rev.merge(&hist_of(&a));
        prop_assert_eq!(fingerprint(&left), fingerprint(&rev));
    }

    #[test]
    fn any_partition_merges_to_the_whole(
        samples in proptest::collection::vec(0u64..10_000_000, 1..200),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        // Split the stream at two arbitrary points — the three parts are
        // "cores"; merging them must reproduce recording everything into
        // one histogram, bucket for bucket.
        let whole = hist_of(&samples);
        let (lo, hi) = {
            let a = cut_a % (samples.len() + 1);
            let b = cut_b % (samples.len() + 1);
            (a.min(b), a.max(b))
        };
        let mut merged = hist_of(&samples[..lo]);
        merged.merge(&hist_of(&samples[lo..hi]));
        merged.merge(&hist_of(&samples[hi..]));
        prop_assert_eq!(fingerprint(&whole), fingerprint(&merged));
    }

    #[test]
    fn never_recorded_parts_merge_to_the_whole(
        samples in proptest::collection::vec(0u64..10_000_000, 0..200),
        cut in any::<usize>(),
        empties in 0usize..4,
    ) {
        // Cores that never record sit between the ones that do: the
        // reduction starts from one and meets more on the way, and the
        // result is the histogram of the whole stream, field for field.
        let whole = hist_of(&samples);
        let cut = cut % (samples.len() + 1);
        let mut merged = LatencyHistogram::new();
        for part in [&samples[..cut], &samples[cut..]] {
            for _ in 0..empties {
                merged.merge(&LatencyHistogram::new());
            }
            merged.merge(&hist_of(part));
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(fingerprint(&merged), fingerprint(&whole));
        let mut into_whole = whole.clone();
        into_whole.merge(&LatencyHistogram::new());
        prop_assert_eq!(&into_whole, &whole);
    }

    #[test]
    fn quantiles_respect_the_resolution_bound(
        samples in proptest::collection::vec(1u64..100_000_000, 1..100),
        q in 0.0f64..1.0,
    ) {
        // Every reported quantile is the upper edge of a bucket that
        // actually contains samples, clamped to the true max: never more
        // than 6.25% above a recorded value, never below the minimum.
        let h = hist_of(&samples);
        let v = h.quantile(q).unwrap();
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        prop_assert!(v <= max, "quantile {v} above true max {max}");
        prop_assert!(v >= min, "quantile {v} below true min {min}");
        let covered = samples.iter().any(|&s| s <= v && v as f64 <= s as f64 * 1.0625);
        prop_assert!(covered, "quantile {v} not within 6.25% above any sample");
    }
}

#[test]
fn a_never_recorded_histogram_dumps_nothing() {
    let h = LatencyHistogram::new();
    assert_eq!(h.dump(), "");
    assert_eq!(h, LatencyHistogram::default());
    assert_eq!(fingerprint(&h), (0, String::new(), vec![None; 5]));
}
