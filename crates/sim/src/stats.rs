//! Measurement primitives used by the experiment harness.

use crate::time::Time;

/// Running mean / min / max of a stream of samples (Welford-free: the
/// experiments only need mean and extremes, so a simple sum suffices).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanTracker {
    sum: f64,
    n: u64,
    min: f64,
    max: f64,
}

impl MeanTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        MeanTracker::default()
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.sum += x;
        self.n += 1;
    }

    /// Records a [`Time`] sample in nanoseconds.
    pub fn record_time(&mut self, t: Time) {
        self.record(t.as_ns());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Adds `other`'s samples: counts and sums add, extremes widen. The
    /// float sum makes the result depend on merge order, so aggregates
    /// merge in a fixed order to stay reproducible.
    pub fn merge(&mut self, other: &MeanTracker) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        self.sum += other.sum;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A deterministic HDR-style log-linear histogram of integer nanosecond
/// latencies, built for tail reporting that must stay **bit-identical**
/// across execution knobs (event-loop shard count, worker-thread count).
///
/// Unlike a [`MeanTracker`] (whose float sum depends on merge order),
/// every field here is an exact integer, and
/// [`LatencyHistogram::merge`] is plain element-wise `u64` addition —
/// associative and commutative — so per-core histograms can be reduced in
/// any grouping (window barriers, node aggregation, whole-rack reports)
/// and always produce the same bucket counts.
///
/// # Resolution guarantees
///
/// The bucket scheme is fixed (no auto-resizing, so two histograms always
/// share the same bucket boundaries):
///
/// * values below 16 ns get one bucket per nanosecond (**exact**);
/// * every power-of-two octave `[2^k, 2^(k+1))` above that is split into
///   16 linear sub-buckets of width `2^(k-4)`, so a reported quantile is
///   at most one sub-bucket away from the true sample: **≤ 1/16 = 6.25 %
///   relative error**, at every magnitude up to `2^40` ns (≈ 18 minutes);
/// * values at or above `2^40` ns clamp into the last bucket (no latency
///   in these simulations gets anywhere close).
///
/// Quantiles return the **upper edge** of the bucket holding the rank
/// (clamped to the true maximum), so `p99()` never under-reports a tail
/// and identical bucket counts always yield identical quantiles.
///
/// # Example
///
/// ```
/// use sabre_sim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in 1..=1000u64 {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 1000);
/// let p99 = h.quantile(0.99).unwrap();
/// assert!(p99 >= 990 && p99 <= 1000 + 1000 / 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts, empty exactly while `count == 0` (the first
    /// sample allocates them): a core that never records holds no bucket
    /// array, and the derived `==` still compares bucket counts.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    min_ns: u64,
}

/// Linear sub-buckets per octave (and the size of the exact sub-16ns
/// region).
const SUB: usize = 16;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 4;
/// Highest octave: values reaching `2^LAST_OCTAVE` ns clamp.
const LAST_OCTAVE: u32 = 40;
/// Bucket count: the exact `[0, 16)` region plus 16 sub-buckets for each
/// octave `[2^4, 2^40)`.
const LAT_BUCKETS: usize = SUB + (LAST_OCTAVE as usize - SUB_BITS as usize) * SUB;

impl LatencyHistogram {
    /// Creates an empty histogram; it allocates its buckets on the first
    /// [`record`](LatencyHistogram::record).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn index_of(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        if octave >= LAST_OCTAVE {
            return LAT_BUCKETS - 1;
        }
        let sub = ((ns - (1u64 << octave)) >> (octave - SUB_BITS)) as usize;
        SUB + (octave - SUB_BITS) as usize * SUB + sub
    }

    /// The inclusive lower edge of bucket `index`, in ns.
    fn bucket_lower(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let octave = SUB_BITS + ((index - SUB) / SUB) as u32;
        let sub = ((index - SUB) % SUB) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - SUB_BITS))
    }

    /// The inclusive upper edge of bucket `index`, in ns.
    fn bucket_upper(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        if index == LAT_BUCKETS - 1 {
            return u64::MAX;
        }
        Self::bucket_lower(index + 1) - 1
    }

    /// Records one latency sample in integer nanoseconds.
    pub fn record(&mut self, ns: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; LAT_BUCKETS];
        }
        self.buckets[Self::index_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Records a [`Time`] sample, truncated to whole nanoseconds.
    pub fn record_time(&mut self, t: Time) {
        self.record(t.as_ps() / 1_000);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in ns (saturating at `u64::MAX`; exact for any
    /// realistic latency stream).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact maximum sample, or `None` if empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Exact minimum sample, or `None` if empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Quantile `q` in `[0, 1]` as the upper edge of the bucket holding
    /// that rank, clamped to the exact maximum; `None` when empty. The
    /// result is a deterministic function of the bucket counts (see the
    /// type-level resolution guarantees).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max_ns));
            }
        }
        Some(self.max_ns)
    }

    /// Median (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Merges `other` into `self` by element-wise bucket addition — exact,
    /// associative and commutative, so any reduction grouping produces
    /// identical results.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.is_empty() {
            self.buckets.clone_from(&other.buckets);
        } else {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Renders every non-empty bucket as `lower..=upper  count` lines —
    /// the raw distribution behind the percentile summary, for experiment
    /// debugging and golden-style dumps.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                let upper = Self::bucket_upper(i).min(self.max_ns);
                writeln!(out, "{:>12}..={:<12} {}", Self::bucket_lower(i), upper, b)
                    .expect("write to String");
            }
        }
        out
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Exact, mergeable hop and queue accounting for fabric traffic — the
/// [`LatencyHistogram`] streaming pattern (integer fields only, merge by
/// element-wise addition, associative and commutative) applied to the
/// per-packet counters a datacenter-scale run can no longer afford to
/// keep per event. Sources accumulate into their own `HopStats` as they
/// send; any reduction grouping (per node, per shard, whole fabric)
/// produces bit-identical totals.
///
/// # Example
///
/// ```
/// use sabre_sim::HopStats;
///
/// let mut a = HopStats::default();
/// a.record(3, false);
/// let mut b = HopStats::default();
/// b.record(5, true);
/// a.merge(&b);
/// assert_eq!(a.packets, 2);
/// assert_eq!(a.mean_hops(), 4.0);
/// assert_eq!(a.spine_share(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopStats {
    /// Packets sent.
    pub packets: u64,
    /// Hops traversed by those packets, including queueing penalty hops.
    pub hops: u64,
    /// Packets that exceeded their leaf uplink's per-window budget.
    pub uplink_queued: u64,
    /// Packets that traversed an inter-rack spine.
    pub spine_crossings: u64,
    /// Packets that exceeded the spine bundle's per-window budget.
    pub spine_queued: u64,
}

impl HopStats {
    /// Records one sent packet that routed over `hops` hops,
    /// `crossed_spine` marking an inter-rack traversal. (Queueing counters
    /// are bumped directly by whoever models the queues.)
    pub fn record(&mut self, hops: u64, crossed_spine: bool) {
        self.packets += 1;
        self.hops += hops;
        if crossed_spine {
            self.spine_crossings += 1;
        }
    }

    /// Merges `other` into `self` by plain addition — exact, associative
    /// and commutative, so any reduction grouping produces identical
    /// results.
    pub fn merge(&mut self, other: &HopStats) {
        self.packets += other.packets;
        self.hops += other.hops;
        self.uplink_queued += other.uplink_queued;
        self.spine_crossings += other.spine_crossings;
        self.spine_queued += other.spine_queued;
    }

    /// Mean hops per packet (0 when nothing was sent).
    pub fn mean_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hops as f64 / self.packets as f64
        }
    }

    /// Fraction of packets that crossed an inter-rack spine (0 when
    /// nothing was sent) — the cross-spine hop share the datacenter
    /// experiments report.
    pub fn spine_share(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.spine_crossings as f64 / self.packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_tracker_basic() {
        let mut m = MeanTracker::new();
        assert_eq!(m.mean(), None);
        m.record(1.0);
        m.record(3.0);
        assert_eq!(m.mean(), Some(2.0));
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert_eq!(m.count(), 2);
        m.record_time(Time::from_ns(8));
        assert_eq!(m.max(), Some(8.0));
    }

    #[test]
    fn mean_tracker_merge_matches_recording_everything() {
        let mut a = MeanTracker::new();
        let mut b = MeanTracker::new();
        let mut all = MeanTracker::new();
        for x in [4.0, 1.0] {
            a.record(x);
            all.record(x);
        }
        for x in [9.0, 2.0, 5.0] {
            b.record(x);
            all.record(x);
        }
        let mut merged = MeanTracker::new();
        merged.merge(&a);
        merged.merge(&MeanTracker::new());
        merged.merge(&b);
        assert_eq!(merged, all);
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(9.0));
    }

    #[test]
    fn latency_histogram_is_exact_below_sixteen() {
        let mut h = LatencyHistogram::new();
        for ns in 0..16u64 {
            h.record(ns);
        }
        for q in [0.1, 0.5, 0.9] {
            let v = h.quantile(q).unwrap();
            let rank = (q * 16.0).ceil() as u64;
            assert_eq!(v, rank - 1, "q={q}");
        }
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(15));
        assert_eq!(h.sum_ns(), (0..16).sum::<u64>());
    }

    #[test]
    fn latency_histogram_resolution_bound() {
        // Every sample's reported p100 bucket edge is within 1/16 of the
        // true value, at several magnitudes.
        for ns in [17u64, 1000, 65_537, 1 << 30, (1 << 35) + 12345] {
            let mut h = LatencyHistogram::new();
            h.record(ns);
            let q = h.quantile(0.5).unwrap();
            assert!(q >= ns, "upper edge must not under-report");
            assert!(
                q == ns,
                "single sample clamps to the exact max, got {q} for {ns}"
            );
            // Without the max clamp the bucket edge is still within 6.25%.
            let mut h2 = LatencyHistogram::new();
            h2.record(ns);
            h2.record(ns * 2); // push the max away
            let q = h2.quantile(0.5).unwrap();
            assert!(
                q >= ns && (q - ns) as f64 <= ns as f64 / 16.0,
                "{q} vs {ns}"
            );
        }
    }

    #[test]
    fn latency_histogram_merge_is_exact() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 5000;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // And the other order.
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, all);
    }

    #[test]
    fn latency_histogram_huge_values_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1 << 50);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn latency_histogram_empty_and_dump() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.p50(), None);
        assert!(h.dump().is_empty());
        let mut h = LatencyHistogram::new();
        h.record_time(Time::from_ns(250));
        h.record_time(Time::from_ps(1_500)); // truncates to 1 ns
        let dump = h.dump();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("250"));
        assert_eq!(h.p999(), Some(250));
    }

    #[test]
    fn hop_stats_merge_is_exact_and_commutative() {
        let mut all = HopStats::default();
        let mut a = HopStats::default();
        let mut b = HopStats::default();
        for i in 0..100u64 {
            let hops = 1 + i % 5;
            let spine = hops == 5;
            all.record(hops, spine);
            let side = if i % 2 == 0 { &mut a } else { &mut b };
            side.record(hops, spine);
            if i % 7 == 0 {
                all.uplink_queued += 1;
                side.uplink_queued += 1;
            }
            if i % 13 == 0 {
                all.spine_queued += 1;
                side.spine_queued += 1;
            }
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, all);
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, all);
        assert_eq!(all.packets, 100);
        assert_eq!(all.spine_crossings, 20);
        assert_eq!(all.spine_share(), 0.2);
        assert_eq!(all.mean_hops(), 3.0);
        assert_eq!(HopStats::default().mean_hops(), 0.0);
        assert_eq!(HopStats::default().spine_share(), 0.0);
    }
}
