//! Per-core measurement plumbing for the experiment harness.

use sabre_sim::{LatencyHistogram, MeanTracker, Time};

/// Latency components the paper's breakdowns distinguish (Figs. 1 and 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The soNUMA transfer itself (WQ entry to CQ entry).
    Transfer,
    /// Framework code: lookup, buffer management, bookkeeping.
    Framework,
    /// Application code consuming the (clean) object.
    App,
    /// Software atomicity check + version stripping (baseline only).
    Strip,
}

impl Phase {
    /// All phases, in presentation order.
    pub const ALL: [Phase; 4] = [Phase::Transfer, Phase::Framework, Phase::App, Phase::Strip];

    fn index(self) -> usize {
        match self {
            Phase::Transfer => 0,
            Phase::Framework => 1,
            Phase::App => 2,
            Phase::Strip => 3,
        }
    }
}

/// Metrics one core's workload accumulates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreMetrics {
    /// Successful (atomic, validated) operations.
    pub ops: u64,
    /// Clean payload bytes delivered by successful operations.
    pub bytes: u64,
    /// Operations retried after an atomicity failure.
    pub retries: u64,
    /// End-to-end latency of successful operations (ns): the float mean
    /// the mean-latency tables read. [`CoreMetrics::merge`] adds its float
    /// sum, so an aggregate is reproducible only in a fixed merge order;
    /// [`CoreMetrics::latency_hist`] merges exactly in any order.
    pub latency: MeanTracker,
    /// Deterministic integer latency histogram of the same successes —
    /// u64 ns bucket counts with an exact merge, so tail percentiles are
    /// bit-identical at every shard × thread setting. See
    /// [`LatencyHistogram`] for the resolution guarantees.
    pub latency_hist: LatencyHistogram,
    /// Open-loop arrivals that fired while the previous operation was
    /// still in flight (queue buildup; closed-loop workloads keep it 0).
    pub queued_arrivals: u64,
    /// Deepest arrival backlog observed (operations waiting to start).
    pub peak_backlog: u64,
    /// Operations re-issued at another replica after a failover timeout
    /// fired (replicated readers only; see
    /// [`WorkloadSpec::replicas`](crate::WorkloadSpec::replicas)).
    pub failovers: u64,
    /// Times the reader migrated its preferred replica binding — to a
    /// fallback after the bound replica died, back to a nearer replica
    /// once a probe found it live again, or away from a congested replica
    /// under load-triggered re-placement.
    pub migrations: u64,
    /// Catch-up pulls issued by a recovering writer (one per round of
    /// pulling a peer's write-log region).
    pub catch_up_ops: u64,
    /// Missed writes replayed through the deterministic update path
    /// during catch-up.
    pub replays_applied: u64,
    /// Reads refused by a catching-up replica that this reader re-issued
    /// at the next replica.
    pub stale_refusals: u64,
    /// Total simulated time this core spent catching up — from the first
    /// pull after an outage until the replica rejoined the live set (the
    /// staleness window).
    pub catch_up_ns: u64,
    phases: [MeanTracker; 4],
}

impl CoreMetrics {
    /// Records one successful operation.
    pub fn record_success(&mut self, bytes: u64, latency: Time) {
        self.ops += 1;
        self.bytes += bytes;
        self.latency.record_time(latency);
        self.latency_hist.record_time(latency);
    }

    /// Records one atomicity-failure retry.
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Records an arrival that had to queue behind `depth` already-waiting
    /// operations (open-loop workloads).
    pub fn record_queued(&mut self, depth: u64) {
        self.queued_arrivals += 1;
        self.peak_backlog = self.peak_backlog.max(depth);
    }

    /// Records one failover: a timeout fired and the operation was
    /// re-issued at the next replica.
    pub fn record_failover(&mut self) {
        self.failovers += 1;
    }

    /// Records one replica-binding migration.
    pub fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// Records one catch-up pull round.
    pub fn record_catch_up(&mut self) {
        self.catch_up_ops += 1;
    }

    /// Records one missed write replayed during catch-up.
    pub fn record_replay(&mut self) {
        self.replays_applied += 1;
    }

    /// Records one refused read (the bound replica was catching up).
    pub fn record_stale_refusal(&mut self) {
        self.stale_refusals += 1;
    }

    /// Accumulates time spent catching up (the staleness window).
    pub fn record_catch_up_window(&mut self, window: Time) {
        self.catch_up_ns += window.as_ns() as u64;
    }

    /// Median end-to-end latency in whole ns (deterministic bucket edge).
    pub fn p50_ns(&self) -> Option<u64> {
        self.latency_hist.p50()
    }

    /// 99th-percentile end-to-end latency in whole ns.
    pub fn p99_ns(&self) -> Option<u64> {
        self.latency_hist.p99()
    }

    /// 99.9th-percentile end-to-end latency in whole ns.
    pub fn p999_ns(&self) -> Option<u64> {
        self.latency_hist.p999()
    }

    /// Records the duration of one latency component.
    pub fn record_phase(&mut self, phase: Phase, t: Time) {
        self.phases[phase.index()].record_time(t);
    }

    /// Mean duration of a phase in ns, if sampled.
    pub fn phase_mean_ns(&self, phase: Phase) -> Option<f64> {
        self.phases[phase.index()].mean()
    }

    /// Goodput over `[0, horizon]` in GB/s.
    pub fn gbps(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        self.bytes as f64 / horizon.as_ns()
    }

    /// Abort rate: retries / (ops + retries).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.ops + self.retries;
        if attempts == 0 {
            0.0
        } else {
            self.retries as f64 / attempts as f64
        }
    }

    /// Resets every counter, histogram and phase tracker to the
    /// just-constructed state — the primitive behind warmup windows: run
    /// the warmup, reset, measure.
    pub fn reset(&mut self) {
        *self = CoreMetrics::default();
    }

    /// Merges another core's metrics into this one (aggregation).
    ///
    /// Counters add, [`CoreMetrics::latency_hist`] merges exactly
    /// (element-wise bucket addition), `queued_arrivals` adds and
    /// `peak_backlog` takes the max — all associative/commutative, so
    /// those fields are independent of merge grouping. The float
    /// `latency` mean and the phase means merge too
    /// ([`MeanTracker::merge`]); their float sums depend on the order, so
    /// aggregates merge cores in a fixed order (the report merges node by
    /// node, core by core).
    pub fn merge(&mut self, other: &CoreMetrics) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.retries += other.retries;
        self.latency.merge(&other.latency);
        self.latency_hist.merge(&other.latency_hist);
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        self.queued_arrivals += other.queued_arrivals;
        self.peak_backlog = self.peak_backlog.max(other.peak_backlog);
        self.failovers += other.failovers;
        self.migrations += other.migrations;
        self.catch_up_ops += other.catch_up_ops;
        self.replays_applied += other.replays_applied;
        self.stale_refusals += other.stale_refusals;
        self.catch_up_ns += other.catch_up_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_and_throughput() {
        let mut m = CoreMetrics::default();
        m.record_success(1000, Time::from_ns(100));
        m.record_success(1000, Time::from_ns(300));
        assert_eq!(m.ops, 2);
        assert_eq!(m.bytes, 2000);
        // 2000 B over 1 us = 2 GB/s.
        assert!((m.gbps(Time::from_us(1)) - 2.0).abs() < 1e-12);
        assert_eq!(m.latency.mean(), Some(200.0));
    }

    #[test]
    fn abort_rate() {
        let mut m = CoreMetrics::default();
        assert_eq!(m.abort_rate(), 0.0);
        m.record_success(64, Time::from_ns(1));
        m.record_retry();
        assert!((m.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phases_tracked_independently() {
        let mut m = CoreMetrics::default();
        m.record_phase(Phase::Transfer, Time::from_ns(100));
        m.record_phase(Phase::Strip, Time::from_ns(50));
        m.record_phase(Phase::Strip, Time::from_ns(150));
        assert_eq!(m.phase_mean_ns(Phase::Transfer), Some(100.0));
        assert_eq!(m.phase_mean_ns(Phase::Strip), Some(100.0));
        assert_eq!(m.phase_mean_ns(Phase::App), None);
    }

    #[test]
    fn reset_returns_to_default() {
        let mut m = CoreMetrics::default();
        m.record_success(1000, Time::from_ns(100));
        m.record_retry();
        m.record_phase(Phase::Strip, Time::from_ns(50));
        m.reset();
        assert_eq!(m.ops, 0);
        assert_eq!(m.bytes, 0);
        assert_eq!(m.retries, 0);
        assert_eq!(m.latency.mean(), None);
        assert_eq!(m.phase_mean_ns(Phase::Strip), None);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = CoreMetrics::default();
        let mut b = CoreMetrics::default();
        a.record_success(10, Time::from_ns(1));
        b.record_success(20, Time::from_ns(1));
        b.record_retry();
        a.merge(&b);
        assert_eq!(a.ops, 2);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.retries, 1);
    }

    #[test]
    fn merge_combines_means_and_phases() {
        let mut a = CoreMetrics::default();
        let mut b = CoreMetrics::default();
        a.record_success(10, Time::from_ns(100));
        a.record_phase(Phase::Transfer, Time::from_ns(40));
        b.record_success(10, Time::from_ns(300));
        b.record_success(10, Time::from_ns(500));
        b.record_phase(Phase::Strip, Time::from_ns(8));
        a.merge(&b);
        assert_eq!(a.latency.count(), 3);
        assert_eq!(a.latency.mean(), Some(300.0));
        assert_eq!(a.phase_mean_ns(Phase::Transfer), Some(40.0));
        assert_eq!(a.phase_mean_ns(Phase::Strip), Some(8.0));
        assert_eq!(a.phase_mean_ns(Phase::App), None);
    }

    #[test]
    fn merge_combines_latency_histograms_and_queueing() {
        let mut a = CoreMetrics::default();
        let mut b = CoreMetrics::default();
        a.record_success(10, Time::from_ns(100));
        a.record_queued(3);
        b.record_success(10, Time::from_ns(900));
        b.record_queued(1);
        b.record_queued(7);
        a.merge(&b);
        assert_eq!(a.latency_hist.count(), 2);
        assert_eq!(a.p999_ns(), Some(900));
        assert_eq!(a.queued_arrivals, 3);
        assert_eq!(a.peak_backlog, 7);
    }

    #[test]
    fn recovery_counters_record_and_merge() {
        let mut a = CoreMetrics::default();
        let mut b = CoreMetrics::default();
        a.record_catch_up();
        a.record_catch_up_window(Time::from_us(2));
        b.record_catch_up();
        for _ in 0..5 {
            a.record_replay();
        }
        for _ in 0..3 {
            b.record_replay();
        }
        b.record_stale_refusal();
        b.record_stale_refusal();
        a.merge(&b);
        assert_eq!(a.catch_up_ops, 2);
        assert_eq!(a.replays_applied, 8);
        assert_eq!(a.stale_refusals, 2);
        assert_eq!(a.catch_up_ns, 2000);
        a.reset();
        assert_eq!(a.catch_up_ops, 0);
        assert_eq!(a.catch_up_ns, 0);
    }

    #[test]
    fn percentiles_come_from_the_integer_histogram() {
        let mut m = CoreMetrics::default();
        assert_eq!(m.p50_ns(), None);
        for ns in [100u64, 200, 300, 400] {
            m.record_success(1, Time::from_ns(ns));
        }
        let p50 = m.p50_ns().unwrap();
        assert!((200..=224).contains(&p50), "{p50}");
        assert_eq!(m.p99_ns(), Some(400));
    }
}
