//! The SABRes simulator's benchmark: five named workloads, each measured
//! end to end (host cost of the simulator, exact simulated results) and,
//! in a traced run, layer by layer.
//!
//! One *pass* builds a fresh cluster from the seed, warms it up, measures
//! one simulated window and collects the exact simulated statistics. A serial
//! pass runs a chunk of the [`reference`] kernel at each slice boundary of
//! its window, so the window's host time can be stated in reference units
//! that cancel the host's speed. A run repeats passes for its time budget:
//! host metrics are medians over the passes, and every pass must reproduce
//! the first pass's simulated digest.
//! See `README.md` for the workloads, the metric catalog and the
//! layer→end-to-end map.

pub mod compare;
pub mod json;
pub mod probes;
pub mod reference;
pub mod trace;
pub mod workloads;

use std::sync::Arc;
use std::time::{Duration, Instant};

use sabre_core::EngineStats;
use sabre_rack::CoreMetrics;
use sabre_sim::Time;
use sabre_sonuma::r2p2::R2p2Stats;

use crate::reference::SliceClock;
use crate::trace::Tracer;
use crate::workloads::{build, Exec, FabricCounts, Rig, SetupTimes, Shape, Workload, WARMUP};

/// Slices of a workload's full window: a serial pass runs one reference
/// chunk per slice, each a few ms of simulation apart on the baseline host.
/// Every workload's window is a whole number of picoseconds per slice.
pub const SLICES: u64 = 250;

/// Exact simulated results of one measured window. Everything here is a
/// pure function of the workload, its seed and its window.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// The measured window.
    pub window: Time,
    /// Core metrics merged over every core of every node.
    pub rack: CoreMetrics,
    /// R2P2 statistics summed over every pipeline of every node.
    pub r2p2: R2p2Stats,
    /// LightSABRes engine statistics summed over every pipeline.
    pub engine: EngineStats,
    /// Whole-fabric counters accumulated over the window.
    pub fabric: FabricCounts,
    /// Whole-fabric counters since the cluster started (conservation is
    /// checked over the cluster's whole life: warm-up packets arrive in
    /// the window).
    pub fabric_total: FabricCounts,
    /// `(node, core, ops, retries)` of every reader core.
    pub reader_cores: Vec<(usize, usize, u64, u64)>,
    /// Successful ops plus retries of the per-cache-line reader nodes.
    pub percl_reads: u64,
    /// Retries on the reader nodes that must never retry.
    pub abort_free_retries: u64,
    /// FNV-1a digest over every counter above and the merged latency
    /// histogram's dump.
    pub digest: u64,
}

impl SimStats {
    /// Collects the statistics of `rig`'s finished window.
    pub fn collect(rig: &Rig, window: Time) -> SimStats {
        let cluster = &rig.cluster;
        let cfg = cluster.config();
        let mut rack = CoreMetrics::default();
        let mut r2p2 = R2p2Stats::default();
        let mut engine = EngineStats::default();
        let mut digest = Fnv::new();
        for node in 0..cfg.nodes {
            for core in 0..cfg.cores_per_node {
                let m = cluster.metrics(node, core);
                rack.merge(m);
                for v in [
                    m.ops,
                    m.bytes,
                    m.retries,
                    m.queued_arrivals,
                    m.peak_backlog,
                    m.failovers,
                    m.migrations,
                    m.catch_up_ops,
                    m.replays_applied,
                    m.stale_refusals,
                    m.catch_up_ns,
                ] {
                    digest.u64(v);
                }
            }
            for pipe in 0..cfg.rmc_backends {
                let r = cluster.r2p2_stats(node, pipe);
                let e = cluster.engine_stats(node, pipe);
                for v in r2p2_fields(&r).into_iter().chain(engine_fields(&e)) {
                    digest.u64(v);
                }
                r2p2.merge(&r);
                engine.merge(&e);
            }
        }
        let fabric_total = FabricCounts::of(cluster);
        let shape = &rig.shape;
        let reader_cores: Vec<_> = shape
            .readers
            .iter()
            .map(|&(node, core)| {
                let m = cluster.metrics(node, core);
                (node, core, m.ops, m.retries)
            })
            .collect();
        let node_sum = |nodes: &[usize], f: fn(&(usize, usize, u64, u64)) -> u64| -> u64 {
            reader_cores
                .iter()
                .filter(|c| nodes.contains(&c.0))
                .map(f)
                .sum()
        };
        let percl_reads = node_sum(&shape.percl_nodes, |c| c.2 + c.3);
        let abort_free_retries = node_sum(&shape.abort_free_nodes, |c| c.3);
        let stats = SimStats {
            window,
            r2p2,
            engine,
            fabric: fabric_total.since(&rig.fabric_at_reset),
            fabric_total,
            reader_cores,
            percl_reads,
            abort_free_retries,
            digest: 0,
            rack,
        };
        let f = &stats.fabric_total;
        for v in [
            f.hops.packets,
            f.hops.hops,
            f.hops.uplink_queued,
            f.hops.spine_crossings,
            f.hops.spine_queued,
            f.delivered,
            f.dropped,
        ] {
            digest.u64(v);
        }
        digest.bytes(stats.rack.latency_hist.dump().as_bytes());
        SimStats {
            digest: digest.finish(),
            ..stats
        }
    }

    /// Median simulated read latency in ns.
    pub fn p50_ns(&self) -> u64 {
        self.rack.p50_ns().unwrap_or(0)
    }

    /// 99th-percentile simulated read latency in ns.
    pub fn p99_ns(&self) -> u64 {
        self.rack.p99_ns().unwrap_or(0)
    }

    /// Rack goodput over the window in GB/s (simulated).
    pub fn goodput_gbps(&self) -> f64 {
        self.rack.bytes as f64 / self.window.as_ns()
    }

    /// Read attempts that returned no consistent value the first time:
    /// atomicity retries, refusals by a catching-up replica and failover
    /// timeouts.
    pub fn failed_attempts(&self) -> u64 {
        self.rack.retries + self.rack.stale_refusals + self.rack.failovers
    }

    /// [`SimStats::failed_attempts`] over every attempt.
    pub fn failed_share(&self) -> f64 {
        let failed = self.failed_attempts();
        failed as f64 / (failed + self.rack.ops).max(1) as f64
    }

    /// The correctness checks every pass must pass; returns the failures.
    pub fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let f = &self.fabric_total;
        if f.delivered + f.dropped > f.hops.packets {
            failures.push(format!(
                "packet conservation: delivered {} + dropped {} > sent {}",
                f.delivered, f.dropped, f.hops.packets
            ));
        }
        for &(node, core, ops, _) in &self.reader_cores {
            if ops == 0 {
                failures.push(format!("reader core {node}.{core} completed no ops"));
            }
        }
        if self.abort_free_retries != 0 {
            failures.push(format!(
                "abort-free readers retried {} times",
                self.abort_free_retries
            ));
        }
        match (self.rack.p50_ns(), self.rack.p99_ns()) {
            (Some(p50), Some(p99)) if p50 <= p99 => {}
            (p50, p99) => failures.push(format!("latency percentiles {p50:?} > {p99:?}")),
        }
        failures
    }
}

fn r2p2_fields(r: &R2p2Stats) -> [u64; 11] {
    [
        r.plain_reads,
        r.writes,
        r.sabres_registered,
        r.sabres_parked,
        r.stale_dropped,
        r.captured_reads,
        r.capture_restarts,
        r.catch_up_pulls,
        r.reads_refused,
        r.stale_served,
        r.catch_up_refused,
    ]
}

fn engine_fields(e: &EngineStats) -> [u64; 11] {
    [
        e.registered,
        e.completed_ok,
        e.completed_failed,
        e.aborts_window_conflict,
        e.aborts_version_locked,
        e.aborts_validate_mismatch,
        e.aborts_lock_failed,
        e.revalidations,
        e.invals_ignored_after_window,
        e.depth_stalls,
        e.page_stalls,
    ]
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One pass: set-up, measured window, collection.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host time of each set-up step.
    pub setup: SetupTimes,
    /// Host seconds spent simulating the measured window (the reference
    /// chunks excluded).
    pub run_s: f64,
    /// The measured window's cost in `ref` (serial passes only).
    pub run_ref: Option<f64>,
    /// Host ns per reference step during the window (serial passes only).
    pub ref_step_ns: Option<f64>,
    /// Host seconds of [`SimStats::collect`].
    pub collect_s: f64,
    /// Host milliseconds of simulation per slice (serial passes only).
    pub slices_ms: Vec<f64>,
    /// The exact simulated results.
    pub stats: SimStats,
    /// The workload's shape, for the probes.
    pub shape: Shape,
    /// The built configuration, for the probes.
    pub config: sabre_rack::ClusterConfig,
}

/// Runs one pass of `workload`. A serial pass (`exec.threads` unset)
/// interleaves the reference kernel with its window, one chunk per slice of
/// `workload.window() / SLICES`; a threaded pass runs the window alone. With
/// a tracer, every step is recorded as a span.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    exec: Exec,
    window: Time,
    tracer: Option<&mut Tracer>,
) -> Pass {
    let slice = Time::from_ps(workload.window().as_ps() / SLICES);
    let clock = exec.threads.is_none().then(|| {
        Arc::new(SliceClock::new(
            WARMUP,
            slice,
            window.as_ps().div_ceil(slice.as_ps()),
        ))
    });
    let begin = Instant::now();
    let mut rig = build(workload, seed, exec, window, clock.clone());
    let run_start = Instant::now();
    rig.cluster.run_for(window);
    let run_end = Instant::now();
    let stats = SimStats::collect(&rig, window);
    let collect_end = Instant::now();
    let times = clock.map(|c| c.times(run_start, run_end));
    if let Some(tr) = tracer {
        tr.begin_pass();
        tr.span("pass", None, begin, collect_end);
        let mut t = begin;
        for (name, secs) in rig.setup.steps() {
            let end = t + Duration::from_secs_f64(secs);
            tr.span(name, Some("pass"), t, end);
            t = end;
        }
        tr.span("measured_window", Some("pass"), run_start, run_end);
        for &(t0, t1) in times.iter().flat_map(|t| &t.chunks) {
            tr.span("reference_chunk", Some("measured_window"), t0, t1);
        }
        tr.span("collect", Some("pass"), run_end, collect_end);
        tr.end_pass();
    }
    Pass {
        setup: rig.setup,
        run_s: times
            .as_ref()
            .map_or((run_end - run_start).as_secs_f64(), |t| t.sim_s),
        run_ref: times.as_ref().map(|t| t.run_ref),
        ref_step_ns: times.as_ref().map(|t| t.ref_step_ns),
        collect_s: (collect_end - run_end).as_secs_f64(),
        slices_ms: times.map(|t| t.slices_ms).unwrap_or_default(),
        stats,
        config: rig.cluster.config().clone(),
        shape: rig.shape,
    }
}

/// The median of `values` (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics off Linux, where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}
