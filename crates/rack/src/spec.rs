//! Declarative reader-workload specification: one builder for every
//! reader shape the experiments use.
//!
//! Every reader shape — mechanism, arrival process, key popularity,
//! read/write mix, replica set — is declared with one builder:
//!
//! ```
//! use sabre_rack::{spec, Arrivals, Popularity, ReadMechanism, ScenarioBuilder};
//! use sabre_sim::Time;
//!
//! // One core on node 0 reading 256 B objects from node 1 under open-loop
//! // Poisson arrivals (2 ops/us offered) with Zipf-skewed key popularity.
//! let report = ScenarioBuilder::new()
//!     .raw_region_sized(1, 256, 64)
//!     .reader_spec(
//!         0,
//!         0,
//!         spec()
//!             .store(1)
//!             .payload(256)
//!             .mechanism(ReadMechanism::Sabre)
//!             .arrivals(Arrivals::Poisson { ops_per_us: 2.0 })
//!             .popularity(Popularity::Zipf { exponent: 0.99 }),
//!     )
//!     .run_for(Time::from_us(50));
//! let m = report.core(0, 0);
//! assert!(m.ops > 50, "~2 ops/us over 50 us");
//! assert!(m.p99_ns().unwrap() >= m.p50_ns().unwrap());
//! ```
//!
//! [`WorkloadSpec::build`] compiles every spec into one reader program.
//! The mechanism — source locking's CAS, read and asynchronous unlock
//! among them — is one of its [`ReadMechanism`]s, and
//! [`window`](WorkloadSpec::window) is the number of operations it keeps
//! in flight, under any pacing, popularity, mix or target. A field the
//! program cannot honour in combination with the others is rejected with
//! a panic rather than dropped.
//!
//! [`WorkloadSpec::observe`] hands every successful read's image to a
//! caller-supplied function, which is how the atomicity suites check the
//! reads this program returns.
//!
//! Scenario placement consumes specs through
//! [`ScenarioBuilder::reader_spec`](crate::ScenarioBuilder::reader_spec),
//! [`ScenarioBuilder::readers_spec`](crate::ScenarioBuilder::readers_spec)
//! and
//! [`ScenarioBuilder::readers_grid_spec`](crate::ScenarioBuilder::readers_grid_spec).

use std::fmt;
use std::sync::Arc;

use sabre_mem::Addr;
use sabre_sim::Time;
use sabre_sw::cost::FarmCosts;

use crate::workload::{ReadMechanism, Workload};
use crate::workloads::{node_id, Reader};

/// How long a replicated read waits before failing over, unless the spec
/// says otherwise.
const DEFAULT_FAILOVER_TIMEOUT: Time = Time::from_us(10);

/// The arrival process driving a reader: when operations *want* to start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Closed loop (the paper's microbenchmarks): the next operation
    /// starts the instant the previous one completes.
    Closed,
    /// Open-loop Poisson arrivals at the given offered load. Arrivals
    /// that fire while every operation of the
    /// [window](WorkloadSpec::window) is in flight queue up
    /// (`CoreMetrics::queued_arrivals`), and latency is measured from the
    /// *arrival*, so queueing delay is part of the reported tail.
    Poisson {
        /// Offered load per reader, in operations per microsecond.
        ops_per_us: f64,
    },
    /// On/off bursty arrivals: Poisson at `ops_per_us` during each `on`
    /// window, silence during each `off` window, starting with an `on`
    /// window at workload start.
    OnOff {
        /// Length of each active window.
        on: Time,
        /// Length of each silent window.
        off: Time,
        /// Offered load during active windows, in ops per microsecond.
        ops_per_us: f64,
    },
}

/// How a reader picks the next object: the key-popularity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Uniform over the object set (the paper's microbenchmarks).
    Uniform,
    /// Zipf-distributed ranks over the object set: object 0 is the
    /// hottest, drawn with probability proportional to `1/rank^exponent`.
    Zipf {
        /// The skew exponent (θ); classic YCSB skew is 0.99.
        exponent: f64,
    },
    /// Hot-set skew: a `fraction` of accesses go uniformly to the first
    /// `hot` objects, the rest uniformly to the remainder.
    HotSet {
        /// Size of the hot set (clamped to the object count).
        hot: u64,
        /// Fraction of accesses hitting the hot set, in `[0, 1]`.
        fraction: f64,
    },
}

/// One successful read, as a [`WorkloadSpec::observe`] function sees it.
#[derive(Debug, Clone, Copy)]
pub struct ObservedRead<'a> {
    /// The reader's node.
    pub node: usize,
    /// The reader's core on that node.
    pub core: usize,
    /// The object's index in the reader's object list (the same index
    /// in every replica's list).
    pub obj: usize,
    /// The node that served the read: the store, or the replica site the
    /// successful attempt went to.
    pub served_by: usize,
    /// The instant the operation completed, after any strip, CRC,
    /// consume or framework phase.
    pub at: Time,
    /// The wire image the read delivered into its lane's buffer, headers,
    /// versions and checksums included.
    pub image: &'a [u8],
}

/// The function behind [`WorkloadSpec::observe`].
#[derive(Clone)]
pub(crate) struct Observer(Arc<dyn Fn(&ObservedRead<'_>) + Send + Sync>);

impl Observer {
    pub(crate) fn call(&self, read: &ObservedRead<'_>) {
        (self.0)(read)
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Observer")
    }
}

/// Starts an empty [`WorkloadSpec`] (the conventional spelling:
/// `spec().store(1).payload(1024).mechanism(..)`).
pub fn spec() -> WorkloadSpec {
    WorkloadSpec::new()
}

/// A declarative description of one reader workload; see the
/// [module docs](self) for the full story and a runnable example.
///
/// Only [`WorkloadSpec::store`] and [`WorkloadSpec::payload`] are
/// mandatory; everything else defaults to the paper's closed-loop uniform
/// read-only shape.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub(crate) store: Option<usize>,
    pub(crate) payload: Option<u32>,
    pub(crate) mech: ReadMechanism,
    /// Shared by every reader built from the spec.
    pub(crate) objects: Option<Arc<[Addr]>>,
    pub(crate) arrivals: Arrivals,
    pub(crate) popularity: Popularity,
    pub(crate) read_fraction: f64,
    pub(crate) consume: bool,
    pub(crate) framework: Option<FarmCosts>,
    pub(crate) backoff: Time,
    pub(crate) wire: Option<u32>,
    pub(crate) observer: Option<Observer>,
    pub(crate) iterations: Option<u64>,
    pub(crate) window: usize,
    pub(crate) replicas: Option<Vec<(usize, Vec<Addr>)>>,
    pub(crate) failover_timeout: Time,
    pub(crate) migrate: bool,
    pub(crate) replace_hops: Option<f64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadSpec {
    /// An empty spec: closed-loop, uniform popularity, read-only,
    /// raw-read mechanism, endless.
    pub fn new() -> Self {
        WorkloadSpec {
            store: None,
            payload: None,
            mech: ReadMechanism::Raw,
            objects: None,
            arrivals: Arrivals::Closed,
            popularity: Popularity::Uniform,
            read_fraction: 1.0,
            consume: false,
            framework: None,
            backoff: Time::ZERO,
            wire: None,
            observer: None,
            iterations: None,
            window: 1,
            replicas: None,
            failover_timeout: DEFAULT_FAILOVER_TIMEOUT,
            migrate: true,
            replace_hops: None,
        }
    }

    /// The node the reader targets (mandatory).
    pub fn store(mut self, node: usize) -> Self {
        self.store = Some(node);
        self
    }

    /// Clean payload bytes per object (mandatory).
    pub fn payload(mut self, bytes: u32) -> Self {
        self.payload = Some(bytes);
        self
    }

    /// The atomicity mechanism (default: [`ReadMechanism::Raw`]).
    pub fn mechanism(mut self, mech: ReadMechanism) -> Self {
        self.mech = mech;
        self
    }

    /// Explicit object addresses to read. Default: every target address
    /// the scenario's declared regions produced.
    pub fn objects(mut self, objects: Vec<Addr>) -> Self {
        self.objects = Some(objects.into());
        self
    }

    /// The arrival process (default: [`Arrivals::Closed`]).
    pub fn arrivals(mut self, arrivals: Arrivals) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// The key-popularity model (default: [`Popularity::Uniform`]).
    pub fn popularity(mut self, popularity: Popularity) -> Self {
        self.popularity = popularity;
        self
    }

    /// Read fraction of the operation mix in `[0, 1]` (default 1.0 =
    /// read-only). The write fraction issues one-sided remote writes of
    /// the payload bytes back to the chosen object — meaningful for
    /// raw/SABRe object images; the software layouts embed metadata a
    /// remote writer does not maintain, so mixes below 1.0 are for
    /// raw-layout traffic studies.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]`.
    pub fn mix(mut self, read_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be in [0, 1], got {read_fraction}"
        );
        self.read_fraction = read_fraction;
        self
    }

    /// Model the application reading the clean payload after every read,
    /// under every mechanism (the §7.2 microbenchmark semantics: "a remote
    /// operation completes when the clean data is read by the core"). The
    /// read streams from the L1 after a CPU strip or CRC, and from the LLC
    /// otherwise, where the NI's DMA left it; it is the
    /// [`App`](crate::Phase::App) phase. Writes consume nothing.
    pub fn consume(mut self) -> Self {
        self.consume = true;
        self
    }

    /// Run every operation inside FaRM's framework (Figs. 1, 9a and 9b):
    /// the key-value lookup before the issue, then, after the transfer,
    /// the baseline's buffer management and frontend stalls beside the
    /// strip or CRC of the software mechanisms, or the lean zero-copy
    /// bookkeeping of every other mechanism. A retry re-issues without a
    /// second lookup. Each operation records one
    /// [`Framework`](crate::Phase::Framework) phase: its lookup plus every
    /// attempt's framework work (default: no framework).
    pub fn framework(mut self, costs: FarmCosts) -> Self {
        self.framework = Some(costs);
        self
    }

    /// Pause before retrying a failed read (default: immediate retry).
    pub fn backoff(mut self, backoff: Time) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the transfer size (e.g. a store's exact slot footprint;
    /// default: the mechanism's natural wire size for the payload).
    pub fn wire(mut self, wire: u32) -> Self {
        self.wire = Some(wire);
        self
    }

    /// Calls `observe` once per successful read operation, with the image
    /// the read delivered (default: no observer). Writes of a mix, failed
    /// attempts that are retried and attempts abandoned to a failover are
    /// not reported. The observer only reads, so a run is bit-identical
    /// with or without it. Every reader built from the spec shares it, and
    /// under [`ClusterConfig::threads`](crate::ClusterConfig::threads)
    /// readers on different shards call it from different OS threads in
    /// no fixed order.
    pub fn observe(mut self, observe: impl Fn(&ObservedRead<'_>) + Send + Sync + 'static) -> Self {
        self.observer = Some(Observer(Arc::new(observe)));
        self
    }

    /// Stop after exactly `n` successful operations (default: endless).
    /// Rejected beside a [`WorkloadSpec::window`] above 1.
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = Some(n);
        self
    }

    /// Operations the reader keeps in flight (default 1; Fig. 7b's
    /// peak-throughput reader keeps several). Each operation reads into
    /// its own slice of the local buffer; under a closed loop each starts
    /// its successor the instant it completes, under open-loop arrivals
    /// an arrival waits only while every one is busy.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = window;
        self
    }

    /// Read a *replicated* object, failing over between replicas, instead
    /// of a single store node. Each entry is `(store node, object addresses)`
    /// in preference order (nearest first — the farm layer's
    /// `ReplicatedStore::view_for` computes exactly this); index `i` of
    /// every address vector names the same logical object.
    /// Replaces [`WorkloadSpec::store`], which becomes optional, and
    /// [`WorkloadSpec::objects`], which is rejected. Only the closed-loop
    /// uniform read-only shape supports replicas, and source locking
    /// rejects them: a failover would leave the abandoned lock held.
    pub fn replicas(mut self, replicas: Vec<(usize, Vec<Addr>)>) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// How long a replicated read waits before abandoning the attempt and
    /// failing over to the next replica (default 10 µs). Rejected without
    /// [`WorkloadSpec::replicas`]. A timeout below one unloaded read's
    /// latency abandons every attempt, so the reader completes 0
    /// operations; nothing rejects such a value.
    pub fn failover_timeout(mut self, timeout: Time) -> Self {
        self.failover_timeout = timeout;
        self
    }

    /// Whether a replicated reader *migrates* its replica binding
    /// (default `true` — adaptive). `false` selects the static
    /// round-robin policy: every operation starts at the next replica in
    /// rotation with no memory of failures. `false` is rejected without
    /// [`WorkloadSpec::replicas`].
    pub fn migrate(mut self, migrate: bool) -> Self {
        self.migrate = migrate;
        self
    }

    /// Arms load-triggered re-placement: when the mean routed hop count
    /// of the reader's recent completed operations reaches `threshold`,
    /// the adaptive reader immediately probes the most-preferred
    /// suspected replica instead of waiting for the periodic probe.
    /// Rejected without [`WorkloadSpec::replicas`] or under
    /// [`WorkloadSpec::migrate`]`(false)`.
    pub fn replace_on_hops(mut self, threshold: f64) -> Self {
        self.replace_hops = Some(threshold);
        self
    }

    /// The paper's closed-loop uniform read-only shape.
    pub(crate) fn is_plain_closed_loop(&self) -> bool {
        self.arrivals == Arrivals::Closed
            && self.popularity == Popularity::Uniform
            && self.read_fraction == 1.0
    }

    pub(crate) fn payload_bytes(&self) -> u32 {
        self.payload
            .expect("WorkloadSpec needs an object size: call .payload(bytes)")
    }

    /// The single store node and its objects: the explicit
    /// [`WorkloadSpec::objects`], else the scenario's region `targets`.
    pub(crate) fn single_store(&self, targets: &[Addr]) -> (u8, Arc<[Addr]>) {
        let objects = self.objects.clone().unwrap_or_else(|| targets.into());
        assert!(
            !objects.is_empty(),
            "WorkloadSpec needs objects: declare a region or call .objects(..)"
        );
        let store = self
            .store
            .expect("WorkloadSpec needs a target node: call .store(node)");
        (node_id(store), objects)
    }

    /// Panics on a field the reader cannot honour beside the others.
    fn reject_ignored_fields(&self) {
        let replicated = self.replicas.is_some();
        let locking = matches!(self.mech, ReadMechanism::SourceLocking { .. });
        let program = if locking {
            "source-locking readers"
        } else if replicated {
            "replicated readers"
        } else {
            "single-store readers"
        };
        assert!(
            !replicated || self.is_plain_closed_loop(),
            "replicated readers support only the closed-loop uniform read-only shape"
        );
        let ignored = [
            (locking && replicated, ".replicas(..)"),
            (locking && self.read_fraction < 1.0, ".mix(..)"),
            (locking && self.backoff != Time::ZERO, ".backoff(..)"),
            (
                self.window > 1 && self.iterations.is_some(),
                ".iterations(..) beside .window(n > 1)",
            ),
            (replicated && self.objects.is_some(), ".objects(..)"),
            (
                !replicated && self.failover_timeout != DEFAULT_FAILOVER_TIMEOUT,
                ".failover_timeout(..)",
            ),
            (!replicated && !self.migrate, ".migrate(false)"),
            (
                !replicated && self.replace_hops.is_some(),
                ".replace_on_hops(..)",
            ),
            (
                !self.migrate && self.replace_hops.is_some(),
                ".replace_on_hops(..) under .migrate(false)",
            ),
        ];
        if let Some((_, field)) = ignored.iter().find(|(hit, _)| *hit) {
            panic!("{program} cannot honour {field}");
        }
    }

    /// Materializes the spec into a workload program. `targets` is the
    /// scenario's concatenated region-target list, used when no explicit
    /// [`WorkloadSpec::objects`] were given.
    ///
    /// # Panics
    ///
    /// Panics if a mandatory field is missing, the object set is empty,
    /// or the reader cannot honour a field beside the others: replicas
    /// with open-loop arrivals, skewed popularity or a write mix; source
    /// locking with replicas, a write mix or a backoff; `.iterations(..)`
    /// with a window above 1; or a replica-set field such as
    /// `.migrate(false)` without replicas.
    pub fn build(&self, targets: &[Addr]) -> Box<dyn Workload> {
        self.reject_ignored_fields();
        Box::new(Reader::new(self, targets))
    }
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use super::*;
    use crate::config::ClusterConfig;
    use crate::scenario::{RunReport, ScenarioBuilder};

    fn small() -> ClusterConfig {
        ClusterConfig {
            memory_bytes: 4 * 1024 * 1024,
            ..ClusterConfig::default()
        }
    }

    fn fingerprint(r: &RunReport) -> (u64, u64, Option<f64>, Option<u64>) {
        let m = r.core(0, 0);
        (m.ops, m.retries, m.latency.mean(), m.p99_ns())
    }

    #[test]
    fn poisson_open_loop_tracks_offered_load() {
        // 1 op/us offered for 200 us with ~300 ns service: the loop is
        // open, so completions track arrivals, not service capacity.
        let report = ScenarioBuilder::with_config(small())
            .raw_region_sized(1, 256, 64)
            .reader_spec(
                0,
                0,
                spec()
                    .store(1)
                    .payload(256)
                    .arrivals(Arrivals::Poisson { ops_per_us: 1.0 }),
            )
            .run_for(Time::from_us(200));
        let m = report.core(0, 0);
        assert!(
            (120..=280).contains(&m.ops),
            "~200 Poisson arrivals expected, got {}",
            m.ops
        );
        // Utilization ~0.3: queueing happens but stays the exception.
        assert!(
            m.queued_arrivals < m.ops / 2,
            "{} queued",
            m.queued_arrivals
        );
    }

    #[test]
    fn poisson_overload_builds_queue_and_stretches_the_tail() {
        // 20 ops/us offered against ~300 ns service is ~6x overload: the
        // backlog grows for the whole window and arrival-anchored latency
        // stretches far beyond the service time.
        let report = ScenarioBuilder::with_config(small())
            .raw_region_sized(1, 256, 64)
            .reader_spec(
                0,
                0,
                spec()
                    .store(1)
                    .payload(256)
                    .arrivals(Arrivals::Poisson { ops_per_us: 20.0 }),
            )
            .run_for(Time::from_us(50));
        let m = report.core(0, 0);
        assert!(m.ops > 0);
        assert!(m.queued_arrivals > m.ops, "most arrivals should queue");
        assert!(
            m.peak_backlog >= 8,
            "backlog {} too shallow",
            m.peak_backlog
        );
        let (p50, p99) = (m.p50_ns().unwrap(), m.p99_ns().unwrap());
        assert!(
            p99 > p50,
            "saturation must stretch the tail: {p50} vs {p99}"
        );
        assert!(m.p999_ns().unwrap() >= p99);
    }

    #[test]
    fn onoff_arrivals_burst_and_go_silent() {
        // 4 ops/us during 5 us bursts, 5 us silences: about half the
        // offered load of always-on, and bursts outrun the ~300 ns service
        // enough to queue.
        let report = ScenarioBuilder::with_config(small())
            .raw_region_sized(1, 256, 64)
            .reader_spec(
                0,
                0,
                spec().store(1).payload(256).arrivals(Arrivals::OnOff {
                    on: Time::from_us(5),
                    off: Time::from_us(5),
                    ops_per_us: 4.0,
                }),
            )
            .run_for(Time::from_us(100));
        let m = report.core(0, 0);
        assert!(
            (120..=280).contains(&m.ops),
            "~200 bursty arrivals expected, got {}",
            m.ops
        );
        assert!(m.queued_arrivals > 0, "bursts should queue behind service");
    }

    #[test]
    fn skewed_and_mixed_traffic_is_deterministic() {
        let run = || {
            let report = ScenarioBuilder::with_config(small())
                .raw_region_sized(1, 256, 64)
                .reader_spec(
                    0,
                    0,
                    spec()
                        .store(1)
                        .payload(256)
                        .popularity(Popularity::Zipf { exponent: 0.99 })
                        .mix(0.5),
                )
                .run_for(Time::from_us(50));
            fingerprint(&report)
        };
        let a = run();
        assert!(a.0 > 50, "closed-loop mixed traffic must make progress");
        assert_eq!(a.1, 0, "raw reads and writes never retry");
        assert_eq!(a, run(), "same seed, same history");
    }

    #[test]
    fn hot_set_popularity_runs() {
        let report = ScenarioBuilder::with_config(small())
            .raw_region_sized(1, 256, 64)
            .reader_spec(
                0,
                0,
                spec().store(1).payload(256).popularity(Popularity::HotSet {
                    hot: 4,
                    fraction: 0.9,
                }),
            )
            .run_for(Time::from_us(20));
        assert!(report.core(0, 0).ops > 0);
    }

    #[test]
    #[should_panic(expected = "needs a target node")]
    fn build_requires_a_store() {
        let _ = spec().payload(64).build(&[Addr::new(0)]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn window_must_be_positive() {
        let _ = spec().window(0);
    }

    #[test]
    fn build_rejects_fields_the_program_would_ignore() {
        let base = || spec().store(1).payload(64);
        let replicated = || spec().payload(64).replicas(vec![(1, vec![Addr::new(0)])]);
        let locking = || base().mechanism(ReadMechanism::SourceLocking { payload: 64 });
        let cases = [
            (
                replicated().mechanism(ReadMechanism::SourceLocking { payload: 64 }),
                "source-locking readers cannot honour .replicas(..)",
            ),
            (
                locking().mix(0.5),
                "source-locking readers cannot honour .mix(..)",
            ),
            (
                locking().backoff(Time::from_ns(50)),
                "source-locking readers cannot honour .backoff(..)",
            ),
            (
                base().window(4).iterations(10),
                "single-store readers cannot honour .iterations(..) beside .window(n > 1)",
            ),
            (
                replicated().window(2).iterations(10),
                "replicated readers cannot honour .iterations(..) beside .window(n > 1)",
            ),
            (
                replicated().arrivals(Arrivals::Poisson { ops_per_us: 1.0 }),
                "replicated readers support only the closed-loop uniform read-only shape",
            ),
            (
                base().failover_timeout(Time::from_us(2)),
                "single-store readers cannot honour .failover_timeout(..)",
            ),
            (
                base().migrate(false),
                "single-store readers cannot honour .migrate(false)",
            ),
            (
                base().replace_on_hops(2.0),
                "single-store readers cannot honour .replace_on_hops(..)",
            ),
            (
                replicated().migrate(false).replace_on_hops(2.0),
                "replicated readers cannot honour .replace_on_hops(..) under .migrate(false)",
            ),
            (
                replicated().objects(vec![Addr::new(64)]),
                "replicated readers cannot honour .objects(..)",
            ),
        ];
        for (spec, expected) in cases {
            let Err(panic) =
                std::panic::catch_unwind(AssertUnwindSafe(|| spec.build(&[Addr::new(0)])))
            else {
                panic!("built despite: {expected}");
            };
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(message, expected);
        }
    }
}
