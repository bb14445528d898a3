//! Reusable workload programs: the microbenchmark readers and writers of
//! §6/§7 ("a number of writer threads that update objects in their local
//! memory, or reader threads that access objects in remote memory using
//! one-sided soNUMA operations in a tight loop").
//!
//! The one [`Writer`] keeps its objects in a [`StoreLayout`] and walks each
//! update through an [`UpdatePlan`], both from [`crate::layout`];
//! [`WriterLayout`] names the same type.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_sim::{SimRng, Time, Zipf};
use sabre_sonuma::{CqEntry, OpKind};
use sabre_sw::cost::{DataSource, FarmCosts};
use sabre_sw::{tag_board_addr, ReaderLockWord};

use crate::cluster::CoreApi;
/// The object layout under its writer-side name: the same type as
/// [`StoreLayout`].
pub use crate::layout::StoreLayout as WriterLayout;
use crate::layout::{StoreLayout, UpdatePlan};
use crate::metrics::Phase;
use crate::spec::{Arrivals, ObservedRead, Observer, Popularity, WorkloadSpec};
use crate::workload::{ReadMechanism, Workload};

/// Generates the recognizable payload a writer stores: `[obj_id u64 | seq
/// u64 | filler…]`, with the filler byte derived from both. Readers and
/// property tests use [`verify_payload`] to prove a read was not torn.
pub fn pattern_payload(obj_id: u64, seq: u64, payload_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; payload_len];
    fill_pattern(&mut out, obj_id, seq);
    out
}

/// Writes [`pattern_payload`]`(obj_id, seq, out.len())` into `out`.
pub(crate) fn fill_pattern(out: &mut [u8], obj_id: u64, seq: u64) {
    let fill = (obj_id.wrapping_mul(31).wrapping_add(seq) & 0xFF) as u8;
    out.fill(fill);
    if out.len() >= 8 {
        out[..8].copy_from_slice(&obj_id.to_le_bytes());
    }
    if out.len() >= 16 {
        out[8..16].copy_from_slice(&seq.to_le_bytes());
    }
}

/// Verifies a payload produced by [`pattern_payload`]: returns the sequence
/// number if the bytes form one consistent snapshot, `None` if torn.
pub fn verify_payload(obj_id: u64, data: &[u8]) -> Option<u64> {
    if data.len() < 16 {
        // Too small to carry the ids; check filler consistency only.
        return data
            .iter()
            .all(|&b| b == data[0])
            .then_some(u64::from(data[0]));
    }
    let stored_id = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    if stored_id != obj_id {
        return None;
    }
    let fill = (obj_id.wrapping_mul(31).wrapping_add(seq) & 0xFF) as u8;
    data[16..].iter().all(|&b| b == fill).then_some(seq)
}

/// Local buffer bytes per core: the buffer of core `c` sits at
/// `memory/2 + c × READER_BUF_BYTES`.
const READER_BUF_BYTES: u64 = 256 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    Idle,
    /// Under a framework: the key-value lookup before the issue.
    Lookup,
    /// Source locking: the lock CAS is in flight.
    AwaitLock,
    AwaitTransfer,
    AwaitStrip,
    AwaitConsume,
    Backoff,
}

/// What a pending [`Reader`] wake means. A reader can have an arrival
/// timer, failover timers and service sleeps outstanding at once; a local
/// min-heap keyed by `(due, seq, kind)` disambiguates them, relying on the
/// node event queue's FIFO-within-timestamp order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    /// The open-loop arrival timer.
    Arrival,
    /// The failover timer of the attempt with this `wq_id`; stale once
    /// that attempt has completed or been abandoned.
    Timeout(u64),
    /// A lookup, strip, consume or backoff sleep of this lane.
    Service(usize),
}

/// How long a source-locking read backs off after a contended CAS.
const CAS_BACKOFF: Time = Time::from_ns(200);

/// Stream ids for the forked RNGs of shaped readers. Forks are
/// consumption-insensitive, so the arrival-time stream is identical across
/// mechanisms and object-choice patterns (and vice versa).
const ARRIVAL_STREAM: u64 = 0x5452_4146_4152_5256; // "TRAFARRV"
const CHOICE_STREAM: u64 = 0x5452_4146_4348_4F49; // "TRAFCHOI"

/// How a [`Reader`] picks each operation's object and direction.
#[derive(Debug)]
enum Choice {
    /// The plain shape — closed loop, uniform, read-only: one draw per
    /// operation from the core's own RNG.
    Core,
    /// Every other shape: popularity and mix draw from a stream forked at
    /// start, independent of the arrival process.
    Forked {
        /// Set by `on_start`.
        rng: Option<SimRng>,
        popularity: Popularity,
        zipf: Option<Zipf>,
        read_fraction: f64,
    },
}

/// When a [`Reader`]'s operations start.
#[derive(Debug)]
struct Pace {
    arrivals: Arrivals,
    /// The inter-arrival stream; set by `on_start` under open loop.
    rng: Option<SimRng>,
    start: Time,
    /// Accumulated *active* time consumed by on/off arrivals, in ps; the
    /// wall-clock mapping skips the off windows (integer arithmetic, so
    /// the schedule is exact and replayable).
    active_ps: u64,
    /// Arrival timestamps waiting behind the in-flight operation.
    backlog: VecDeque<Time>,
}

impl Pace {
    /// Draws the next inter-arrival gap; returns how long from `now` the
    /// arrival fires.
    fn next_arrival(&mut self, now: Time) -> Time {
        let rate = match self.arrivals {
            Arrivals::Closed => unreachable!("closed loops have no arrival timer"),
            Arrivals::Poisson { ops_per_us } | Arrivals::OnOff { ops_per_us, .. } => ops_per_us,
        };
        let mean_ns = 1000.0 / rate;
        let u = self
            .rng
            .as_mut()
            .expect("on_start forked the arrival stream")
            .unit();
        // Inverse-CDF exponential; u in [0, 1) keeps the log argument in
        // (0, 1], so the gap is finite and non-negative.
        let gap = Time::from_ns_f64(-(1.0 - u).ln() * mean_ns);
        match self.arrivals {
            Arrivals::OnOff { on, off, .. } => {
                // The exponential clock ticks in *active* time; map the
                // accumulated active time onto wall time by skipping the
                // off windows. Monotone in active_ps, so due >= now.
                self.active_ps += gap.as_ps();
                let on_ps = on.as_ps();
                let off_ps = off.as_ps();
                let wall = self.start.as_ps()
                    + (self.active_ps / on_ps) * (on_ps + off_ps)
                    + self.active_ps % on_ps;
                Time::from_ps(wall).saturating_sub(now)
            }
            _ => gap,
        }
    }
}

/// Successful operations between replica probes: after this many, a
/// migrating reader re-tries the most-preferred suspected replica to
/// detect recovery (costing at most one timeout if it is still down).
const PROBE_EVERY: u64 = 64;

/// Completed operations the load-triggered re-placement window averages
/// hop counts over (see [`Reader`]): long enough to smooth a single
/// far-replica excursion, short enough to react within ~a hundred
/// operations.
const REPLACE_WINDOW: usize = 32;

/// A [`Reader`]'s replica-selection policy over a replica set.
#[derive(Debug)]
struct Failover {
    timeout: Time,
    migrate: bool,
    replace_hops: Option<f64>,
    suspected: Vec<bool>,
    /// Hop counts of the last [`REPLACE_WINDOW`] completed operations.
    hop_window: VecDeque<u64>,
    /// Adaptive mode's current binding (preference index).
    bound: usize,
    /// Static mode's round-robin cursor.
    rr: u64,
    successes_since_probe: u64,
}

impl Failover {
    /// The replica a new operation starts at.
    fn first_site(&mut self) -> usize {
        if self.migrate {
            self.bound
        } else {
            let r = (self.rr % self.suspected.len() as u64) as usize;
            self.rr += 1;
            r
        }
    }

    /// Suspects replica `cur` and picks the next one under the active
    /// policy.
    fn next_site(&mut self, api: &mut CoreApi<'_>, cur: usize) -> usize {
        self.suspected[cur] = true;
        let k = self.suspected.len();
        let next = if self.migrate {
            match self.suspected.iter().position(|&s| !s) {
                Some(i) => i,
                None => {
                    // Everything looks dead: forget the suspicions and
                    // cycle, so recovery is always eventually observed.
                    self.suspected.fill(false);
                    (cur + 1) % k
                }
            }
        } else {
            (cur + 1) % k
        };
        if self.migrate && next != self.bound {
            self.bound = next;
            api.metrics().record_migration();
        }
        next
    }

    /// Re-binds to the most-preferred suspected replica, clearing its
    /// suspicion — the shared body of the periodic probe and the
    /// hop-triggered re-placement.
    fn probe_preferred(&mut self, api: &mut CoreApi<'_>) {
        if let Some(i) = (0..self.bound).find(|&i| self.suspected[i]) {
            self.suspected[i] = false;
            self.bound = i;
            api.metrics().record_migration();
            self.hop_window.clear();
        }
    }

    /// Bookkeeping after a successful operation that `hops` routed hops
    /// away served (`None` when re-placement is off).
    fn on_success(&mut self, api: &mut CoreApi<'_>, hops: Option<u64>) {
        if !self.migrate {
            return;
        }
        self.successes_since_probe += 1;
        if self.successes_since_probe >= PROBE_EVERY {
            self.successes_since_probe = 0;
            // Probe: re-bind to the most preferred suspected replica, if
            // it beats the current binding. Still down → one timeout and
            // the next failover rebinds.
            self.probe_preferred(api);
        }
        if let (Some(threshold), Some(hops)) = (self.replace_hops, hops) {
            // Load-triggered re-placement: a warm window whose mean hop
            // count crossed the threshold means the binding drifted to a
            // far replica — probe back immediately.
            if self.hop_window.len() == REPLACE_WINDOW {
                self.hop_window.pop_front();
            }
            self.hop_window.push_back(hops);
            if self.hop_window.len() == REPLACE_WINDOW {
                let mean =
                    self.hop_window.iter().sum::<u64>() as f64 / self.hop_window.len() as f64;
                if mean >= threshold {
                    self.probe_preferred(api);
                }
            }
        }
    }
}

/// The reader program behind every [`WorkloadSpec`]: a thread issuing
/// one-sided reads in a loop, with the mechanism's post-processing and a
/// retry on atomicity failure (§7.2: "Upon a conflict detection, readers
/// immediately retry reading the same object again", or after the
/// configured backoff).
///
/// It is made of four independent pieces, all derived from the spec:
///
/// * **Pacing** ([`Arrivals`]). A closed loop starts the next operation
///   when the previous one completes. Open-loop arrivals that fire while
///   every lane is busy queue up
///   ([`CoreMetrics::record_queued`](crate::CoreMetrics::record_queued))
///   and start the instant a lane completes.
/// * **Window** ([`WorkloadSpec::window`]): the number of operations in
///   flight at once (Fig. 7b's peak-throughput reader keeps several). Each
///   lane holds one operation's object, direction, site, live attempt and
///   timing, and reads into its own slice of the core's buffer; pacing,
///   choice and failover are shared.
/// * **Choice.** The plain shape (closed loop, uniform, read-only) draws
///   its object from the core's RNG. Every other shape draws object
///   ([`Popularity`]) and direction (the read/write mix) from a forked
///   stream, and the arrival timer from another, so arrival times are
///   bit-identical across mechanisms.
/// * **Target**: one store, or a replica set in preference order. A
///   replicated read arms a failover timer
///   ([`WorkloadSpec::failover_timeout`]) on every attempt. A read whose
///   packets a [`FaultPlan`](crate::FaultPlan) dropped never completes;
///   when the timer fires first, the reader abandons the attempt, counts a
///   [`failover`](crate::CoreMetrics::failovers), and re-issues the same
///   object at the next replica. Two replica-selection policies:
///   - *static round-robin* (`migrate(false)`): each operation starts at
///     the next replica in rotation, with no memory of past failures;
///   - *adaptive* (the default): the reader binds to the most preferred
///     replica, re-binds to the next live one on failure (a
///     [`migration`](crate::CoreMetrics::migrations)), and every
///     `PROBE_EVERY` (64) successes probes a suspected more-preferred
///     replica so it migrates back after recovery. With
///     [`replace_on_hops`](WorkloadSpec::replace_on_hops) it also probes
///     as soon as the mean hop count of its last `REPLACE_WINDOW`
///     operations reaches the threshold.
///
///   A replica catching up after an outage answers
///   [`ReadRefused`](sabre_sonuma::PacketKind::ReadRefused); the reader
///   counts a [`stale_refusal`](crate::CoreMetrics::stale_refusals) and
///   moves on exactly as after a timeout, one fast round trip later.
///
/// Under [`ReadMechanism::SourceLocking`] a read is a remote CAS on the
/// object's version word, the data read once the lock is granted, and a
/// fire-and-forget unlock; a contended CAS retries the same object after a
/// fixed 200 ns backoff.
///
/// A read's CPU work follows its transfer: the per-CL strip or CRC of the
/// software mechanisms, then, under [`WorkloadSpec::consume`], the
/// application reading the clean payload (from the L1 after a strip or
/// CRC, from the LLC where the NI's DMA left it otherwise). Under
/// [`WorkloadSpec::framework`] every operation first sleeps the FaRM
/// lookup, and the phase after the transfer adds FaRM's buffer management
/// and frontend stalls (software mechanisms) or its lean zero-copy
/// bookkeeping (every other mechanism). The lanes share one core: a CPU
/// phase starts once the core is free of the other lanes' phases.
/// Backoff is waiting, not CPU work, and overlaps freely.
///
/// Latency runs from the operation's start — its arrival, under open loop
/// — and so includes queueing, the lookup, retries, backoff and failovers.
/// The transfer, strip and app phases are per attempt; the framework phase
/// is recorded once per operation, as the lookup plus every attempt's
/// framework work. Completions that are not a lane's live attempt (Oh-RAM
/// confirm acks, source-locking unlocks, abandoned attempts) are
/// discarded. A successful read hands its image to the spec's
/// [`observe`](WorkloadSpec::observe) function, if any, as it completes.
#[derive(Debug)]
pub(crate) struct Reader {
    /// `(node, object addresses)` per site, in preference order; index
    /// `i` of every address vector names the same logical object.
    sites: Vec<(u8, Arc<[Addr]>)>,
    /// The replica-set policy; `None` for a single store, which arms no
    /// timer.
    failover: Option<Failover>,
    payload: u32,
    mech: ReadMechanism,
    wire: u32,
    /// Called with every successful read's image.
    observer: Option<Observer>,
    remaining: Option<u64>,
    /// Model the application reading the clean object after a read (the
    /// §7.2 microbenchmark semantics: "a remote operation completes when
    /// the clean data is read by the core").
    consume: bool,
    /// FaRM's framework costs around each operation, if any.
    framework: Option<FarmCosts>,
    /// When the core finishes the CPU phases already scheduled.
    cpu_free: Time,
    backoff: Time,
    pace: Pace,
    choice: Choice,
    /// The operations in flight, one per lane of the window.
    lanes: Vec<Lane>,
    wakes: BinaryHeap<Reverse<(Time, u64, Wake)>>,
    wake_seq: u64,
}

/// One operation a [`Reader`] keeps in flight.
#[derive(Debug, Clone, Copy)]
struct Lane {
    obj: usize,
    write: bool,
    site: usize,
    /// `wq_id` of the live attempt; `None` once completed or abandoned.
    inflight: Option<u64>,
    /// Operation start: the latency baseline.
    t_start: Time,
    /// Issue time of the current attempt: the transfer-phase baseline.
    t_issue: Time,
    /// Framework time the operation has spent so far.
    framework: Time,
    state: ReaderState,
}

impl Reader {
    /// Builds the reader `spec` declares; `targets` are the scenario's
    /// region targets, read when the spec names no objects.
    ///
    /// # Panics
    ///
    /// Panics on an empty object set, replicas that disagree on the object
    /// count, a zero failover timeout, a non-positive or non-finite
    /// arrival rate, a zero-length on-window, or a hot-set fraction
    /// outside `[0, 1]`.
    pub(crate) fn new(spec: &WorkloadSpec, targets: &[Addr]) -> Self {
        let payload = spec.payload_bytes();
        let (sites, failover) = match &spec.replicas {
            Some(replicas) => {
                assert!(!replicas.is_empty(), "a replicated reader needs replicas");
                let sites: Vec<(u8, Arc<[Addr]>)> = replicas
                    .iter()
                    .map(|(node, addrs)| (node_id(*node), addrs.as_slice().into()))
                    .collect();
                let n = sites[0].1.len();
                assert!(
                    sites.iter().all(|(_, addrs)| addrs.len() == n),
                    "every replica must hold every object"
                );
                assert!(
                    spec.failover_timeout > Time::ZERO,
                    "failover timeout must be positive"
                );
                let failover = Failover {
                    timeout: spec.failover_timeout,
                    migrate: spec.migrate,
                    replace_hops: spec.replace_hops,
                    suspected: vec![false; sites.len()],
                    hop_window: VecDeque::with_capacity(REPLACE_WINDOW),
                    bound: 0,
                    rr: 0,
                    successes_since_probe: 0,
                };
                (sites, Some(failover))
            }
            None => (vec![spec.single_store(targets)], None),
        };
        let n = sites[0].1.len() as u64;
        assert!(n > 0, "a reader needs objects");
        match spec.arrivals {
            Arrivals::Closed => {}
            Arrivals::Poisson { ops_per_us } => {
                assert!(
                    ops_per_us.is_finite() && ops_per_us > 0.0,
                    "Poisson rate must be positive and finite, got {ops_per_us}"
                );
            }
            Arrivals::OnOff { on, ops_per_us, .. } => {
                assert!(
                    ops_per_us.is_finite() && ops_per_us > 0.0,
                    "on/off rate must be positive and finite, got {ops_per_us}"
                );
                assert!(on > Time::ZERO, "on-window must be non-empty");
            }
        }
        let choice = if spec.is_plain_closed_loop() {
            Choice::Core
        } else {
            if let Popularity::HotSet { fraction, .. } = spec.popularity {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "hot-set fraction must be in [0, 1], got {fraction}"
                );
            }
            Choice::Forked {
                rng: None,
                popularity: spec.popularity,
                zipf: match spec.popularity {
                    Popularity::Zipf { exponent } => Some(Zipf::new(n, exponent)),
                    _ => None,
                },
                read_fraction: spec.read_fraction,
            }
        };
        let lane = Lane {
            obj: 0,
            write: false,
            site: 0,
            inflight: None,
            t_start: Time::ZERO,
            t_issue: Time::ZERO,
            framework: Time::ZERO,
            state: ReaderState::Idle,
        };
        Reader {
            sites,
            failover,
            payload,
            mech: spec.mech,
            wire: spec.wire.unwrap_or_else(|| spec.mech.wire_bytes(payload)),
            observer: spec.observer.clone(),
            remaining: spec.iterations,
            consume: spec.consume,
            framework: spec.framework,
            cpu_free: Time::ZERO,
            backoff: match spec.mech {
                ReadMechanism::SourceLocking { .. } => CAS_BACKOFF,
                _ => spec.backoff,
            },
            pace: Pace {
                arrivals: spec.arrivals,
                rng: None,
                start: Time::ZERO,
                active_ps: 0,
                backlog: VecDeque::new(),
            },
            choice,
            lanes: vec![lane; spec.window],
            wakes: BinaryHeap::new(),
            wake_seq: 0,
        }
    }

    /// The node, object address and local buffer of `lane`'s operation.
    /// Lane `i` reads into the core's buffer plus `i` wire sizes, each
    /// rounded up to whole blocks.
    fn target(&self, api: &CoreApi<'_>, lane: usize) -> (u8, Addr, Addr) {
        let Lane { obj, site, .. } = self.lanes[lane];
        let (node, ref addrs) = self.sites[site];
        let half = api.config().memory_bytes as u64 / 2;
        let base = Addr::new(half + api.core() as u64 * READER_BUF_BYTES);
        let slot = u64::from(self.wire).div_ceil(64) * 64;
        (node, addrs[obj], base + lane as u64 * slot)
    }

    /// The lane whose live attempt is `wq_id`, if any.
    fn lane_of(&self, wq_id: u64) -> Option<usize> {
        self.lanes.iter().position(|l| l.inflight == Some(wq_id))
    }

    /// Sleeps for `d` and remembers what the wake will mean.
    fn sleep(&mut self, api: &mut CoreApi<'_>, d: Time, kind: Wake) {
        let due = api.now() + d;
        self.wakes.push(Reverse((due, self.wake_seq, kind)));
        self.wake_seq += 1;
        api.sleep(d);
    }

    fn schedule_arrival(&mut self, api: &mut CoreApi<'_>) {
        let d = self.pace.next_arrival(api.now());
        self.sleep(api, d, Wake::Arrival);
    }

    /// One arrival fired: start the operation in an idle lane or queue it
    /// behind the ones in flight, then arm the next timer.
    fn on_arrival(&mut self, api: &mut CoreApi<'_>) {
        if self.remaining == Some(0) {
            return; // Quota met; let the arrival process wind down.
        }
        self.schedule_arrival(api);
        let now = api.now();
        match self.lanes.iter().position(|l| l.state == ReaderState::Idle) {
            Some(lane) => self.start_op(api, lane, now),
            None => {
                self.pace.backlog.push_back(now);
                let depth = self.pace.backlog.len() as u64;
                api.metrics().record_queued(depth);
            }
        }
    }

    /// `lane`'s previous operation completed (or none has started yet):
    /// start the next one there if the quota and the pacing allow.
    fn next_op(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        self.lanes[lane].state = ReaderState::Idle;
        if self.remaining == Some(0) {
            self.pace.backlog.clear();
            return;
        }
        let start = match self.pace.arrivals {
            Arrivals::Closed => Some(api.now()),
            _ => self.pace.backlog.pop_front(),
        };
        if let Some(t) = start {
            self.start_op(api, lane, t);
        }
    }

    /// Picks `lane`'s next object and operation type.
    fn choose(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        let n = self.sites[0].1.len() as u64;
        let lane = &mut self.lanes[lane];
        let Choice::Forked {
            rng,
            popularity,
            zipf,
            read_fraction,
        } = &mut self.choice
        else {
            lane.obj = api.rng().below(n) as usize;
            return;
        };
        let rng = rng.as_mut().expect("on_start forked the choice stream");
        let read_fraction = *read_fraction;
        let idx = match *popularity {
            Popularity::Uniform => rng.below(n),
            // Rank 1 is the hottest; map it to object 0.
            Popularity::Zipf { .. } => {
                zipf.as_ref().expect("built with the reader").sample(rng) - 1
            }
            Popularity::HotSet { hot, fraction } => {
                let hot = hot.min(n);
                if hot == 0 || hot == n {
                    rng.below(n)
                } else if rng.chance(fraction) {
                    rng.below(hot)
                } else {
                    hot + rng.below(n - hot)
                }
            }
        };
        lane.obj = idx as usize;
        lane.write = if read_fraction >= 1.0 {
            false
        } else if read_fraction <= 0.0 {
            true
        } else {
            !rng.chance(read_fraction)
        };
    }

    fn start_op(&mut self, api: &mut CoreApi<'_>, lane: usize, t_start: Time) {
        self.lanes[lane].t_start = t_start;
        self.choose(api, lane);
        self.lanes[lane].site = self.failover.as_mut().map_or(0, Failover::first_site);
        match self.framework {
            Some(FarmCosts { lookup, .. }) => {
                self.lanes[lane].framework = lookup;
                self.cpu(api, lane, ReaderState::Lookup, lookup);
            }
            None => self.issue(api, lane),
        }
    }

    /// (Re-)issues `lane`'s operation at its site; retries keep the same
    /// object and direction. A source-locking read starts with its CAS.
    fn issue(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        let (node, addr, buf) = self.target(api, lane);
        let (wq_id, state) = if self.lanes[lane].write {
            // One-sided write of the payload image from the local buffer.
            let wq_id = api.issue_write(node, addr, buf, self.payload);
            (wq_id, ReaderState::AwaitTransfer)
        } else if let ReadMechanism::SourceLocking { .. } = self.mech {
            // Round trip 1: acquire the remote lock with a one-sided CAS.
            let wq_id = api.issue(OpKind::LockCas, node, addr, buf, 8, 0);
            (wq_id, ReaderState::AwaitLock)
        } else {
            let wq_id = api.issue(self.mech.op(), node, addr, buf, self.wire, 0);
            (wq_id, ReaderState::AwaitTransfer)
        };
        self.track(api, lane, wq_id, state);
    }

    /// Makes `wq_id`, issued now, `lane`'s live attempt. A replicated read
    /// arms its failover timer.
    fn track(&mut self, api: &mut CoreApi<'_>, lane: usize, wq_id: u64, state: ReaderState) {
        let l = &mut self.lanes[lane];
        l.t_issue = api.now();
        l.inflight = Some(wq_id);
        l.state = state;
        if let Some(timeout) = self.failover.as_ref().map(|f| f.timeout) {
            self.sleep(api, timeout, Wake::Timeout(wq_id));
        }
    }

    /// Suspects `lane`'s replica and re-issues the same object at the next
    /// one the policy picks.
    fn advance_site(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        let failover = self.failover.as_mut().expect("only replica sets fail over");
        self.lanes[lane].site = failover.next_site(api, self.lanes[lane].site);
        self.issue(api, lane);
    }

    fn success(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        let Lane {
            obj,
            write,
            site,
            t_start,
            ..
        } = self.lanes[lane];
        if let (Some(observer), false) = (&self.observer, write) {
            let (served_by, _, buf) = self.target(api, lane);
            observer.call(&ObservedRead {
                node: api.node(),
                core: api.core(),
                obj,
                served_by: served_by as usize,
                at: api.now(),
                image: api.read_local(buf, self.wire as usize),
            });
        }
        let latency = api.now() - t_start;
        api.metrics().record_success(self.payload as u64, latency);
        if self.framework.is_some() {
            let t = self.lanes[lane].framework;
            api.metrics().record_phase(Phase::Framework, t);
        }
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        let node = self.sites[site].0;
        if let Some(failover) = &mut self.failover {
            let hops = failover.replace_hops.map(|_| hops_to(api, node));
            failover.on_success(api, hops);
        }
        self.next_op(api, lane);
    }

    fn retry(&mut self, api: &mut CoreApi<'_>, lane: usize) {
        api.metrics().record_retry();
        if self.backoff == Time::ZERO {
            self.issue(api, lane);
        } else {
            self.lanes[lane].state = ReaderState::Backoff;
            self.sleep(api, self.backoff, Wake::Service(lane));
        }
    }

    /// Sleeps `lane` through `t` of CPU work, entering `state`. The work
    /// starts once the core is free of the other lanes' CPU phases.
    fn cpu(&mut self, api: &mut CoreApi<'_>, lane: usize, state: ReaderState, t: Time) {
        let now = api.now();
        self.cpu_free = self.cpu_free.max(now) + t;
        self.lanes[lane].state = state;
        self.sleep(api, self.cpu_free - now, Wake::Service(lane));
    }

    /// The CPU phase that ends a valid read: `framework` time, plus the
    /// application reading the clean payload from `src` under consume.
    /// With neither, the read succeeds at once.
    fn consume(&mut self, api: &mut CoreApi<'_>, lane: usize, src: DataSource, framework: Time) {
        if !self.consume && framework == Time::ZERO {
            return self.success(api, lane);
        }
        let app = if self.consume {
            let t = api.cpu().read_time(self.payload as usize, src);
            api.metrics().record_phase(Phase::App, t);
            t
        } else {
            Time::ZERO
        };
        self.lanes[lane].framework += framework;
        self.cpu(api, lane, ReaderState::AwaitConsume, framework + app);
    }
}

/// Routed hops from this core's node to `dst` (0 when co-located).
fn hops_to(api: &CoreApi<'_>, dst: u8) -> u64 {
    let src = api.node();
    if src == dst as usize {
        0
    } else {
        api.config().fabric.topology.hops(src, dst as usize)
    }
}

/// A spec's node index as a wire node id.
pub(crate) fn node_id(node: usize) -> u8 {
    u8::try_from(node).expect("store node out of range")
}

impl Workload for Reader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        if let Choice::Forked { rng, .. } = &mut self.choice {
            *rng = Some(api.rng().fork(CHOICE_STREAM));
        }
        self.pace.start = api.now();
        if self.pace.arrivals == Arrivals::Closed {
            for lane in 0..self.lanes.len() {
                self.next_op(api, lane);
            }
        } else {
            self.pace.rng = Some(api.rng().fork(ARRIVAL_STREAM));
            self.schedule_arrival(api);
        }
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        let Some(lane) = self.lane_of(cq.wq_id) else {
            return; // An Oh-RAM confirm ack, an unlock, or an abandoned attempt.
        };
        self.lanes[lane].inflight = None;
        if self.lanes[lane].state == ReaderState::AwaitLock {
            if cq.success {
                // Round trip 2: the data read, now race-free.
                let (node, addr, buf) = self.target(api, lane);
                let wq_id = api.issue(OpKind::Read, node, addr, buf, self.wire, 0);
                self.track(api, lane, wq_id, ReaderState::AwaitTransfer);
            } else {
                self.retry(api, lane); // Contended: back off, then re-CAS.
            }
            return;
        }
        assert_eq!(self.lanes[lane].state, ReaderState::AwaitTransfer);
        if cq.refused && self.failover.is_some() {
            // The replica is catching up after an outage and keeps
            // refusing until it converges: suspect it and move on.
            api.metrics().record_stale_refusal();
            self.advance_site(api, lane);
            return;
        }
        let transfer = api.now() - self.lanes[lane].t_issue;
        api.metrics().record_phase(Phase::Transfer, transfer);
        if self.lanes[lane].write {
            if cq.success {
                self.success(api, lane);
            } else {
                self.retry(api, lane);
            }
            return;
        }
        let check = match self.mech {
            // Raw reads, and the wait-free register, whose capture always
            // delivers a consistent published version: nothing to check.
            ReadMechanism::Raw | ReadMechanism::WfRegister { .. } => None,
            ReadMechanism::Sabre if !cq.success => return self.retry(api, lane),
            ReadMechanism::Sabre => None,
            ReadMechanism::OhRam { .. } => {
                // Relay Oh-RAM's confirm write — the "half round" after
                // the query/response exchange — to the node that answered.
                // Fire-and-forget: the read is delivered before the ack
                // comes back, so it never adds to read latency.
                let (node, _, buf) = self.target(api, lane);
                let tag = tag_board_addr(api.config().memory_bytes as u64);
                api.issue_write(node, tag, buf, 8);
                None
            }
            ReadMechanism::SourceLocking { .. } => {
                // Fire the unlock without waiting for it.
                let (node, addr, buf) = self.target(api, lane);
                api.issue(OpKind::Unlock, node, addr, buf, 8, 0);
                None
            }
            ReadMechanism::PerClValidate { .. } => Some(api.cpu().strip_time(self.wire as usize)),
            ReadMechanism::ChecksumValidate { payload } => {
                Some(api.cpu().crc_time(payload as usize))
            }
        };
        match check {
            // The software check; FaRM runs it beside its management of
            // the system buffer the image landed in.
            Some(t) => {
                api.metrics().record_phase(Phase::Strip, t);
                let framework = self
                    .framework
                    .map_or(Time::ZERO, |c| c.framework_baseline());
                self.lanes[lane].framework += framework;
                self.cpu(api, lane, ReaderState::AwaitStrip, framework + t);
            }
            // Zero-copy: the object is already in the application buffer.
            None => {
                let framework = self.framework.map_or(Time::ZERO, |c| c.framework_sabre);
                self.consume(api, lane, DataSource::Llc, framework);
            }
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        let Reverse((due, _seq, kind)) = self
            .wakes
            .pop()
            .expect("a wake implies a pending sleep we recorded");
        debug_assert_eq!(due, api.now(), "wakes deliver in schedule order");
        match kind {
            Wake::Arrival => self.on_arrival(api),
            Wake::Timeout(wq_id) => {
                // Else the attempt completed before its timer: stale.
                if let Some(lane) = self.lane_of(wq_id) {
                    self.lanes[lane].inflight = None;
                    api.metrics().record_failover();
                    self.advance_site(api, lane);
                }
            }
            Wake::Service(lane) => match self.lanes[lane].state {
                ReaderState::AwaitStrip => {
                    let (layout, payload) = StoreLayout::of_mechanism(self.mech)
                        .expect("strip state only for software mechanisms");
                    let (_, _, buf) = self.target(api, lane);
                    let image = api.read_local(buf, self.wire as usize);
                    if layout.is_consistent(image, payload as usize) {
                        // The strip left the clean object in the L1d.
                        self.consume(api, lane, DataSource::L1, Time::ZERO);
                    } else {
                        self.retry(api, lane);
                    }
                }
                ReaderState::Lookup => self.issue(api, lane),
                ReaderState::AwaitConsume => self.success(api, lane),
                ReaderState::Backoff => self.issue(api, lane),
                s => panic!("unexpected service wake in state {s:?}"),
            },
        }
    }
}

/// Geometry of a per-site write log: one head block publishing the latest
/// sequence number, followed by a bounded ring of
/// [`RECORD_BYTES`](WriteLog::RECORD_BYTES)-byte `(object id, seq)`
/// records. Purely descriptive — the log lives in simulated node memory
/// and a [recovering](Writer::recovering) writer maintains it through
/// [`CoreApi::store_local`] like any other data, so log maintenance pays
/// real store pacing and coherence traffic.
///
/// The record for seq `s` is stored *before* the head bumps to `s`, and
/// stores execute in issue order, so any image of the region whose head
/// reads `s` holds every record `≤ s` intact, even if pulled while the
/// owner keeps appending.
///
/// Identical geometry on every replica site (same base, same capacity),
/// mirroring how the object stores replicate; a catch-up pull can
/// therefore read a peer's region at its own local addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteLog {
    base: Addr,
    cap: u64,
}

impl WriteLog {
    /// Bytes per `(object id u64, seq u64)` record.
    pub const RECORD_BYTES: u64 = 16;

    /// Bytes of the head block (only the leading u64 — the latest
    /// published seq — is meaningful; the rest pads to a cache block so
    /// head stores never share a block with records).
    pub const HEADER_BYTES: u64 = BLOCK_BYTES as u64;

    /// A log at `base` holding the most recent `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not block-aligned or `cap` is zero.
    pub fn new(base: Addr, cap: u64) -> Self {
        assert_eq!(base.block_offset(), 0, "write log must be block-aligned");
        assert!(cap > 0, "write log needs capacity");
        WriteLog { base, cap }
    }

    /// Ring capacity in records: a peer more than this many updates
    /// behind cannot catch up from the log (its record slots were
    /// overwritten by newer seqs).
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Address of the head word (latest published seq), the region's
    /// base.
    pub fn head_addr(&self) -> Addr {
        self.base
    }

    /// Address of the record slot for 1-based update seq `s` — records
    /// never straddle block boundaries (4 per block, exactly). The
    /// record's object id is the word at this address and its seq the
    /// word after it.
    ///
    /// # Panics
    ///
    /// Panics on the reserved seq 0.
    pub fn record_addr(&self, seq: u64) -> Addr {
        assert!(seq > 0, "log seqs are 1-based");
        self.base + Self::HEADER_BYTES + ((seq - 1) % self.cap) * Self::RECORD_BYTES
    }

    /// Total bytes of the region (head block + ring, rounded up to whole
    /// blocks) — what a catch-up pull transfers.
    pub fn region_bytes(&self) -> u32 {
        let ring =
            (self.cap * Self::RECORD_BYTES).div_ceil(BLOCK_BYTES as u64) * BLOCK_BYTES as u64;
        u32::try_from(Self::HEADER_BYTES + ring).expect("write log region exceeds u32 bytes")
    }

    /// The wire encoding of one record.
    pub fn encode_record(obj_id: u64, seq: u64) -> [u8; 16] {
        let mut rec = [0u8; 16];
        rec[..8].copy_from_slice(&obj_id.to_le_bytes());
        rec[8..].copy_from_slice(&seq.to_le_bytes());
        rec
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterPhase {
    /// Resting between updates, or serving RPCs with an empty queue.
    Idle,
    /// An update is in progress; each wake is one [`UpdatePlan::step`].
    Updating,
    /// Waiting for readers to drain (locking-mode experiments).
    SpinningOnReaders,
    /// Recovering: published; the log record store is next.
    LogRecord,
    /// Recovering: record stored; the log head store is next.
    LogHead,
    /// Recovering: sleeping out an own-node outage, or waiting to retry
    /// a pull when no peer was live.
    Frozen,
    /// Recovering: a catch-up pull is in flight.
    AwaitPull,
}

/// A write RPC queued at an [RPC-serving](Writer::serving_rpcs) writer:
/// the client's node and core, and the object id it names (also the
/// reply's tag).
#[derive(Debug, Clone, Copy)]
struct PendingRpc {
    src_node: u8,
    src_core: u8,
    obj: u64,
}

/// The replica-site state of a [recovering](Writer::recovering) writer.
#[derive(Debug)]
struct Recovery {
    log: WriteLog,
    /// The same geometry at the local scratch region a pulled log image
    /// lands in.
    image: WriteLog,
    /// Fellow replica sites (own node excluded), catch-up sources.
    peers: Vec<u8>,
    /// Stop re-pulling once the remaining lag is at most this many
    /// updates; the tail is reproduced by resuming the own schedule.
    converged_lag: u64,
    /// `Some(target)`: replaying pulled updates up to log seq `target`.
    replay_until: Option<u64>,
    /// The in-flight pull's work-queue id and the peer it targets.
    pull: Option<(u64, u8)>,
    /// Peers that refused this pull round (themselves catching up).
    refused_peers: Vec<u8>,
    /// `Some(start)` from the first pull after an outage until
    /// convergence: the site holds the epoch/seq guard.
    catching_up_since: Option<Time>,
}

/// The one writer program: an object's owner core applying updates one
/// store at a time (§7's CREW writer threads, §2.1/§6's FaRM data owner).
///
/// One store (one cache block or less) is applied per
/// [`ClusterConfig::writer_store_interval`](crate::ClusterConfig), so a
/// racing remote reader observes genuinely torn intermediate states unless
/// an atomicity mechanism intervenes. Under destination locking
/// ([`ClusterConfig::reader_locks`](crate::ClusterConfig::reader_locks)) it
/// waits for an object's shared reader lock to drain before updating it,
/// and it spins on a version word a source-locking reader holds.
///
/// Update `n` (0-based) of the own schedule touches `objects[n % k]`
/// with pattern seq `n`. Three shapes share that schedule's counter and
/// the update loop:
///
/// * [`Writer::new`]: a local CREW thread (Concurrent-Read-Exclusive-Write:
///   each object has one writer) resting `max(think, store interval)`
///   after each publish;
/// * [`.serving_rpcs()`](Writer::serving_rpcs): FaRM's owner-side write
///   server, updating the object each write RPC names and replying at
///   publish;
/// * [`.recovering(..)`](Writer::recovering): a replica site maintaining a
///   [`WriteLog`] that catches up from a live peer after an outage.
#[derive(Debug)]
pub struct Writer {
    objects: Vec<(u64, Addr)>,
    payload: u32,
    layout: StoreLayout,
    think: Time,
    /// Completed updates: the pattern seq of the next one, and (when
    /// recovering) the latest own log seq, 1-based.
    seq: u64,
    phase: WriterPhase,
    /// The stores of the update in progress, built when it starts (so a
    /// plan never outlives an outage).
    plan: UpdatePlan,
    /// `Some(queue)`: serving write RPCs, oldest first.
    rpcs: Option<VecDeque<PendingRpc>>,
    recovery: Option<Recovery>,
}

/// Delay before a recovering writer re-checks for a live peer when every
/// peer was down at pull time.
const PEER_RETRY: Time = Time::from_us(1);

/// Why `.serving_rpcs()` and `.recovering(..)` exclude each other.
const RECOVERING_RPCS: &str =
    "a recovering writer cannot serve RPCs: a replay assumes the own schedule";

/// Whether the core's own node is down: if so, sleeps until the outage
/// ends (forever, for a permanent crash).
fn sleep_out_outage(api: &mut CoreApi<'_>) -> bool {
    let Some(outage) = api.config().fault.outage_at(api.node(), api.now()) else {
        return false;
    };
    if let Some(until) = outage.until {
        let now = api.now();
        api.sleep(until - now);
    }
    true
}

impl Writer {
    /// Creates a CREW writer owning `objects` (pairs of object id and base
    /// address, all local), updating them round-robin with `think` pause
    /// between updates.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is empty.
    pub fn new(objects: Vec<(u64, Addr)>, payload: u32, layout: StoreLayout, think: Time) -> Self {
        assert!(!objects.is_empty(), "a writer needs at least one object");
        Writer {
            objects,
            payload,
            layout,
            think,
            seq: 0,
            phase: WriterPhase::Idle,
            plan: UpdatePlan::new(),
            rpcs: None,
            recovery: None,
        }
    }

    /// FaRM's owner-side write server (§2.1: "writes are sent to the data
    /// owner over an RPC"): instead of its own schedule, it updates the
    /// object whose id each write RPC carries as its tag, replies at
    /// publish and starts the next queued update at once; with the queue
    /// empty it idles without sleeping. The objects must be indexed by id,
    /// as `sabre_farm::ObjectStore::object_entries` yields them.
    ///
    /// # Panics
    ///
    /// Panics if `think` is not zero, the writer is
    /// [recovering](Writer::recovering), or an object's id is not its
    /// index.
    pub fn serving_rpcs(mut self) -> Self {
        assert!(
            self.think == Time::ZERO,
            "an RPC-serving writer cannot honour a think pause"
        );
        assert!(self.recovery.is_none(), "{RECOVERING_RPCS}");
        assert!(
            (0..).zip(&self.objects).all(|(i, &(id, _))| id == i),
            "an RPC-serving writer's objects must be indexed by id"
        );
        self.rpcs = Some(VecDeque::new());
        self
    }

    /// Makes the writer one replica site with crash/recovery semantics.
    ///
    /// After each publish it stores the update's [`WriteLog`] record and
    /// then the log head, one store interval apart. It freezes at update
    /// boundaries while its own node is down; once restored it takes the
    /// node's epoch/seq guard ([`CoreApi::set_catching_up`]: reads are
    /// refused, or served stale under
    /// [`serve_stale`](crate::ClusterConfig::serve_stale)), pulls the
    /// nearest live peer's log region (`log`'s geometry) into `pull_buf`
    /// over the fabric ([`OpKind::CatchUpPull`]), replays the missed
    /// updates through the same update loop, and re-pulls until the
    /// remaining lag is at most `converged_lag`; the tail is reproduced by
    /// resuming the own schedule. Every site runs the same schedule, so a
    /// replay reproduces the site's own missed updates bit-identically.
    ///
    /// A peer that refuses the pull (it is itself catching up) is struck
    /// off for the round and the next-nearest one is tried; with no
    /// candidate left the writer retries the full list 1 µs later. Under
    /// destination locking, entering catch-up clears the objects' reader
    /// lock words: a lock still set on a restored site is dead (its
    /// release was dropped with the outage). A permanent crash freezes the
    /// writer forever, and a pull whose peer dies mid-transfer stalls it
    /// until the horizon.
    ///
    /// Convergence needs a positive `think`: replay runs think-free, so it
    /// outpaces live peers and the lag shrinks every round.
    ///
    /// # Panics
    ///
    /// Panics if the writer serves RPCs (a replay assumes the own
    /// schedule), `peers` is empty, or `converged_lag` is not below the
    /// log capacity (the writer could then "converge" onto a wrapped —
    /// unrecoverable — range).
    pub fn recovering(
        mut self,
        log: WriteLog,
        peers: Vec<u8>,
        pull_buf: Addr,
        converged_lag: u64,
    ) -> Self {
        assert!(self.rpcs.is_none(), "{RECOVERING_RPCS}");
        assert!(!peers.is_empty(), "a recovering writer needs peers");
        assert!(
            converged_lag < log.capacity(),
            "converged lag must fit the log ring"
        );
        self.recovery = Some(Recovery {
            log,
            image: WriteLog::new(pull_buf, log.capacity()),
            peers,
            converged_lag,
            replay_until: None,
            pull: None,
            refused_peers: Vec::new(),
            catching_up_since: None,
        });
        self
    }

    /// The object of the own schedule's next update.
    fn object(&self) -> (u64, Addr) {
        self.objects[(self.seq % self.objects.len() as u64) as usize]
    }

    /// Update boundary: a recovering writer freezes while its own node is
    /// down; otherwise the next update starts.
    fn begin(&mut self, api: &mut CoreApi<'_>) {
        if self.recovery.is_some() && sleep_out_outage(api) {
            // Local state survives a service outage, so freeze until
            // restoration, then catch up.
            self.recovery().catching_up_since = None;
            self.phase = WriterPhase::Frozen;
        } else {
            self.start_update(api);
        }
    }

    /// Starts the next update through [`UpdatePlan::start`] — the queue's
    /// head request when serving RPCs, else the own schedule's next
    /// object — or spins on a held lock. A replayed update first proves
    /// the pulled image recorded it.
    fn start_update(&mut self, api: &mut CoreApi<'_>) {
        let object = match &self.rpcs {
            Some(queue) => match queue.front() {
                Some(req) => self.objects[req.obj as usize],
                None => {
                    self.phase = WriterPhase::Idle;
                    return;
                }
            },
            None => self.object(),
        };
        if let Some(Recovery {
            image,
            log,
            replay_until: Some(target),
            ..
        }) = &self.recovery
        {
            let seq = self.seq + 1;
            let record = image.record_addr(seq);
            assert_eq!(
                api.read_local_u64(record + 8),
                seq,
                "write log wrapped under a catch-up (lag {} > capacity {})",
                target - self.seq,
                log.capacity()
            );
            assert_eq!(
                api.read_local_u64(record),
                object.0,
                "pulled record disagrees with schedule"
            );
        }
        self.phase = if self
            .plan
            .start(api, self.layout, object, self.seq, self.payload as usize)
        {
            WriterPhase::Updating
        } else {
            WriterPhase::SpinningOnReaders
        };
    }

    /// The update published: reply and start the next queued one, store
    /// the log record next, or rest.
    fn published(&mut self, api: &mut CoreApi<'_>) {
        if let Some(queue) = &mut self.rpcs {
            let req = queue.pop_front().expect("an update serves a request");
            self.seq += 1;
            api.reply_rpc(req.src_node, req.src_core, req.obj, 16);
            self.start_update(api);
        } else if self.recovery.is_some() {
            self.phase = WriterPhase::LogRecord;
            api.sleep(api.config().writer_store_interval);
        } else {
            self.seq += 1;
            self.rest(api);
        }
    }

    /// Sleeps out the pause between own updates.
    fn rest(&mut self, api: &mut CoreApi<'_>) {
        self.phase = WriterPhase::Idle;
        api.sleep(self.think.max(api.config().writer_store_interval));
    }

    fn recovery(&mut self) -> &mut Recovery {
        self.recovery.as_mut().expect("only a recovering writer")
    }

    /// A frozen wake: stay frozen through back-to-back outage windows, or
    /// enter (or continue) catch-up.
    fn resume(&mut self, api: &mut CoreApi<'_>) {
        if sleep_out_outage(api) {
            return;
        }
        if self.recovery().catching_up_since.is_none() {
            self.recovery().catching_up_since = Some(api.now());
            api.set_catching_up(true);
            if api.config().reader_locks() {
                // Lease expiry: a shared reader lock still set on a
                // restored site is dead — its fire-and-forget release was
                // dropped with the outage. Clear them, or the writer spins
                // forever on a lock nobody holds and the site never
                // catches up.
                for &(_, base) in &self.objects {
                    api.store_local_u64(base + ReaderLockWord::OFFSET_FROM_VERSION, 0);
                }
            }
        }
        self.issue_pull(api);
    }

    /// Pulls the nearest live peer's write-log region, skipping peers that
    /// refused this round; retries later if no candidate is left.
    fn issue_pull(&mut self, api: &mut CoreApi<'_>) {
        let now = api.now();
        let topo = api.config().fabric.topology;
        let own = api.node();
        let rec = self.recovery.as_mut().expect("only a recovering writer");
        let peer = rec
            .peers
            .iter()
            .copied()
            .filter(|&p| {
                !rec.refused_peers.contains(&p)
                    && api.config().fault.outage_at(p as usize, now).is_none()
            })
            .min_by_key(|&p| (topo.hops(own, p as usize), p));
        let Some(peer) = peer else {
            // Every peer is down or itself catching up: sleep and retry
            // the full list (a sibling may have converged meanwhile).
            rec.refused_peers.clear();
            self.phase = WriterPhase::Frozen;
            api.sleep(PEER_RETRY);
            return;
        };
        let wq_id = api.issue(
            OpKind::CatchUpPull,
            peer,
            rec.log.head_addr(),
            rec.image.head_addr(),
            rec.log.region_bytes(),
            0,
        );
        rec.pull = Some((wq_id, peer));
        self.phase = WriterPhase::AwaitPull;
    }

    /// A pull completed: replay the missed range, or declare convergence
    /// and drop the guard.
    fn on_pull(&mut self, api: &mut CoreApi<'_>) {
        api.metrics().record_catch_up();
        let seq = self.seq;
        let rec = self.recovery();
        let latest = api.read_local_u64(rec.image.head_addr());
        if latest.saturating_sub(seq) <= rec.converged_lag {
            // Converged: the ≤ lag trailing updates are reproduced by
            // resuming the own (identical) schedule.
            let since = rec.catching_up_since.take().expect("pulls catch up");
            rec.replay_until = None;
            let window = api.now() - since;
            api.metrics().record_catch_up_window(window);
            api.set_catching_up(false);
            self.rest(api);
        } else {
            rec.replay_until = Some(latest);
            self.start_update(api);
        }
    }
}

impl Workload for Writer {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.phase {
            WriterPhase::Updating => {
                if self.plan.step(api) {
                    self.published(api);
                }
            }
            // A spin re-enters through the outage check: it can straddle
            // an outage start, and a recovering writer must freeze at the
            // boundary rather than keep polling a lock word no reader can
            // touch while the node is down.
            WriterPhase::Idle | WriterPhase::SpinningOnReaders => self.begin(api),
            WriterPhase::LogRecord => {
                // Record first, head second: a concurrent pull seeing
                // head = s is guaranteed the record for s is complete.
                let seq = self.seq + 1;
                let (obj_id, _) = self.object();
                let addr = self.recovery().log.record_addr(seq);
                api.store_local(addr, &WriteLog::encode_record(obj_id, seq));
                self.phase = WriterPhase::LogHead;
                api.sleep(api.config().writer_store_interval);
            }
            WriterPhase::LogHead => {
                // The update is logged: rest, continue replaying, or end
                // the round and re-pull to measure the fresh lag (peers
                // kept writing meanwhile).
                self.seq += 1;
                let rec = self.recovery();
                let (head, replay_until) = (rec.log.head_addr(), rec.replay_until);
                api.store_local_u64(head, self.seq);
                match replay_until {
                    None => self.rest(api),
                    Some(target) => {
                        api.metrics().record_replay();
                        if self.seq >= target {
                            self.issue_pull(api);
                        } else {
                            self.start_update(api);
                        }
                    }
                }
            }
            WriterPhase::Frozen => self.resume(api),
            WriterPhase::AwaitPull => unreachable!("no sleeps while a pull is in flight"),
        }
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        assert_eq!(self.phase, WriterPhase::AwaitPull, "only pulls are issued");
        let rec = self.recovery();
        let (wq_id, peer) = rec.pull.take().expect("a pull is in flight");
        assert_eq!(wq_id, cq.wq_id, "unexpected completion");
        if cq.refused {
            // That peer is itself catching up; strike it for this round
            // and try the next-nearest one.
            rec.refused_peers.push(peer);
            self.issue_pull(api);
            return;
        }
        assert!(cq.success, "catch-up pulls cannot abort");
        rec.refused_peers.clear();
        self.on_pull(api);
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, _bytes: u32) {
        let queue = self.rpcs.as_mut().expect("only an RPC-serving writer");
        queue.push_back(PendingRpc {
            src_node,
            src_core,
            obj: tag,
        });
        if self.phase == WriterPhase::Idle {
            self.start_update(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crew(think: Time) -> Writer {
        let objects = vec![(0, Addr::new(0)), (1, Addr::new(192))];
        Writer::new(objects, 64, StoreLayout::Clean, think)
    }

    fn recovering(think: Time, peers: Vec<u8>, converged_lag: u64) -> Writer {
        let log = WriteLog::new(Addr::new(1 << 20), 8);
        crew(think).recovering(log, peers, Addr::new(2 << 20), converged_lag)
    }

    #[test]
    fn writer_rejects_shapes_it_cannot_run() {
        type Build = fn() -> Writer;
        let cases: [(Build, &str); 6] = [
            (
                || crew(Time::from_ns(50)).serving_rpcs(),
                "an RPC-serving writer cannot honour a think pause",
            ),
            (
                || {
                    let log = WriteLog::new(Addr::new(1 << 20), 8);
                    crew(Time::ZERO)
                        .serving_rpcs()
                        .recovering(log, vec![1], Addr::new(2 << 20), 4)
                },
                RECOVERING_RPCS,
            ),
            (
                || recovering(Time::ZERO, vec![1], 4).serving_rpcs(),
                RECOVERING_RPCS,
            ),
            (
                || recovering(Time::from_ns(50), Vec::new(), 4),
                "a recovering writer needs peers",
            ),
            (
                || recovering(Time::from_ns(50), vec![1], 8),
                "converged lag must fit the log ring",
            ),
            (
                || {
                    Writer::new(vec![(1, Addr::new(0))], 64, StoreLayout::Clean, Time::ZERO)
                        .serving_rpcs()
                },
                "an RPC-serving writer's objects must be indexed by id",
            ),
        ];
        for (build, expected) in cases {
            let Err(panic) = std::panic::catch_unwind(build) else {
                panic!("built despite: {expected}");
            };
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(message, expected);
        }
        // The shapes each accept on their own.
        let _ = crew(Time::ZERO).serving_rpcs();
        let _ = recovering(Time::from_ns(50), vec![1], 7);
    }
}
