//! Reusable workload programs: the microbenchmark readers and writers of
//! §6/§7 ("a number of writer threads that update objects in their local
//! memory, or reader threads that access objects in remote memory using
//! one-sided soNUMA operations in a tight loop").
//!
//! The writers here and in `sabre_farm` keep their objects in a
//! [`StoreLayout`] and walk each update through an [`UpdatePlan`], both
//! from [`crate::layout`]; [`WriterLayout`] names the same type.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use sabre_mem::Addr;
use sabre_sim::{SimRng, Time, Zipf};
use sabre_sonuma::{CqEntry, OpKind};
use sabre_sw::cost::{DataSource, FarmCosts};
use sabre_sw::tag_board_addr;

use crate::cluster::CoreApi;
/// The object layout under its writer-side name: the same type as
/// [`StoreLayout`].
pub use crate::layout::StoreLayout as WriterLayout;
use crate::layout::{StoreLayout, UpdatePlan};
use crate::metrics::Phase;
use crate::spec::{Arrivals, Popularity, WorkloadSpec};
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

/// Local buffer bytes per core: the default buffer of core `c` sits at
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
/// discarded.
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
    local_buf: Option<Addr>,
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
            local_buf: spec.local_buf,
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
        let base = self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * READER_BUF_BYTES)
        });
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
        let Lane { t_start, site, .. } = self.lanes[lane];
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
                    if layout.validate(&image, payload as usize).is_some() {
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterPhase {
    Idle,
    /// An update is in progress; each wake is one [`UpdatePlan::step`].
    Updating,
    /// Waiting for readers to drain (locking-mode experiments).
    SpinningOnReaders,
}

/// A local writer thread repeatedly updating its subset of objects
/// (Concurrent-Read-Exclusive-Write: each object has one writer).
///
/// One store (one cache block or less) is applied per
/// [`ClusterConfig::writer_store_interval`](crate::ClusterConfig), so a
/// racing remote reader observes genuinely torn intermediate states unless
/// an atomicity mechanism intervenes. Under destination locking
/// ([`ClusterConfig::reader_locks`](crate::ClusterConfig::reader_locks)) it
/// waits for an object's shared reader lock to drain before updating it.
#[derive(Debug)]
pub struct Writer {
    objects: Vec<(u64, Addr)>,
    payload: u32,
    layout: StoreLayout,
    think: Time,
    seq: u64,
    cur: usize,
    phase: WriterPhase,
    /// The stores of the update in progress, built when it starts.
    plan: UpdatePlan,
    updates: u64,
}

impl Writer {
    /// Creates a writer owning `objects` (pairs of object id and base
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
            cur: 0,
            phase: WriterPhase::Idle,
            plan: UpdatePlan::new(),
            updates: 0,
        }
    }

    /// Completed object updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn begin_update(&mut self, api: &mut CoreApi<'_>) {
        self.phase = if self.plan.start(
            api,
            self.layout,
            self.objects[self.cur],
            self.seq,
            self.payload as usize,
        ) {
            WriterPhase::Updating
        } else {
            WriterPhase::SpinningOnReaders
        };
    }
}

impl Workload for Writer {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin_update(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.phase {
            WriterPhase::Idle => self.begin_update(api),
            WriterPhase::SpinningOnReaders => self.begin_update(api),
            WriterPhase::Updating => {
                if self.plan.step(api) {
                    self.updates += 1;
                    self.seq += 1;
                    self.cur = (self.cur + 1) % self.objects.len();
                    self.phase = WriterPhase::Idle;
                    api.sleep(self.think.max(api.config().writer_store_interval));
                }
            }
        }
    }
}
