//! The reference kernel every serial measured window is timed against, and
//! the slice clock that interleaves it with the window.
//!
//! The benchmark's host shares its cores with other tenants, and their load
//! slows the simulator by up to 2× for minutes at a time: raw window times
//! spread 21–50 % across ten runs of a workload. The benchmark therefore
//! carries its own small event loop — a binary heap of pending events
//! driving updates of a 2 K-key hash table — and runs a short fixed chunk
//! of it at every slice boundary of the window. Each stretch of simulation
//! divided by the chunk timed right after it cancels the host's speed at
//! that moment; summed over the window it gives `run_ref`, the window's
//! cost in reference units. Of the kernels tried, only this one tracked the
//! slowdown (see `README.md`): an arithmetic loop, pointer chases and the
//! same loop over a larger table did not.
//!
//! The kernel is the benchmark's own code, so a change to the simulator
//! moves `run_ref` and never the unit it is measured in.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use sabre_sim::Time;

/// Pending events in the reference queue.
const EVENTS: u64 = 64;
/// Keys of the reference table: small enough to stay in L1.
const KEYS: u64 = 2_048;
/// Reference steps one chunk runs (0.16–0.22 ms on the baseline host).
pub const CHUNK_STEPS: u64 = 3_000;
/// Reference steps in one `ref`, the unit of `run_ref`.
pub const UNIT_STEPS: f64 = 1e6;

/// A fixed, simulator-shaped computation: pop the earliest event, update a
/// pseudo-random table entry, schedule the event again a pseudo-random
/// delay later. Deterministic: a fixed hasher and a fixed generator seed.
#[derive(Debug)]
pub struct Reference {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    rng: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A warmed kernel: every key present, every event pending.
    pub fn new() -> Self {
        let mut r = Reference {
            queue: BinaryHeap::with_capacity(EVENTS as usize + 1),
            table: HashMap::default(),
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for key in 0..KEYS {
            r.table.insert(key, 0);
        }
        for id in 0..EVENTS {
            let at = r.next() % 1_000;
            r.queue.push(Reverse((at, id)));
        }
        black_box(r.steps(CHUNK_STEPS));
        r
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs `n` steps.
    pub fn steps(&mut self, n: u64) -> u64 {
        let mut acc = 0;
        for _ in 0..n {
            let Reverse((at, id)) = self.queue.pop().expect("the queue never drains");
            let key = self.next() % KEYS;
            *self.table.get_mut(&key).expect("every key is present") += at;
            acc ^= id;
            let delay = 1 + self.next() % 1_000;
            self.queue.push(Reverse((at + delay, id)));
        }
        acc
    }

    /// Runs one chunk of [`CHUNK_STEPS`]; returns its start and end.
    pub fn chunk(&mut self) -> (Instant, Instant) {
        let t = Instant::now();
        black_box(self.steps(CHUNK_STEPS));
        (t, Instant::now())
    }
}

/// One reference chunk run inside a measured window.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// The slice whose boundary the observed core crossed.
    slice: u64,
    /// Host instant the chunk started.
    start: Instant,
    /// Host instant the chunk ended.
    end: Instant,
}

impl Chunk {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Runs a reference chunk at each slice boundary of a measured window, as
/// seen by one observed reader core, which a forwarding wrapper reports each
/// event of.
///
/// Slicing `Cluster::run_for` itself would move the event loop's window
/// boundaries, and the order in which equal-time arrivals from different
/// sources enter a node's queue depends on them: `replica_churn` replays
/// differently when sliced. An observer only reads the simulated time of
/// events that happen anyway and runs host code that touches no simulated
/// state, so the simulation is bit-identical to an unobserved one.
#[derive(Debug)]
pub struct SliceClock {
    start: Time,
    slice: Time,
    slices: u64,
    state: Mutex<(Reference, Vec<Chunk>)>,
}

/// A measured window's host time, split into simulation and reference.
#[derive(Debug, Clone)]
pub struct WindowTimes {
    /// Host seconds spent simulating (the window minus the chunks).
    pub sim_s: f64,
    /// The window's cost in `ref`: each stretch of simulation divided by
    /// the chunk run right after it (the last stretch by the chunk before
    /// it), summed, in units of [`UNIT_STEPS`] reference steps.
    pub run_ref: f64,
    /// Host ns per reference step over the window's chunks.
    pub ref_step_ns: f64,
    /// Host ms of simulation per slice. Slices in which the observed core
    /// saw no event share the time up to its next event evenly.
    pub slices_ms: Vec<f64>,
    /// Start and end of every reference chunk.
    pub chunks: Vec<(Instant, Instant)>,
}

impl SliceClock {
    /// A clock for `slices` slices of `slice` starting at simulated time
    /// `start`.
    pub fn new(start: Time, slice: Time, slices: u64) -> Self {
        SliceClock {
            start,
            slice,
            slices,
            state: Mutex::new((Reference::new(), Vec::new())),
        }
    }

    /// Notes an event at simulated time `now`: the first event at or past
    /// a slice boundary runs a reference chunk.
    pub fn observe(&self, now: Time) {
        let Some(since) = now.checked_sub(self.start) else {
            return;
        };
        let slice = since.as_ps() / self.slice.as_ps();
        if slice >= self.slices {
            return;
        }
        let mut state = self.state.lock().expect("slice clock poisoned");
        let (reference, chunks) = &mut *state;
        if chunks.last().is_none_or(|c| slice > c.slice) {
            let (start, end) = reference.chunk();
            chunks.push(Chunk { slice, start, end });
        }
    }

    /// Splits the window measured from `begin` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if the observed core saw no event in the window, so that no
    /// chunk ran: every workload's first reader is busy throughout.
    pub fn times(&self, begin: Instant, end: Instant) -> WindowTimes {
        let slices = self.slices;
        let state = self.state.lock().expect("slice clock poisoned");
        let chunks = &state.1;
        assert!(!chunks.is_empty(), "no reference chunk ran in the window");
        // Stretches of simulation between chunks: (first slice, end slice,
        // host seconds, the chunk that normalises it — the one right after
        // the stretch, or for the last stretch the one before it).
        let mut stretches = Vec::with_capacity(chunks.len() + 1);
        let mut from = (0, begin);
        for c in chunks {
            stretches.push((from.0, c.slice, (c.start - from.1).as_secs_f64(), c.secs()));
            from = (c.slice, c.end);
        }
        let last = chunks[chunks.len() - 1];
        stretches.push((from.0, slices, (end - from.1).as_secs_f64(), last.secs()));

        let mut slices_ms = vec![0.0; slices as usize];
        for &(k0, k1, secs, _) in &stretches {
            // The stretch before the first chunk of slice 0 belongs to it.
            let k1 = k1.max(k0 + 1).min(slices);
            let each = secs * 1e3 / (k1 - k0) as f64;
            for ms in &mut slices_ms[k0 as usize..k1 as usize] {
                *ms += each;
            }
        }
        let ref_s: f64 = chunks.iter().map(Chunk::secs).sum();
        WindowTimes {
            sim_s: stretches.iter().map(|s| s.2).sum(),
            run_ref: stretches.iter().map(|s| s.2 / s.3).sum::<f64>() * CHUNK_STEPS as f64
                / UNIT_STEPS,
            ref_step_ns: ref_s * 1e9 / (chunks.len() as u64 * CHUNK_STEPS) as f64,
            slices_ms,
            chunks: chunks.iter().map(|c| (c.start, c.end)).collect(),
        }
    }
}
