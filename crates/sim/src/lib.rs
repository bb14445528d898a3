//! Deterministic discrete-event simulation engine.
//!
//! This crate is the bottom layer of the SABRes reproduction. It provides:
//!
//! * [`Time`] — virtual time in integer picoseconds, with frequency-aware
//!   cycle conversions ([`Freq`]).
//! * [`EventQueue`] — a stable (FIFO-within-same-timestamp) priority queue of
//!   timestamped events, generic over the event payload.
//! * [`CalendarQueue`] — the same contract bucketed by time window, so a
//!   windowed loop drains each lookahead span as one sorted batch.
//! * [`FastMap`] — a `HashMap` with a fixed-key multiply-rotate hasher for
//!   the protocol layers' per-packet maps.
//! * [`server`] — analytic queued servers used to model bandwidth-limited
//!   resources (memory channels, fabric links, pipelines).
//! * [`stats`] — mean/min/max trackers, the deterministic integer latency
//!   histogram and fabric hop counters used by the experiment harness.
//!
//! The engine is single-threaded and fully deterministic: identical inputs
//! (including RNG seeds) produce identical simulated histories, which the
//! test suite relies on.
//!
//! # Example
//!
//! ```
//! use sabre_sim::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_ns(5), "late");
//! q.schedule(Time::from_ns(1), "early");
//! let (t, ev) = q.pop().expect("two events were scheduled");
//! assert_eq!((t, ev), (Time::from_ns(1), "early"));
//! ```

pub mod calendar;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use hash::{FastHasher, FastMap, FastSet};
pub use queue::EventQueue;
pub use rng::{SimRng, Zipf};
pub use server::{BandwidthServer, FifoServer};
pub use stats::{HopStats, LatencyHistogram, MeanTracker};
pub use time::{Freq, Time};
