//! Analytic queued servers.
//!
//! These model bandwidth-limited, in-order resources — memory channels, NOC
//! and fabric links, pipeline issue slots — without simulating their internal
//! structure. A server tracks the instant it next becomes free; a request
//! arriving at `now` begins service at `max(now, next_free)`, occupies the
//! server for its service time, and completes after its latency.
//!
//! This is the standard transaction-level technique for modeling DDR
//! channels and links: it preserves both the *bandwidth ceiling* (requests
//! queue when offered load exceeds capacity) and the *unloaded latency*.

use crate::time::{transfer_time, Time};

/// An in-order single server with a fixed per-request service time model.
///
/// # Example
///
/// ```
/// use sabre_sim::{FifoServer, Time};
///
/// // A DDR4 channel: 2.5 ns occupancy per 64 B block.
/// let mut chan = FifoServer::new();
/// let occupancy = Time::from_ps(2_500);
/// let start0 = chan.admit(Time::ZERO, occupancy);
/// let start1 = chan.admit(Time::ZERO, occupancy);
/// assert_eq!(start0, Time::ZERO);
/// assert_eq!(start1, Time::from_ps(2_500)); // queued behind the first
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    next_free: Time,
    busy_total: Time,
    served: u64,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Admits a request arriving at `now` that occupies the server for
    /// `service`. Returns the instant service *begins* (i.e. after any
    /// queueing delay); the request completes at `start + service` plus any
    /// downstream latency the caller adds.
    pub fn admit(&mut self, now: Time, service: Time) -> Time {
        let start = now.max(self.next_free);
        self.next_free = start + service;
        self.busy_total += service;
        self.served += 1;
        start
    }

    /// The instant the server next becomes free.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total time spent busy.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A bandwidth-limited pipe (link or bus): occupancy per request is
/// `bytes / bandwidth`, and a fixed propagation latency is added on top.
///
/// Multiple back-to-back messages pipeline: the second message's bytes start
/// flowing as soon as the first's have been pushed into the link, while each
/// message still experiences the full propagation delay.
///
/// # Example
///
/// ```
/// use sabre_sim::{BandwidthServer, Time};
///
/// // The paper's inter-node fabric: 100 GBps, 35 ns per hop.
/// let mut link = BandwidthServer::new(100.0, Time::from_ns(35));
/// let arrive = link.transmit(Time::ZERO, 100); // 100 B: 1 ns serialization
/// assert_eq!(arrive, Time::from_ns(36));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    gbps: f64,
    latency: Time,
    server: FifoServer,
    bytes_total: u64,
}

impl BandwidthServer {
    /// Creates a pipe with the given bandwidth (decimal GB/s) and fixed
    /// propagation latency.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn new(gbps: f64, latency: Time) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        BandwidthServer {
            gbps,
            latency,
            server: FifoServer::new(),
            bytes_total: 0,
        }
    }

    /// Transmits `bytes` starting no earlier than `now`; returns the arrival
    /// time at the far end (serialization + queueing + propagation).
    pub fn transmit(&mut self, now: Time, bytes: u64) -> Time {
        let ser = transfer_time(bytes, self.gbps);
        let start = self.server.admit(now, ser);
        self.bytes_total += bytes;
        start + ser + self.latency
    }

    /// Configured bandwidth in GB/s.
    pub fn gbps(&self) -> f64 {
        self.gbps
    }

    /// Configured propagation latency.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Total bytes pushed through the pipe.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_is_work_conserving() {
        let mut s = FifoServer::new();
        let svc = Time::from_ns(10);
        assert_eq!(s.admit(Time::from_ns(5), svc), Time::from_ns(5));
        // Arrives while busy: queued.
        assert_eq!(s.admit(Time::from_ns(7), svc), Time::from_ns(15));
        // Arrives after idle gap: starts immediately.
        assert_eq!(s.admit(Time::from_ns(100), svc), Time::from_ns(100));
        assert_eq!(s.served(), 3);
        assert_eq!(s.busy_total(), Time::from_ns(30));
    }

    #[test]
    fn bandwidth_server_unloaded_latency() {
        let mut l = BandwidthServer::new(100.0, Time::from_ns(35));
        // 64 B: 0.64 ns serialization + 35 ns propagation.
        assert_eq!(l.transmit(Time::ZERO, 64), Time::from_ps(35_640));
    }

    #[test]
    fn bandwidth_server_pipelines_messages() {
        let mut l = BandwidthServer::new(100.0, Time::from_ns(35));
        let first = l.transmit(Time::ZERO, 1000); // 10 ns serialization
        let second = l.transmit(Time::ZERO, 1000); // queued behind first
        assert_eq!(first, Time::from_ns(45));
        assert_eq!(second, Time::from_ns(55));
        assert_eq!(l.bytes_total(), 2000);
    }

    #[test]
    fn sustained_throughput_matches_bandwidth() {
        // Push 1 MB through a 100 GBps link in 64 B packets; drain time
        // should be ~10 us (1 MB / 100 GBps), not dominated by the 35 ns
        // per-packet latency.
        let mut l = BandwidthServer::new(100.0, Time::from_ns(35));
        let packets = 1_000_000 / 64;
        let mut last = Time::ZERO;
        for _ in 0..packets {
            last = l.transmit(Time::ZERO, 64);
        }
        let expected_ns = 1_000_000.0 / 100.0 + 35.0;
        assert!((last.as_ns() - expected_ns).abs() < 1.0, "{last}");
    }
}
