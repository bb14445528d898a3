//! Replica catch-up recovery under its `sabre_farm` names.
//!
//! The base replication story (see [`crate::replica`]) keeps every site
//! current by running the same deterministic writer schedule everywhere —
//! a crashed site's *local* writer keeps going, so no catch-up is needed.
//! That models software crashes well but not *whole-machine* outages
//! (power-cycled chassis, a dead fat-tree leaf), where the site's writer
//! genuinely stops and the restored image is stale. The rack's one
//! [`Writer`] closes that gap in its
//! [`recovering`](Writer::recovering) shape: each site maintains a
//! [`WriteLog`] and, once restored, pulls a live peer's log over the
//! fabric and replays the missed updates.
//!
//! While a site catches up, the node's R2P2 pipelines hold the epoch/seq
//! guard ([`CoreApi::set_catching_up`]): reads are refused (the reader
//! retries at the next replica) or, under
//! [`serve_stale`](sabre_rack::ClusterConfig::serve_stale), served with a
//! staleness counter. Catch-up pulls are guarded too — and *always*
//! refused, even in serve-stale mode: a correlated whole-leaf outage
//! restores sibling sites together, and pulling a sibling's equally-stale
//! log would declare convergence far short of the live peers. A refused
//! puller strikes that peer off for the round and retries at its
//! next-nearest one, so two recovering sites bounce off each other and
//! both land on the surviving replica; refusals are answers, not hangs,
//! so no deadlock — if *every* peer refuses (or is down), the puller
//! sleeps briefly and retries the full list.

use sabre_mem::Addr;
pub use sabre_rack::workloads::WriteLog;
use sabre_rack::workloads::Writer;
use sabre_rack::{CoreApi, StoreLayout, Workload};
use sabre_sim::Time;
use sabre_sonuma::CqEntry;

/// `Writer::new(..).recovering(..)` under its former eight-argument
/// constructor, kept for callers that still spell it this way.
#[derive(Debug)]
pub struct RecoveringWriter(Writer);

impl RecoveringWriter {
    /// `Writer::new(objects, payload, layout, think)`
    /// `.recovering(log, peers, pull_buf, converged_lag)`.
    ///
    /// # Panics
    ///
    /// As [`Writer::new`] and [`Writer::recovering`].
    #[allow(clippy::too_many_arguments)] // one knob per recovery concern
    pub fn new(
        objects: Vec<(u64, Addr)>,
        payload: u32,
        layout: StoreLayout,
        think: Time,
        log: WriteLog,
        peers: Vec<u8>,
        pull_buf: Addr,
        converged_lag: u64,
    ) -> Self {
        RecoveringWriter(Writer::new(objects, payload, layout, think).recovering(
            log,
            peers,
            pull_buf,
            converged_lag,
        ))
    }
}

impl Workload for RecoveringWriter {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.0.on_start(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.0.on_wake(api);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        self.0.on_completion(api, cq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_mem::NodeMemory;

    #[test]
    fn log_geometry_wraps_and_packs() {
        let log = WriteLog::new(Addr::new(1024), 8);
        assert_eq!(log.head_addr(), Addr::new(1024));
        assert_eq!(log.record_addr(1), Addr::new(1024 + 64));
        assert_eq!(log.record_addr(4), Addr::new(1024 + 64 + 48));
        // Ring wrap: seq 9 reuses slot 0.
        assert_eq!(log.record_addr(9), log.record_addr(1));
        // 8 records = 2 blocks of ring + 1 head block.
        assert_eq!(log.region_bytes(), 192);
        // Records never straddle blocks.
        for s in 1..=16 {
            let a = log.record_addr(s);
            assert_eq!(a.block(), (a + 15u64).block(), "seq {s} straddles");
        }
    }

    #[test]
    fn region_rounds_partial_blocks_up() {
        // 6 records = 96 B of ring → 2 blocks.
        assert_eq!(WriteLog::new(Addr::new(0), 6).region_bytes(), 192);
        assert_eq!(WriteLog::new(Addr::new(0), 1).region_bytes(), 128);
    }

    #[test]
    fn records_round_trip_through_an_image() {
        let log = WriteLog::new(Addr::new(0), 8);
        let mut image = NodeMemory::new(log.region_bytes() as usize);
        let seq = 42u64;
        image.write_u64(log.head_addr(), seq);
        image.write(log.record_addr(seq), &WriteLog::encode_record(7, seq));
        assert_eq!(image.read_u64(log.head_addr()), 42);
        let record = log.record_addr(42);
        assert_eq!(
            (image.read_u64(record), image.read_u64(record + 8)),
            (7, 42)
        );
        // A wrapped slot answers with the newer seq, exposing the wrap.
        assert_eq!(image.read_u64(log.record_addr(34) + 8), 42);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn misaligned_log_rejected() {
        let _ = WriteLog::new(Addr::new(8), 4);
    }

    #[test]
    #[should_panic(expected = "converged lag must fit")]
    fn converged_lag_must_fit_the_ring() {
        let _ = RecoveringWriter::new(
            vec![(0, Addr::new(0))],
            64,
            StoreLayout::Clean,
            Time::from_ns(100),
            WriteLog::new(Addr::new(4096), 8),
            vec![1],
            Addr::new(8192),
            8,
        );
    }
}
