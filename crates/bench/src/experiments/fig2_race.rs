//! Fig. 2: the reader-writer race that motivates the design.
//!
//! A two-block object is read remotely while a local writer updates it.
//! With plain (per-block-atomic) remote reads, some reads return *torn*
//! objects — new bytes in one block, old bytes in the other — exactly the
//! undetected violation of Fig. 2. With SABRes, every read the hardware
//! reports atomic verifies clean, and the races surface as aborts instead.

use std::sync::{Arc, Mutex};

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::workloads::{verify_payload, Writer};
use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;
use sabre_sw::layout::CleanLayout;

use crate::{RunOpts, Table};

/// Outcome of the race demonstration.
#[derive(Debug, Clone, Copy)]
pub struct RaceOutcome {
    /// Plain-read attempts.
    pub raw_reads: u64,
    /// Plain reads that returned torn objects (undetected violations!).
    pub raw_torn: u64,
    /// SABRe reads reported atomic.
    pub sabre_ok: u64,
    /// SABRe reads reported failed (detected conflicts).
    pub sabre_aborts: u64,
    /// SABRe reads reported atomic that were actually torn (must be 0).
    pub sabre_torn: u64,
}

/// One side of the race: the reads its reader reported successful, the
/// torn ones among them, and the failed SABRes it retried.
fn run_side(mech: ReadMechanism, duration: Time) -> (u64, u64, u64) {
    // One clean-layout object of 112 B payload = 2 cache blocks, matching
    // the figure's two-block example.
    let (scenario, store) =
        ScenarioBuilder::new().warmed_store(1, StoreLayout::Clean, 112, Some(1));
    // `(ok, torn)`; workloads are `Send` (shards may run on worker
    // threads), so the observer's counters sit behind a mutex, uncontended
    // within one cluster run.
    let counts = Arc::new(Mutex::new((0u64, 0u64)));
    let sink = Arc::clone(&counts);
    let reader = spec()
        .store(1)
        .payload(112)
        .mechanism(mech)
        .objects(store.object_addrs())
        .wire(CleanLayout::object_bytes(112) as u32)
        .observe(move |read| {
            let payload = CleanLayout::payload_of(read.image, 112);
            let mut c = sink.lock().expect("counters poisoned");
            match verify_payload(0, payload) {
                Some(_) => c.0 += 1,
                None => c.1 += 1,
            }
        });
    let entries = store.object_entries();
    let report = scenario
        .reader_spec(0, 0, reader)
        .workload(
            1,
            0,
            Box::new(Writer::new(entries, 112, StoreLayout::Clean, Time::ZERO)),
        )
        .run_for(duration);
    let (ok, torn) = *counts.lock().expect("counters poisoned");
    (ok, torn, report.core(0, 0).retries)
}

/// Runs both sides of the demonstration.
pub fn data(opts: RunOpts) -> RaceOutcome {
    let duration = Time::from_us(opts.pick(400, 80));
    let sides = opts
        .sweep([ReadMechanism::Raw, ReadMechanism::Sabre])
        .map(|&mech| run_side(mech, duration));
    let (raw_ok, raw_torn, _) = sides[0];
    let (sabre_ok, sabre_torn, sabre_aborts) = sides[1];
    RaceOutcome {
        raw_reads: raw_ok + raw_torn,
        raw_torn,
        sabre_ok,
        sabre_aborts,
        sabre_torn,
    }
}

/// Renders the demonstration as a table.
pub fn run(opts: RunOpts) -> Table {
    let o = data(opts);
    let mut t = Table::new(
        "Fig. 2 — reader-writer race on a 2-block object (1 writer racing 1 reader)",
        &[
            "mechanism",
            "reads",
            "torn (undetected)",
            "aborts (detected)",
        ],
    );
    t.row(vec![
        "plain remote read".into(),
        o.raw_reads.to_string(),
        o.raw_torn.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "SABRe".into(),
        (o.sabre_ok + o.sabre_aborts).to_string(),
        o.sabre_torn.to_string(),
        o.sabre_aborts.to_string(),
    ]);
    t
}
