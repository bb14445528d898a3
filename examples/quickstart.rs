//! Quickstart: perform atomic remote object reads (SABRes) on a simulated
//! two-node soNUMA rack and watch a racing writer get detected.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sabres::prelude::*;

fn main() {
    // Build the paper's Table-2 system: two 16-core chips, four R2P2s each
    // (every R2P2 carrying a LightSABRes engine), 100 GBps fabric. Node 1
    // hosts a store of 1 KB objects in the clean layout (16 B header with
    // the odd/even version word, then contiguous payload).
    let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::Clean, 1024, Some(256));
    let wire = StoreLayout::Clean.object_bytes(1024) as u32;

    let report = scenario
        // Four cores on node 0 read random objects atomically, in a tight
        // loop.
        .readers_spec(
            0,
            0..4,
            spec()
                .store(1)
                .payload(1024)
                .mechanism(ReadMechanism::Sabre)
                .wire(wire),
        )
        // One writer thread on node 1 keeps updating a few of the objects,
        // so some SABRes will observe conflicts and abort (and retry).
        .workload(
            1,
            0,
            Box::new(Writer::new(
                store.object_entries().into_iter().take(8).collect(),
                1024,
                StoreLayout::Clean,
                Time::from_ns(500),
            )),
        )
        // Run one millisecond of simulated time.
        .run_for(Time::from_us(1000));

    println!("simulated time: {}", report.sim_time());
    let mut total_ok = 0;
    for core in 0..4 {
        let m = report.core(0, core);
        println!(
            "reader {core}: {} atomic reads, {} retries, mean latency {:.0} ns",
            m.ops,
            m.retries,
            m.latency.mean().unwrap_or(0.0)
        );
        total_ok += m.ops;
    }
    println!(
        "aggregate: {} reads, {:.2} GB/s of clean payload",
        total_ok,
        report.gbps(0)
    );

    // Engine-level visibility: how the destination's LightSABRes engines saw it.
    let engines = report.engine_totals(1);
    println!(
        "destination engines: {} atomic, {} aborted (exposed to software)",
        engines.completed_ok, engines.completed_failed
    );
    assert!(total_ok > 0, "expected successful SABRes");
}
