//! Conflict handling policies under write pressure.
//!
//! §5.1: the hardware never retries a failed SABRe — atomicity failures are
//! exposed through the Completion Queue and *software* picks the policy.
//! This example pits three policies against a hot, write-heavy object set:
//! immediate retry, exponential-style fixed backoff, and a long backoff.
//!
//! ```text
//! cargo run --release --example conflict_retry
//! ```

use sabres::prelude::*;

fn run_policy(backoff: Time) -> (f64, f64, u64, u64) {
    // A small, hot store: 32 × 2 KB objects, all LLC-resident, with four
    // aggressive writers (CREW) — a conflict-heavy regime.
    let (scenario, store) =
        ScenarioBuilder::new().warmed_store(1, StoreLayout::Clean, 2048, Some(32));
    let wire = StoreLayout::Clean.object_bytes(2048) as u32;

    let mut scenario = scenario.readers_spec(
        0,
        0..8,
        spec()
            .store(1)
            .payload(2048)
            .mechanism(ReadMechanism::Sabre)
            .wire(wire)
            .consume()
            .backoff(backoff),
    );
    for (w, chunk) in store.object_entries().chunks(8).enumerate() {
        scenario = scenario.workload(
            1,
            w,
            Box::new(Writer::new(
                chunk.to_vec(),
                2048,
                StoreLayout::Clean,
                Time::ZERO,
            )),
        );
    }

    let readers = scenario.run_for(Time::from_us(300)).node(0);
    let m = &readers.metrics;
    (readers.gbps, m.abort_rate(), m.ops, m.retries)
}

fn main() {
    println!("8 readers vs 4 continuous writers on 32 hot objects:\n");
    let policies = [
        ("immediate retry", Time::ZERO),
        ("backoff 500 ns", Time::from_ns(500)),
        ("backoff 2 us", Time::from_us(2)),
    ];
    // Independent scenarios: sweep them in parallel, results in order.
    let results = Sweep::over(policies).map(|&(_, backoff)| run_policy(backoff));
    for ((label, _), (gbps, abort_rate, ops, retries)) in policies.iter().zip(results) {
        println!(
            "{label:<18} {gbps:>7.2} GB/s   abort rate {:>5.1}%   {ops} reads / {retries} retries",
            abort_rate * 100.0,
        );
    }
    println!(
        "\nImmediate retry keeps goodput highest here (aborted SABRes waste\n\
         fabric bandwidth but the reader loses no time); longer backoffs cut\n\
         the abort rate instead — the trade §5.1 leaves to the application."
    );
}
