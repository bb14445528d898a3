//! A FaRM-like key-value store serving remote lookups — the paper's §7.3
//! scenario — with writes arriving over RPC at the data owner.
//!
//! Compares the two deployments side by side:
//! * baseline: per-cache-line-versions store, lookups validate + strip on
//!   the CPU after every transfer;
//! * SABRe: clean store, lookups are hardware-atomic and zero-copy.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use sabres::prelude::*;

fn deploy(layout: StoreLayout) -> (f64, f64, u64) {
    // Node 1 owns a 4 KB-object store; node 0 runs the client threads.
    let (scenario, store) = ScenarioBuilder::new().store(1, layout, 4096, Some(2048));

    let server_store = store.clone();
    let report = scenario
        // 8 reader threads doing random lookups over one-sided operations
        // inside FaRM's framework: the store's objects, chosen uniformly.
        .readers_spec(
            0,
            0..8,
            spec()
                .store(1)
                .payload(4096)
                .mechanism(layout.mechanism(4096))
                .wire(store.wire_bytes() as u32)
                .framework(FarmCosts::default())
                .consume(),
        )
        // One client thread sends write RPCs; core 15 of node 1 applies
        // them at the owner (FaRM never writes remote memory one-sidedly).
        .reader(1, 15, move |_| {
            Box::new(RpcWriteServer::new(KvStore::new(server_store, 1_000_000)))
        })
        .reader(0, 15, move |_| {
            let kv = KvStore::new(store, 1_000_000);
            Box::new(RpcWriter::endless(kv, 15, Time::from_us(2)))
        })
        .run_for(Time::from_us(500));

    let readers = report.node(0);
    (
        readers.gbps,
        readers.metrics.abort_rate(),
        report.core(0, 15).ops, // RPC writes acknowledged
    )
}

fn main() {
    println!("deploying the same KV workload on both store layouts…\n");
    let results = Sweep::over([StoreLayout::PerCl, StoreLayout::Clean]).map(|&l| deploy(l));
    let (base_gbps, base_aborts, base_writes) = results[0];
    let (sabre_gbps, sabre_aborts, sabre_writes) = results[1];

    println!("baseline (per-CL versions): {base_gbps:.2} GB/s lookups, {:.2}% retried, {base_writes} writes applied", base_aborts * 100.0);
    println!("SABRe    (clean layout)   : {sabre_gbps:.2} GB/s lookups, {:.2}% retried, {sabre_writes} writes applied", sabre_aborts * 100.0);
    println!(
        "\nLightSABRes improvement: {:+.0}%",
        (sabre_gbps / base_gbps - 1.0) * 100.0
    );
    assert!(sabre_gbps > base_gbps, "SABRes should win on this workload");
}
