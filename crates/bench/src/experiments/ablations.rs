//! Ablations over the design decisions §3/§4 argue for:
//!
//! 1. **Stream-buffer depth** (DG1): the depth must cover the
//!    bandwidth-delay product (§4.1's Little's-law sizing, = 32 at
//!    20 GBps × 90 ns) or single-SABRe latency suffers inside the window
//!    of vulnerability.
//! 2. **Stream-buffer count** (DG2): enough concurrent SABRes must fit to
//!    saturate bandwidth with small objects.
//! 3. **Speculation** (DG1): the no-speculation strawman's penalty across
//!    sizes.
//! 4. **CC mode**: destination locking vs destination OCC, uncontended.
//! 5. **Abort policy** (§5.1): software-controlled retry — immediate vs
//!    backoff under heavy conflicts.

use sabre_core::CcMode;
use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::workloads::Writer;
use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use crate::table::{fmt_gbps, fmt_ns};
use crate::{RunOpts, Table};

/// Ablation 1: single-SABRe latency of an 8 KB object vs stream-buffer
/// depth. Returns `(depth, mean latency ns)`.
pub fn depth_sweep(opts: RunOpts) -> Vec<(u32, f64)> {
    let iters = opts.pick(60, 8);
    opts.sweep([1u32, 2, 4, 8, 16, 32, 64]).map(|&depth| {
        let report = ScenarioBuilder::new()
            .configure(|cfg| cfg.lightsabres.depth = depth)
            .raw_region(1, 8192)
            .reader_spec(
                0,
                0,
                spec()
                    .store(1)
                    .payload(8192)
                    .mechanism(ReadMechanism::Sabre),
            )
            .run_for(Time::from_us(15 * iters));
        (
            depth,
            report.core(0, 0).latency.mean().expect("ops completed"),
        )
    })
}

/// Ablation 2: aggregate throughput of 16 async readers of two-block
/// (128 B) SABRes vs the number of stream buffers (= max concurrent
/// SABRes per R2P2). Returns `(buffers, GB/s)`.
pub fn concurrency_sweep(opts: RunOpts) -> Vec<(usize, f64)> {
    let duration = Time::from_us(opts.pick(150, 25));
    opts.sweep([1usize, 2, 4, 8, 16]).map(|&buffers| {
        let scenario = ScenarioBuilder::new()
            .configure(|cfg| cfg.lightsabres.stream_buffers = buffers)
            .raw_region(1, 128);
        let cores = 0..scenario.config().cores_per_node;
        let report = scenario
            .readers_spec(
                0,
                cores,
                spec()
                    .store(1)
                    .payload(128)
                    .mechanism(ReadMechanism::Sabre)
                    .window(8),
            )
            .run_for(duration);
        (buffers, report.node(0).gbps)
    })
}

/// Ablation 4: destination locking vs destination OCC, uncontended.
/// Returns `(size, occ ns, locking ns)`.
pub fn cc_mode_sweep(opts: RunOpts) -> Vec<(u32, f64, f64)> {
    let iters = opts.pick(80, 10);
    opts.sweep([128u32, 1024, 8192]).map(|&size| {
        let mut out = [0.0f64; 2];
        for (i, mode) in [CcMode::Occ, CcMode::Locking].into_iter().enumerate() {
            let (scenario, _store) = ScenarioBuilder::new()
                .configure(|cfg| cfg.lightsabres.cc_mode = mode)
                .store(1, StoreLayout::Clean, size, Some(512));
            let wire = StoreLayout::Clean.object_bytes(size as usize) as u32;
            let report = scenario
                .reader_spec(
                    0,
                    0,
                    spec()
                        .store(1)
                        .payload(size)
                        .mechanism(ReadMechanism::Sabre)
                        .wire(wire),
                )
                .run_for(Time::from_us(15 * iters));
            out[i] = report.core(0, 0).latency.mean().expect("ops");
        }
        (size, out[0], out[1])
    })
}

/// Ablation 5: retry policy under heavy conflict (8 KB objects, 16
/// writers): immediate retry vs backoff. Returns
/// `(label, GB/s, abort rate)`.
pub fn retry_policy_sweep(opts: RunOpts) -> Vec<(String, f64, f64)> {
    let duration = Time::from_us(opts.pick(150, 25));
    opts.sweep([
        ("immediate", Time::ZERO),
        ("backoff 1us", Time::from_us(1)),
        ("backoff 5us", Time::from_us(5)),
    ])
    .map(|&(label, backoff)| {
        let (scenario, store) =
            ScenarioBuilder::new().warmed_store(1, StoreLayout::Clean, 8192, Some(100));
        let cores = 0..scenario.config().cores_per_node;
        let mut scenario = scenario.readers_spec(
            0,
            cores,
            spec()
                .store(1)
                .payload(8192)
                .mechanism(ReadMechanism::Sabre)
                .consume()
                .backoff(backoff)
                .wire(StoreLayout::Clean.object_bytes(8192) as u32),
        );
        let entries = store.object_entries();
        for w in 0..16 {
            let owned: Vec<_> = entries.iter().copied().skip(w).step_by(16).collect();
            scenario = scenario.workload(
                1,
                w,
                Box::new(Writer::new(owned, 8192, StoreLayout::Clean, Time::ZERO)),
            );
        }
        let reader = scenario.run_for(duration).node(0);
        (label.to_string(), reader.gbps, reader.metrics.abort_rate())
    })
}

/// Renders all ablations.
pub fn run(opts: RunOpts) -> Vec<Table> {
    let mut tables = Vec::new();

    let mut t = Table::new(
        "Ablation — stream-buffer depth vs 8 KB SABRe latency (Little's law: 32)",
        &["depth", "latency"],
    );
    for (d, ns) in depth_sweep(opts) {
        t.row(vec![d.to_string(), fmt_ns(ns)]);
    }
    tables.push(t);

    let mut t = Table::new(
        "Ablation — stream-buffer count vs 128 B SABRe throughput, 16 async readers",
        &["buffers/R2P2", "GB/s"],
    );
    for (b, g) in concurrency_sweep(opts) {
        t.row(vec![b.to_string(), fmt_gbps(g)]);
    }
    tables.push(t);

    let mut t = Table::new(
        "Ablation — destination OCC vs destination locking (uncontended)",
        &["size(B)", "OCC", "locking"],
    );
    for (s, occ, lock) in cc_mode_sweep(opts) {
        t.row(vec![s.to_string(), fmt_ns(occ), fmt_ns(lock)]);
    }
    tables.push(t);

    let mut t = Table::new(
        "Ablation — retry policy under heavy conflicts (8 KB, 16 writers)",
        &["policy", "GB/s", "abort rate"],
    );
    for (label, g, rate) in retry_policy_sweep(opts) {
        t.row(vec![label, fmt_gbps(g), format!("{:.1}%", rate * 100.0)]);
    }
    tables.push(t);

    tables
}
