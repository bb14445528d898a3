//! Fig. 9a: FaRM key-value store, end-to-end latency breakdown — per-CL
//! versions baseline vs. LightSABRes.
//!
//! Expected shape (paper): SABRes cut end-to-end latency at every size —
//! ≈35% at 128 B (mostly from the leaner framework: no stripping code, no
//! intermediate buffering, ≈7% smaller instruction footprint) up to ≈52%
//! at 8 KB (mostly from deleting the strip kernel). The SABRe variant's
//! *application* component is slightly larger: the object lands in the LLC
//! (zero-copy DMA) instead of being pulled into the L1d by the strip.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::{Phase, ScenarioBuilder};
use sabre_sim::Time;

use super::{kv_reader, OBJECT_SIZES};
use crate::table::fmt_ns;
use crate::{RunOpts, Table};

/// Per-variant breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// soNUMA transfer (ns).
    pub transfer_ns: f64,
    /// FaRM system (lookup, buffers, bookkeeping) (ns).
    pub framework_ns: f64,
    /// Application consume (ns).
    pub app_ns: f64,
    /// Version stripping / atomicity check (ns).
    pub strip_ns: f64,
    /// End-to-end mean (ns).
    pub e2e_ns: f64,
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Object payload size.
    pub size: u32,
    /// The per-CL-versions baseline.
    pub baseline: Breakdown,
    /// The LightSABRes variant.
    pub sabre: Breakdown,
}

impl Point {
    /// Latency improvement of SABRes over the baseline.
    pub fn improvement(&self) -> f64 {
        1.0 - self.sabre.e2e_ns / self.baseline.e2e_ns
    }
}

fn measure(size: u32, layout: StoreLayout, iters: u64) -> Breakdown {
    let (scenario, store) = ScenarioBuilder::new().store(1, layout, size, None);
    let report = scenario
        .reader_spec(0, 0, kv_reader(&store))
        .run_for(Time::from_us(12 * iters));
    let m = report.core(0, 0);
    assert!(m.ops >= iters / 2, "too few lookups: {}", m.ops);
    Breakdown {
        transfer_ns: m.phase_mean_ns(Phase::Transfer).unwrap_or(0.0),
        framework_ns: m.phase_mean_ns(Phase::Framework).unwrap_or(0.0),
        app_ns: m.phase_mean_ns(Phase::App).unwrap_or(0.0),
        strip_ns: m.phase_mean_ns(Phase::Strip).unwrap_or(0.0),
        e2e_ns: m.latency.mean().expect("ops completed"),
    }
}

/// Runs the sweep.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(100, 10);
    opts.sweep(OBJECT_SIZES).map(|&size| Point {
        size,
        baseline: measure(size, StoreLayout::PerCl, iters),
        sabre: measure(size, StoreLayout::Clean, iters),
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 9a — FaRM KV store E2E latency breakdown: baseline (perCL) vs LightSABRes",
        &[
            "size(B)",
            "variant",
            "transfer",
            "FaRM system",
            "app",
            "stripping",
            "E2E",
            "improvement",
        ],
    );
    for p in data(opts) {
        for (name, b, imp) in [
            ("perCL", p.baseline, String::new()),
            ("SABRe", p.sabre, format!("{:.0}%", p.improvement() * 100.0)),
        ] {
            t.row(vec![
                p.size.to_string(),
                name.to_string(),
                fmt_ns(b.transfer_ns),
                fmt_ns(b.framework_ns),
                fmt_ns(b.app_ns),
                fmt_ns(b.strip_ns),
                fmt_ns(b.e2e_ns),
                imp,
            ]);
        }
    }
    t
}
