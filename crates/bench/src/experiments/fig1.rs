//! Fig. 1: end-to-end latency breakdown of an atomic remote object read
//! using FaRM's per-cache-line-versions software mechanism over soNUMA.
//!
//! The motivating figure: the transfer itself scales sublinearly with
//! object size (soNUMA's fabric is fast), while the software atomicity
//! check scales linearly — from ≈10% of end-to-end latency at 128 B to
//! ≈50% at 8 KB.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::{Phase, ScenarioBuilder};
use sabre_sim::Time;

use super::{kv_reader, OBJECT_SIZES};
use crate::table::fmt_ns;
use crate::{RunOpts, Table};

/// One sweep point: the three stacked components of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Object payload size.
    pub size: u32,
    /// soNUMA transfer time (ns).
    pub transfer_ns: f64,
    /// Framework + application time (ns).
    pub framework_app_ns: f64,
    /// Version stripping + atomicity check time (ns).
    pub strip_ns: f64,
    /// End-to-end mean latency (ns).
    pub e2e_ns: f64,
}

impl Point {
    /// Fraction of end-to-end latency spent in the software check.
    pub fn strip_share(&self) -> f64 {
        self.strip_ns / self.e2e_ns
    }
}

/// Runs the sweep: one FaRM reader, per-CL store, memory-resident objects.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(100, 10);
    opts.sweep(OBJECT_SIZES).map(|&size| {
        let (scenario, store) = ScenarioBuilder::new().store(1, StoreLayout::PerCl, size, None);
        let report = scenario
            .reader_spec(0, 0, kv_reader(&store))
            .run_for(Time::from_us(12 * iters));
        let m = report.core(0, 0);
        assert!(m.ops >= iters / 2, "too few lookups: {}", m.ops);
        let transfer = m.phase_mean_ns(Phase::Transfer).unwrap_or(0.0);
        let framework = m.phase_mean_ns(Phase::Framework).unwrap_or(0.0)
            + m.phase_mean_ns(Phase::App).unwrap_or(0.0);
        let strip = m.phase_mean_ns(Phase::Strip).unwrap_or(0.0);
        Point {
            size,
            transfer_ns: transfer,
            framework_app_ns: framework,
            strip_ns: strip,
            e2e_ns: m.latency.mean().expect("ops completed"),
        }
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 1 — E2E latency breakdown, per-CL versions on FaRM/soNUMA",
        &[
            "size(B)",
            "transfer",
            "framework+app",
            "stripping",
            "E2E",
            "strip share",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.size.to_string(),
            fmt_ns(p.transfer_ns),
            fmt_ns(p.framework_app_ns),
            fmt_ns(p.strip_ns),
            fmt_ns(p.e2e_ns),
            format!("{:.0}%", p.strip_share() * 100.0),
        ]);
    }
    t
}
