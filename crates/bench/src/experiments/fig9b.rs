//! Fig. 9b: FaRM key-value store application throughput, 15 reader
//! threads — baseline vs. LightSABRes.
//!
//! Expected shape (paper): +30–60% depending on object size.

use sabre_farm::{FarmCosts, FarmReader, KvStore, ScenarioStoreExt, StoreLayout};
use sabre_rack::ScenarioBuilder;
use sabre_sim::Time;

use super::OBJECT_SIZES;
use crate::table::fmt_gbps;
use crate::{RunOpts, Table};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Object payload size.
    pub size: u32,
    /// Baseline throughput (GB/s).
    pub percl_gbps: f64,
    /// LightSABRes throughput (GB/s).
    pub sabre_gbps: f64,
}

impl Point {
    /// Relative throughput improvement.
    pub fn improvement(&self) -> f64 {
        self.sabre_gbps / self.percl_gbps - 1.0
    }
}

/// The paper uses 15 FaRM reader threads (one core runs FaRM's service).
pub const READERS: usize = 15;

fn measure(size: u32, layout: StoreLayout, duration: Time) -> f64 {
    let (scenario, store) = ScenarioBuilder::new().store(1, layout, size, None);
    scenario
        .readers(0, 0..READERS, move |_, _| {
            let kv = KvStore::new(store.clone(), 100_000);
            // Verification is host-side-expensive at 15 threads × long runs.
            Box::new(FarmReader::endless(kv, FarmCosts::default()).without_verify())
        })
        .run_for(duration)
        .node(0)
        .gbps
}

/// Runs the sweep.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let duration = Time::from_us(opts.pick(200, 30));
    opts.sweep(OBJECT_SIZES).map(|&size| Point {
        size,
        percl_gbps: measure(size, StoreLayout::PerCl, duration),
        sabre_gbps: measure(size, StoreLayout::Clean, duration),
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 9b — FaRM KV throughput, 15 readers (GB/s)",
        &["size(B)", "perCL versions", "LightSABRes", "improvement"],
    );
    for p in data(opts) {
        t.row(vec![
            p.size.to_string(),
            fmt_gbps(p.percl_gbps),
            fmt_gbps(p.sabre_gbps),
            format!("{:+.0}%", p.improvement() * 100.0),
        ]);
    }
    t
}
