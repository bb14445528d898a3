//! Fig. 10: FaRM *local* reads throughput — per-CL versions layout vs. the
//! unmodified (clean) object store that LightSABRes enable.
//!
//! Expected shape (paper): the clean layout wins by 1.2× at 128 B, 1.53×
//! at 1 KB and 2.1× at 8 KB — LightSABRes accelerate local reads *without
//! being involved in them*, purely by making the embedded per-line
//! metadata unnecessary.

use sabre_farm::{FarmCosts, FarmLocalReader, KvStore, ScenarioStoreExt, StoreLayout};
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
    /// Per-CL layout local read throughput (GB/s).
    pub percl_gbps: f64,
    /// Clean ("unmodified object store") throughput (GB/s).
    pub clean_gbps: f64,
}

impl Point {
    /// Clean-layout speedup.
    pub fn speedup(&self) -> f64 {
        self.clean_gbps / self.percl_gbps
    }
}

/// 15 local reader threads, as in Fig. 9.
pub const READERS: usize = 15;

fn measure(size: u32, layout: StoreLayout, duration: Time) -> f64 {
    // Local store lives on node 0, where the readers run.
    let (scenario, store) = ScenarioBuilder::new().store(0, layout, size, None);
    scenario
        .readers(0, 0..READERS, move |_, _| {
            let kv = KvStore::new(store.clone(), 100_000);
            Box::new(FarmLocalReader::endless(kv, FarmCosts::default()).without_verify())
        })
        .run_for(duration)
        .node(0)
        .gbps
}

/// Runs the sweep.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let duration = Time::from_us(opts.pick(150, 25));
    opts.sweep(OBJECT_SIZES).map(|&size| Point {
        size,
        percl_gbps: measure(size, StoreLayout::PerCl, duration),
        clean_gbps: measure(size, StoreLayout::Clean, duration),
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 10 — FaRM local reads throughput, 15 threads (GB/s)",
        &["size(B)", "perCL versions", "unmodified store", "speedup"],
    );
    for p in data(opts) {
        t.row(vec![
            p.size.to_string(),
            fmt_gbps(p.percl_gbps),
            fmt_gbps(p.clean_gbps),
            format!("{:.2}x", p.speedup()),
        ]);
    }
    t
}
