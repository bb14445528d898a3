//! Fig. 7b: peak application throughput — 16 threads issuing asynchronous
//! remote reads vs. SABRes.
//!
//! Expected shape (paper): the two curves are identical — introducing
//! per-SABRe state at the R2P2s costs no throughput — and both saturate
//! the R2P2s' aggregate issue bandwidth (4 × 20 GBps) as the transfer size
//! grows.

use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use super::TRANSFER_SIZES;
use crate::table::fmt_gbps;
use crate::{RunOpts, Table};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Transfer size in bytes.
    pub size: u32,
    /// Aggregate plain-read throughput (GB/s).
    pub read_gbps: f64,
    /// Aggregate SABRe throughput (GB/s).
    pub sabre_gbps: f64,
}

fn measure(size: u32, mech: ReadMechanism, duration: Time) -> f64 {
    let scenario = ScenarioBuilder::new().raw_region(1, size);
    let threads = 0..scenario.config().cores_per_node;
    scenario
        .readers_spec(
            0,
            threads,
            spec().store(1).payload(size).mechanism(mech).window(4),
        )
        .run_for(duration)
        .node(0)
        .gbps
}

/// Runs the sweep.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let duration = Time::from_us(opts.pick(200, 30));
    opts.sweep(TRANSFER_SIZES).map(|&size| Point {
        size,
        read_gbps: measure(size, ReadMechanism::Raw, duration),
        sabre_gbps: measure(size, ReadMechanism::Sabre, duration),
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 7b — peak throughput, 16 threads async (GB/s)",
        &["size(B)", "remote reads", "LightSABRes"],
    );
    for p in data(opts) {
        t.row(vec![
            p.size.to_string(),
            fmt_gbps(p.read_gbps),
            fmt_gbps(p.sabre_gbps),
        ]);
    }
    t
}
