//! Fig. 8: conflict sensitivity — application throughput as the writer
//! count (and hence the conflict probability) grows.
//!
//! 16 reader threads on node 0 read 100 LLC-resident objects on node 1
//! uniformly at random; 0–16 writer threads on node 1 continuously update
//! disjoint subsets (CREW). Readers retry immediately on atomicity
//! failure. Expected shape (paper): throughput declines with writers for
//! both mechanisms; LightSABRes lead per-CL versions by ≈15%→3% (128 B,
//! gap shrinks), ≈30%→41% (1 KB) and ≈87%→97% (8 KB, gap grows), because
//! the software check's cost scales with object size while the hardware
//! failure notification does not.

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::workloads::Writer;
use sabre_rack::{spec, ScenarioBuilder};
use sabre_sim::Time;

use crate::table::fmt_gbps;
use crate::{RunOpts, Table};

/// Object sizes of the figure.
pub const SIZES: [u32; 3] = [128, 1024, 8192];

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Object payload size.
    pub size: u32,
    /// Writer threads.
    pub writers: usize,
    /// LightSABRes application throughput (GB/s).
    pub sabre_gbps: f64,
    /// Per-CL-versions application throughput (GB/s).
    pub percl_gbps: f64,
    /// LightSABRes abort (retry) rate.
    pub sabre_abort_rate: f64,
    /// Per-CL check-failure (retry) rate.
    pub percl_abort_rate: f64,
}

const N_OBJECTS: u64 = 100;

fn measure(size: u32, writers: usize, layout: StoreLayout, duration: Time) -> (f64, f64) {
    // "We limit the number of objects to 100, making all accesses LLC
    // resident."
    let (scenario, store) = ScenarioBuilder::new().warmed_store(1, layout, size, Some(N_OBJECTS));

    let mech = layout.mechanism(size);
    let readers = scenario.config().cores_per_node;
    let wire = layout.object_bytes(size as usize) as u32;
    let mut scenario = scenario.readers_spec(
        0,
        0..readers,
        spec()
            .store(1)
            .payload(size)
            .mechanism(mech)
            .consume()
            .wire(wire),
    );
    if writers > 0 {
        // CREW: partition the objects across writers round-robin so every
        // writer owns ⌈100/N⌉ or ⌊100/N⌋ objects (a contiguous-chunk split
        // can leave one writer a single object that it then rewrites
        // continuously, an artificial hot spot).
        let entries = store.object_entries();
        for w in 0..writers {
            let owned: Vec<_> = entries.iter().copied().skip(w).step_by(writers).collect();
            scenario =
                scenario.workload(1, w, Box::new(Writer::new(owned, size, layout, Time::ZERO)));
        }
    }
    let reader = scenario.run_for(duration).node(0);
    (reader.gbps, reader.metrics.abort_rate())
}

/// Runs the sweep: the full {size × writer-count} grid, one parallel sweep
/// point per cell.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let duration = Time::from_us(opts.pick(150, 25));
    let writer_counts: Vec<usize> = opts.pick(vec![0, 2, 4, 8, 12, 16], vec![0, 4, 16]);
    let grid: Vec<(u32, usize)> = SIZES
        .iter()
        .flat_map(|&size| writer_counts.iter().map(move |&w| (size, w)))
        .collect();
    opts.sweep(grid).map(|&(size, writers)| {
        let (sabre_gbps, sabre_abort_rate) = measure(size, writers, StoreLayout::Clean, duration);
        let (percl_gbps, percl_abort_rate) = measure(size, writers, StoreLayout::PerCl, duration);
        Point {
            size,
            writers,
            sabre_gbps,
            percl_gbps,
            sabre_abort_rate,
            percl_abort_rate,
        }
    })
}

/// Renders the figure as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Fig. 8 — app throughput vs #writers (GB/s), 16 readers, 100 LLC-resident objects",
        &[
            "size(B)",
            "writers",
            "LightSABRes",
            "perCL versions",
            "gap",
            "sabre aborts",
            "perCL aborts",
        ],
    );
    for p in data(opts) {
        t.row(vec![
            p.size.to_string(),
            p.writers.to_string(),
            fmt_gbps(p.sabre_gbps),
            fmt_gbps(p.percl_gbps),
            format!("{:+.0}%", (p.sabre_gbps / p.percl_gbps - 1.0) * 100.0),
            format!("{:.1}%", p.sabre_abort_rate * 100.0),
            format!("{:.1}%", p.percl_abort_rate * 100.0),
        ]);
    }
    t
}
