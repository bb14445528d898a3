//! Table 1: the design space for one-sided atomic object reads —
//! {source, destination} × {locking, OCC} — exercised end to end.
//!
//! One reader per quadrant reads 1 KB objects from remote memory:
//!
//! * **source locking** (DrTM): remote CAS roundtrip, then the data read,
//!   then an asynchronous unlock — ≈2 roundtrips of latency;
//! * **source OCC** (FaRM / Pilaf): one roundtrip plus the post-transfer
//!   software check (strip or CRC) on the CPU;
//! * **destination locking** (SABRes, locking mode): one roundtrip; the
//!   R2P2 acquires a shared reader lock at the data;
//! * **destination OCC** (SABRes, the paper's configuration): one
//!   roundtrip, version-checked in hardware.

use sabre_core::CcMode;
use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_rack::{spec, ReadMechanism, ScenarioBuilder};
use sabre_sim::Time;

use crate::table::fmt_ns;
use crate::{RunOpts, Table};

/// The four quadrants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quadrant {
    /// DrTM-style remote locking.
    SourceLocking,
    /// FaRM-style per-CL versions (source OCC).
    SourceOccPerCl,
    /// Pilaf-style checksums (source OCC).
    SourceOccChecksum,
    /// SABRes in destination-locking mode.
    DestLocking,
    /// SABRes in destination-OCC mode (the paper's proposal).
    DestOcc,
}

impl Quadrant {
    /// All quadrants in presentation order.
    pub const ALL: [Quadrant; 5] = [
        Quadrant::SourceLocking,
        Quadrant::SourceOccPerCl,
        Quadrant::SourceOccChecksum,
        Quadrant::DestLocking,
        Quadrant::DestOcc,
    ];

    fn label(self) -> &'static str {
        match self {
            Quadrant::SourceLocking => "source locking (DrTM)",
            Quadrant::SourceOccPerCl => "source OCC (FaRM perCL)",
            Quadrant::SourceOccChecksum => "source OCC (Pilaf CRC64)",
            Quadrant::DestLocking => "destination locking (SABRe)",
            Quadrant::DestOcc => "destination OCC (SABRe)",
        }
    }

    fn roundtrips(self) -> &'static str {
        match self {
            Quadrant::SourceLocking => "2 (+async unlock)",
            _ => "1",
        }
    }
}

/// One quadrant's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The quadrant.
    pub quadrant: Quadrant,
    /// Mean atomic-read latency for a 1 KB object (ns).
    pub latency_ns: f64,
}

/// The object payload used for the comparison.
pub const PAYLOAD: u32 = 1024;

/// Measures one quadrant. Public so the scenario equivalence test
/// certifies *this* construction, not a copy of it.
pub fn measure(quadrant: Quadrant, iters: u64) -> f64 {
    let layout = match quadrant {
        Quadrant::SourceOccPerCl => StoreLayout::PerCl,
        Quadrant::SourceOccChecksum => StoreLayout::Checksum,
        _ => StoreLayout::Clean,
    };
    let (scenario, _store) = ScenarioBuilder::new()
        .configure(|cfg| {
            if quadrant == Quadrant::DestLocking {
                cfg.lightsabres.cc_mode = CcMode::Locking;
            }
        })
        .store(1, layout, PAYLOAD, Some(512));
    let report = scenario
        .reader(0, 0, move |objects| -> Box<dyn sabre_rack::Workload> {
            let base = spec().store(1).payload(PAYLOAD);
            match quadrant {
                Quadrant::SourceLocking => {
                    base.mechanism(ReadMechanism::SourceLocking { payload: PAYLOAD })
                }
                Quadrant::SourceOccPerCl => {
                    base.mechanism(ReadMechanism::PerClValidate { payload: PAYLOAD })
                }
                Quadrant::SourceOccChecksum => {
                    base.mechanism(ReadMechanism::ChecksumValidate { payload: PAYLOAD })
                }
                Quadrant::DestLocking | Quadrant::DestOcc => base
                    .mechanism(ReadMechanism::Sabre)
                    .wire(StoreLayout::Clean.object_bytes(PAYLOAD as usize) as u32),
            }
            .build(objects)
        })
        .run_for(Time::from_us(20 * iters));
    let m = report.core(0, 0);
    assert!(
        m.ops >= iters / 2,
        "too few ops for {quadrant:?}: {}",
        m.ops
    );
    m.latency.mean().expect("ops completed")
}

/// Runs all quadrants.
pub fn data(opts: RunOpts) -> Vec<Point> {
    let iters = opts.pick(100, 10);
    opts.sweep(Quadrant::ALL).map(|&quadrant| Point {
        quadrant,
        latency_ns: measure(quadrant, iters),
    })
}

/// Renders the design-space comparison as a table.
pub fn run(opts: RunOpts) -> Table {
    let mut t = Table::new(
        "Table 1 — design space for one-sided atomic object reads (1 KB, uncontended)",
        &["mechanism", "roundtrips", "mean latency"],
    );
    for p in data(opts) {
        t.row(vec![
            p.quadrant.label().to_string(),
            p.quadrant.roundtrips().to_string(),
            fmt_ns(p.latency_ns),
        ]);
    }
    t
}
