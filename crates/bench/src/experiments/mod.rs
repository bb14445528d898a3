//! One module per table/figure of the paper, plus ablations.
//!
//! Each module exposes `data(opts) -> Vec<…>` with structured results and
//! `run(opts) -> Table` (or several) for printing. The DESIGN.md experiment
//! index maps paper artifacts to these modules.
//!
//! Every experiment is declared with [`sabre_rack::ScenarioBuilder`] (plus
//! [`sabre_farm::ScenarioStoreExt`] for store-backed ones) and its sweep
//! points run in parallel via [`crate::RunOpts::sweep`]; each point builds
//! a self-contained cluster, so results are deterministic whatever the
//! thread count.

use sabre_farm::StoreLayout;
use sabre_rack::ReadMechanism;

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig2_race;
pub mod fig7a;
pub mod fig7b;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod fig_datacenter;
pub mod fig_failover;
pub mod fig_placement;
pub mod fig_protocols;
pub mod fig_recovery;
pub mod fig_scale;
pub mod fig_tail;
pub mod table1;
pub mod table2;

/// The transfer sizes of the microbenchmark figures (Figs. 7a/7b).
pub const TRANSFER_SIZES: [u32; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// The object sizes of the object-store figures (Figs. 1, 9, 10).
pub const OBJECT_SIZES: [u32; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// A read mechanism's table label.
pub fn label(mech: ReadMechanism) -> &'static str {
    match mech {
        ReadMechanism::Raw => "raw read",
        ReadMechanism::Sabre => "SABRe",
        ReadMechanism::PerClValidate { .. } => "FaRM perCL",
        ReadMechanism::ChecksumValidate { .. } => "Pilaf CRC64",
        ReadMechanism::WfRegister { .. } => "wait-free reg",
        ReadMechanism::OhRam { .. } => "Oh-RAM 1.5rt",
    }
}

/// The store layout a mechanism reads and its writers maintain: raw reads
/// and SABRes read clean objects.
pub fn layout(mech: ReadMechanism) -> StoreLayout {
    StoreLayout::of_mechanism(mech).map_or(StoreLayout::Clean, |(l, _)| l)
}
