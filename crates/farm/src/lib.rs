//! A FaRM-like distributed object store and key-value store.
//!
//! FaRM ("Fast Remote Memory", NSDI'14) is the full software stack of the
//! paper's end-to-end evaluation (§6–§7.3): a transactional distributed
//! memory system whose fast path — lock-free, strictly serializable
//! single-object remote reads — is exactly what SABRes accelerate. This
//! crate reproduces the parts of FaRM the evaluation exercises:
//!
//! * [`store`] — the object store: fixed-size block-aligned object slots in
//!   a registered region, in one [`StoreLayout`]: the **per-cache-line
//!   versions** layout (the FaRM baseline), the **clean** layout (the SABRe
//!   variant), the **checksum** layout (the Pilaf comparison) or the
//!   **wait-free register**. The layout type, with every per-layout fact,
//!   is [`sabre_rack::StoreLayout`], re-exported here;
//! * [`kv`] — the key-value view: key → object mapping and lookup cost;
//! * [`costs`] — the FaRM framework cost model: KV lookup, the baseline's
//!   intermediate-buffer management, the leaner SABRe path (including the
//!   ≈7% instruction-footprint reduction the paper measures), and the
//!   overlap factor for local strip kernels;
//! * [`read_path`] — the [`FarmReader`] workload of Figs. 9a/9b: lookup →
//!   one-sided read → (baseline: validate + strip into the application
//!   buffer | SABRe: zero-copy) → application consume;
//! * [`local`] — the [`FarmLocalReader`] workload of Fig. 10: local-only
//!   key-value lookups against the two store layouts;
//! * [`write_path`] — writes over RPC (FaRM never writes remote memory
//!   one-sidedly): the [`RpcWriteServer`] applying updates at the owner and
//!   the [`RpcWriter`] client;
//! * [`replica`] — the [`ReplicatedStore`]: k identical copies of one
//!   object set across store nodes, leaf-aware site selection and the
//!   nearest-first replica views the rack's failover readers consume;
//! * [`scenario`] — the [`ScenarioStoreExt`] extension letting
//!   [`sabre_rack::ScenarioBuilder`] declare object-store regions.

pub mod costs;
pub mod kv;
pub mod local;
pub mod read_path;
pub mod recovery;
pub mod replica;
pub mod scenario;
pub mod store;
pub mod write_path;

pub use costs::FarmCosts;
pub use kv::KvStore;
pub use local::FarmLocalReader;
pub use read_path::FarmReader;
pub use recovery::{RecoveringWriter, ReplicaState, WriteLog};
pub use replica::{replica_sites, ReplicatedStore};
pub use scenario::ScenarioStoreExt;
pub use store::{ObjectStore, StoreLayout};
pub use write_path::{RpcWriteServer, RpcWriter};
