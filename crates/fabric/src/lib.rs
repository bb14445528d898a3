//! Interconnect models: the on-chip 2D mesh and the inter-node rack fabric.
//!
//! Table 2 parameters:
//!
//! * on-chip: 2D mesh, 16-byte links, 3 cycles/hop (at the 2 GHz core
//!   clock);
//! * inter-node: lossless fabric, fixed 35 ns per hop (following the Anton 2
//!   unified-switching design the paper cites), 100 GBps links.
//!
//! The paper's evaluation connects two nodes directly, so the inter-node
//! path is a single hop each way; N-node racks route over a
//! [`RackTopology`] — a crossbar, a rack-level 2D mesh, or a two-level
//! leaf/spine fat tree whose cross-leaf uplinks may be oversubscribed —
//! paying one hop latency per routed hop (plus deterministic uplink
//! queueing on an oversubscribed fat tree). Every directed node pair is an
//! independent [`BandwidthServer`](sabre_sim::BandwidthServer) so that
//! request and reply traffic do not contend.
//!
//! [`ShardRouter`] provides the deterministic cross-shard message merge a
//! partitioned event loop synchronizes internode traffic through.

pub mod internode;
pub mod mesh;

pub use internode::{Fabric, FabricConfig, FabricPort, Outbox, ShardRouter};
pub use mesh::{MeshConfig, MeshCoord, RackTopology};
