//! The workload-program interface: what simulated cores run.
//!
//! A [`Workload`] is an event-driven program pinned to one core. The
//! cluster calls its hooks; the workload reacts through the [`CoreApi`] —
//! issuing one-sided operations, sleeping to model CPU work (costs come
//! from the [`sabre_sw::CpuCostModel`]), touching local memory, and
//! recording metrics.

pub use crate::cluster::CoreApi;

use sabre_sonuma::{CqEntry, OpKind};

use crate::layout::StoreLayout;

/// How a reader achieves (or forgoes) atomicity — the mechanisms the
/// paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMechanism {
    /// Plain one-sided read with no object atomicity (the Fig. 7 "remote
    /// reads" curve).
    Raw,
    /// Hardware SABRe (LightSABRes at the destination).
    Sabre,
    /// FaRM-style software OCC: read the per-CL-versions image, then
    /// validate + strip on the CPU. `payload` is the clean object size.
    PerClValidate {
        /// Clean payload bytes of the object.
        payload: u32,
    },
    /// Pilaf-style software OCC: read the checksummed image, then recompute
    /// the CRC64 on the CPU.
    ChecksumValidate {
        /// Clean payload bytes of the object.
        payload: u32,
    },
    /// The wait-free multi-version register (Ianni et al.): the store
    /// serves the published version slot via a server-side capture, so the
    /// reader never aborts — zero retries by construction.
    WfRegister {
        /// Clean payload bytes of the object.
        payload: u32,
    },
    /// Oh-RAM's one-and-a-half-round read (Hadjistasi et al.): the store
    /// serves a consistent snapshot under server-side OCC (no locking);
    /// the reader relays a confirm write before the next read but delivers
    /// immediately — 1.5 rounds instead of SABRes' effective two.
    OhRam {
        /// Clean payload bytes of the object.
        payload: u32,
    },
    /// DrTM-style source-side remote locking (Table 1, top-left): a
    /// one-sided CAS takes the object's lock (one extra round trip), the
    /// data read of the clean object follows, and the unlock is fired
    /// asynchronously. A contended CAS retries after a fixed 200 ns
    /// backoff.
    SourceLocking {
        /// Clean payload bytes of the object.
        payload: u32,
    },
}

impl ReadMechanism {
    /// The one-sided operation type this mechanism reads the object with
    /// (source locking brackets its read with a lock CAS and an unlock).
    pub fn op(self) -> OpKind {
        match self {
            ReadMechanism::Sabre => OpKind::Sabre,
            ReadMechanism::WfRegister { .. } => OpKind::WfRead,
            ReadMechanism::OhRam { .. } => OpKind::OhRead,
            _ => OpKind::Read,
        }
    }

    /// Bytes that must be transferred to read one object of `payload`
    /// useful bytes under this mechanism. Raw reads and SABRes move exactly
    /// the requested bytes (the microbenchmark's objects carry their
    /// version word inside the payload, at offset 0); every other
    /// mechanism moves its [layout's](StoreLayout::of_mechanism) wire
    /// image, metadata included. Store-backed readers override this with
    /// the store's exact footprint.
    pub fn wire_bytes(self, payload: u32) -> u32 {
        StoreLayout::of_mechanism(self).map_or(payload, |(layout, _)| {
            layout.wire_bytes(payload as usize) as u32
        })
    }
}

/// An event-driven program running on one simulated core.
///
/// All hooks receive a [`CoreApi`] scoped to the program's core. Hooks are
/// never re-entered: each runs to completion before the next event fires.
///
/// Workloads must be [`Send`]: the cluster's sharded event loop may drive
/// different shards from different OS worker threads (still never
/// re-entering a hook, and still bit-deterministic — see
/// [`crate::cluster`]). State shared *between* workloads therefore uses
/// `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`; state owned by one
/// workload needs no synchronization at all.
pub trait Workload: Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, api: &mut CoreApi<'_>);

    /// Called when a [`CoreApi::sleep`] expires.
    fn on_wake(&mut self, _api: &mut CoreApi<'_>) {}

    /// Called when a one-sided operation issued by this core completes
    /// (its CQ entry is observed).
    fn on_completion(&mut self, _api: &mut CoreApi<'_>, _cq: CqEntry) {}

    /// Called when an RPC request addressed to this core arrives.
    fn on_rpc(
        &mut self,
        _api: &mut CoreApi<'_>,
        _src_node: u8,
        _src_core: u8,
        _tag: u64,
        _bytes: u32,
    ) {
    }

    /// Called when a reply to an RPC this core sent arrives.
    fn on_rpc_reply(&mut self, _api: &mut CoreApi<'_>, _tag: u64, _bytes: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_per_mechanism() {
        assert_eq!(ReadMechanism::Raw.wire_bytes(8192), 8192);
        // Microbenchmark SABRes move exactly the requested bytes.
        assert_eq!(ReadMechanism::Sabre.wire_bytes(8192), 8192);
        // Per-CL: 147 lines.
        assert_eq!(
            ReadMechanism::PerClValidate { payload: 8192 }.wire_bytes(8192),
            9408
        );
        assert_eq!(
            ReadMechanism::ChecksumValidate { payload: 48 }.wire_bytes(48),
            64
        );
    }

    #[test]
    fn op_kinds() {
        assert_eq!(ReadMechanism::Sabre.op(), OpKind::Sabre);
        assert_eq!(ReadMechanism::Raw.op(), OpKind::Read);
        assert_eq!(
            ReadMechanism::PerClValidate { payload: 64 }.op(),
            OpKind::Read
        );
        assert_eq!(
            ReadMechanism::WfRegister { payload: 64 }.op(),
            OpKind::WfRead
        );
        assert_eq!(ReadMechanism::OhRam { payload: 64 }.op(), OpKind::OhRead);
    }

    #[test]
    fn captured_read_wire_sizes() {
        // WfRegister: header block + one block-rounded slot.
        assert_eq!(
            ReadMechanism::WfRegister { payload: 1024 }.wire_bytes(1024),
            64 + 1088
        );
        // Oh-RAM: the clean object (16 B header + payload, block-rounded).
        assert_eq!(
            ReadMechanism::OhRam { payload: 1024 }.wire_bytes(1024),
            1088
        );
    }
}
