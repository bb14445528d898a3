//! Software atomicity mechanisms for one-sided object reads.
//!
//! These are the *source-side* concurrency-control schemes of Table 1 that
//! the paper's hardware proposal replaces, implemented functionally (on real
//! bytes, so torn reads are detectable for real) plus the CPU cost model
//! used to charge their cycles in the timing simulation:
//!
//! * [`layout`] — the two object layouts: the **clean** layout used with
//!   SABRes (header + contiguous payload, zero-copy-friendly) and FaRM's
//!   **per-cache-line versions** layout (a version stamp embedded in every
//!   64-byte line, requiring post-transfer validation + stripping).
//! * [`version`] — the Masstree-style odd/even version protocol shared by
//!   all mechanisms, plus the shared reader-lock word used by
//!   destination-side locking.
//! * [`checksum`] — Pilaf's approach: a CRC64 (ECMA-182) over the payload
//!   stored in the header, recomputed by readers (≈12 cycles/byte).
//! * [`locking`] — DrTM-style *remote* lock acquisition: an extra RDMA CAS
//!   roundtrip before the data read.
//! * [`cost`] — the calibrated CPU cost model (cycles per byte for strip /
//!   CRC / copy / read) and FaRM's framework costs ([`FarmCosts`]), used by
//!   the latency breakdowns of Figs. 1 and 9a.
//! * [`wf_register`] — the wait-free multi-version register layout
//!   (Ianni et al.): readers never abort, writers rotate version slots.
//! * [`capture`] — the server-side [`ObjectCapture`] state machine the
//!   R2P2 service pipeline runs for the WfRegister and Oh-RAM read
//!   protocols (assemble a consistent image, then stream it in one burst).

pub mod capture;
pub mod checksum;
pub mod cost;
pub mod layout;
pub mod locking;
pub mod version;
pub mod wf_register;

pub use capture::{tag_board_addr, CaptureKind, CaptureStep, ObjectCapture};
pub use checksum::{crc64_ecma, crc64_ecma_scalar, ChecksumLayout};
pub use cost::{CpuCostModel, FarmCosts};
pub use layout::{AtomicityViolation, CleanLayout, PerClLayout};
pub use version::{ReaderLockWord, VersionWord};
pub use wf_register::WfRegisterLayout;
