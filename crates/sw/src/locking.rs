//! Source-side remote locking (DrTM-style), the top-left quadrant of
//! Table 1.
//!
//! A reader that wants an atomic remote object read under this scheme pays:
//!
//! 1. a one-sided **remote CAS** on the object's lock word (one full network
//!    roundtrip) to acquire the lock;
//! 2. the one-sided **data read** itself;
//! 3. a one-sided **unlock write** — fired asynchronously, so it adds
//!    occupancy but not latency.
//!
//! The paper's two criticisms are both observable here: the extra roundtrip
//! (vs. SABRes' zero) and the fault-tolerance coupling (a crashed reader
//! leaves the lock held — represented by an unreleased lock in simulated
//! memory).

use sabre_mem::{Addr, NodeMemory};

use crate::version::VersionWord;

/// Outcome of a remote CAS on a lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The lock was acquired.
    Acquired,
    /// The word did not match (someone else holds the lock).
    Contended,
}

/// Performs the remote CAS a DrTM-style reader sends: atomically flips the
/// version word from even (free) to odd (held). Executed at a single
/// simulated instant at the destination's memory.
pub fn remote_cas_lock(mem: &mut NodeMemory, version_addr: Addr) -> CasOutcome {
    let v = VersionWord::load(mem, version_addr);
    if v.is_locked() {
        return CasOutcome::Contended;
    }
    v.locked().store(mem, version_addr);
    CasOutcome::Acquired
}

/// The matching unlock: flips the word back to even, *advancing* the
/// version so that optimistic readers racing the locked section retry.
///
/// # Panics
///
/// Panics if the lock is not held (protocol bug).
pub fn remote_unlock(mem: &mut NodeMemory, version_addr: Addr) {
    let v = VersionWord::load(mem, version_addr);
    v.unlocked().store(mem, version_addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_lock_unlock_cycle() {
        let mut mem = NodeMemory::new(256);
        let va = Addr::new(0);
        assert_eq!(remote_cas_lock(&mut mem, va), CasOutcome::Acquired);
        assert_eq!(remote_cas_lock(&mut mem, va), CasOutcome::Contended);
        remote_unlock(&mut mem, va);
        // Version advanced past the critical section: 0 → 1 → 2.
        assert_eq!(VersionWord::load(&mem, va).raw(), 2);
        assert_eq!(remote_cas_lock(&mut mem, va), CasOutcome::Acquired);
    }

    #[test]
    #[should_panic(expected = "not locked")]
    fn unlock_free_lock_panics() {
        let mut mem = NodeMemory::new(256);
        remote_unlock(&mut mem, Addr::new(0));
    }
}
