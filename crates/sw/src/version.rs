//! The odd/even object version protocol (§4.2) and the shared reader-lock
//! word used by destination-side locking.
//!
//! Every object's header starts with a 64-bit version word, "similar in
//! philosophy to Masstree's object versions": writers increment it to
//! acquire exclusive access (making it odd) and increment it again when done
//! (making it even). An odd version therefore means *locked*; an even
//! version is a stable snapshot identifier.

use sabre_mem::{Addr, NodeMemory};

/// Typed view of a 64-bit odd/even version word.
///
/// # Example
///
/// ```
/// use sabre_sw::VersionWord;
///
/// let v = VersionWord::new(4);
/// assert!(!v.is_locked());
/// assert_eq!(v.locked().raw(), 5);
/// assert!(VersionWord::new(5).is_locked());
/// assert_eq!(VersionWord::new(5).unlocked().raw(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VersionWord(u64);

impl VersionWord {
    /// Wraps a raw version value.
    pub const fn new(raw: u64) -> Self {
        VersionWord(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether a writer currently holds the object (odd value).
    pub const fn is_locked(self) -> bool {
        self.0 % 2 == 1
    }

    /// The version after a writer's first increment (lock acquisition).
    ///
    /// # Panics
    ///
    /// Panics if already locked — writers must be serialized by the caller.
    pub fn locked(self) -> VersionWord {
        assert!(!self.is_locked(), "version already locked: {}", self.0);
        VersionWord(self.0 + 1)
    }

    /// The version after a writer's second increment (publish + unlock).
    ///
    /// # Panics
    ///
    /// Panics if not locked.
    pub fn unlocked(self) -> VersionWord {
        assert!(self.is_locked(), "version not locked: {}", self.0);
        VersionWord(self.0 + 1)
    }
}

/// Helpers for manipulating a version word in simulated memory. These model
/// single-block (hence atomic) accesses by local writer threads.
impl VersionWord {
    /// Loads the version word at `addr`.
    pub fn load(mem: &NodeMemory, addr: Addr) -> VersionWord {
        VersionWord(mem.read_u64(addr))
    }

    /// Stores `self` at `addr`.
    pub fn store(self, mem: &mut NodeMemory, addr: Addr) {
        mem.write_u64(addr, self.0);
    }
}

/// The shared reader-lock word used by destination-side locking
/// (`sabre_core::CcMode::Locking`): a count of readers currently holding
/// the object. Writers wait for zero; the LightSABRes engine increments and
/// decrements it with atomic RMWs.
///
/// By convention it lives at `version_addr + 8` in the clean layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReaderLockWord(u64);

impl ReaderLockWord {
    /// Offset of the reader-lock word relative to the version word.
    pub const OFFSET_FROM_VERSION: u64 = 8;

    /// Number of readers currently holding the lock.
    pub const fn readers(self) -> u64 {
        self.0
    }

    /// Attempts a shared acquire at `version_addr`: fails if a writer holds
    /// the object (odd version). Performed as one atomic RMW at a single
    /// simulated instant.
    ///
    /// Returns whether the lock was acquired.
    pub fn try_shared_acquire(mem: &mut NodeMemory, version_addr: Addr) -> bool {
        if VersionWord::load(mem, version_addr).is_locked() {
            return false;
        }
        let lock_addr = version_addr + Self::OFFSET_FROM_VERSION;
        let count = mem.read_u64(lock_addr);
        mem.write_u64(lock_addr, count + 1);
        true
    }

    /// Releases one shared hold at `version_addr`.
    ///
    /// # Panics
    ///
    /// Panics if no reader holds the lock (a protocol bug).
    pub fn shared_release(mem: &mut NodeMemory, version_addr: Addr) {
        let lock_addr = version_addr + Self::OFFSET_FROM_VERSION;
        let count = mem.read_u64(lock_addr);
        assert!(count > 0, "reader-lock release without acquire");
        mem.write_u64(lock_addr, count - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_protocol() {
        let v0 = VersionWord::new(0);
        assert!(!v0.is_locked());
        let v1 = v0.locked();
        assert!(v1.is_locked());
        let v2 = v1.unlocked();
        assert!(!v2.is_locked());
        assert_eq!(v2.raw(), 2);
    }

    #[test]
    #[should_panic(expected = "already locked")]
    fn double_lock_panics() {
        let _ = VersionWord::new(1).locked();
    }

    #[test]
    #[should_panic(expected = "not locked")]
    fn unlock_free_panics() {
        let _ = VersionWord::new(2).unlocked();
    }

    #[test]
    fn memory_round_trip() {
        let mut mem = NodeMemory::new(256);
        VersionWord::new(42).store(&mut mem, Addr::new(64));
        assert_eq!(VersionWord::load(&mem, Addr::new(64)).raw(), 42);
    }

    /// Readers holding the shared lock of the object at `va`.
    fn holders(mem: &NodeMemory, va: Addr) -> u64 {
        mem.read_u64(va + ReaderLockWord::OFFSET_FROM_VERSION)
    }

    #[test]
    fn reader_lock_protocol() {
        let mut mem = NodeMemory::new(256);
        let va = Addr::new(0);
        assert_eq!(holders(&mem, va), 0);
        assert!(ReaderLockWord::try_shared_acquire(&mut mem, va));
        assert!(ReaderLockWord::try_shared_acquire(&mut mem, va));
        assert_eq!(holders(&mem, va), 2);
        ReaderLockWord::shared_release(&mut mem, va);
        ReaderLockWord::shared_release(&mut mem, va);
        assert_eq!(holders(&mem, va), 0);
    }

    #[test]
    fn reader_lock_blocked_by_writer() {
        let mut mem = NodeMemory::new(256);
        let va = Addr::new(0);
        VersionWord::new(3).store(&mut mem, va); // odd: writer holds
        assert!(!ReaderLockWord::try_shared_acquire(&mut mem, va));
        assert_eq!(holders(&mem, va), 0);
    }

    #[test]
    #[should_panic(expected = "without acquire")]
    fn release_without_acquire_panics() {
        let mut mem = NodeMemory::new(256);
        ReaderLockWord::shared_release(&mut mem, Addr::new(0));
    }
}
