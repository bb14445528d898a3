//! Shared by the integration tests; each test binary uses part of it.
//!
//! * Execution settings for the tests that replay one shipped
//!   construction at several of them. [`ClusterConfig::shards`] and
//!   [`ClusterConfig::threads`] are the simulator's only execution
//!   settings, and no simulated bit may depend on them.
//!   `tests/execution_invariance.rs` proves that over generated scenarios;
//!   the tests that include this module pin it on the constructions the
//!   figures and the torture sweeps ship.
//! * The read [`Ledger`]: what the shipped reader returned, checked
//!   against the writers' pattern through [`WorkloadSpec::observe`].

#![allow(dead_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use sabres::prelude::*;
use sabres::rack::ObservedRead;

/// One execution setting: event-loop shards (`None`: one per node) and
/// the worker threads driving them.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Event-loop shards; `None` puts each node in a shard of its own.
    pub shards: Option<usize>,
    /// Worker threads (`None`: the calling thread alone).
    pub threads: Option<usize>,
}

impl Exec {
    /// One shard, driven serially: the reference every replay matches.
    pub const SERIAL: Exec = Exec {
        shards: Some(1),
        threads: None,
    };

    /// Every setting a replay covers, the serial reference first.
    pub const ALL: [Exec; 4] = [
        Exec::SERIAL,
        Exec {
            shards: Some(2),
            threads: Some(2),
        },
        Exec {
            shards: None,
            threads: Some(2),
        },
        Exec {
            shards: None,
            threads: Some(4),
        },
    ];

    /// Writes this setting into `cfg`; call it after the node count is
    /// final.
    pub fn apply(self, cfg: &mut ClusterConfig) {
        cfg.shards = self.shards.unwrap_or(cfg.nodes);
        cfg.threads = self.threads;
    }
}

/// Runs `run` at every setting in [`Exec::ALL`] and asserts that each
/// result equals the serial one, which it returns.
pub fn assert_execution_invariant<T: PartialEq + Debug>(what: &str, run: impl Fn(Exec) -> T) -> T {
    let serial = run(Exec::SERIAL);
    for exec in &Exec::ALL[1..] {
        assert_eq!(
            serial,
            run(*exec),
            "{what}: {exec:?} diverged from the serial run"
        );
    }
    serial
}

/// Every read the observed readers returned, checked against the writers'
/// pattern ([`verify_payload`]). Each field is an order-insensitive
/// reduction, or a per-reader-core one, so a ledger is the same at every
/// execution setting although readers on different shards report from
/// different threads.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Reads whose payload is one committed writer snapshot.
    pub verified: u64,
    /// Reads whose payload is not. Only raw controls may count these: for
    /// any other mechanism the shipped reader reported a torn object, or
    /// one its own software check rejects, as a success.
    pub torn: u64,
    /// Verified reads that saw an older sequence number of an object than
    /// the same reader core verified before.
    pub time_travel: u64,
    /// Verified reads that a restored replica served with pre-outage data
    /// after its catch-up guard dropped ([`Freshness`]).
    pub stale_post: u64,
    /// The highest sequence number verified per object.
    pub max_seq: BTreeMap<u64, u64>,
    /// Per `(node, core, object)`: the last sequence number verified.
    last_seq: BTreeMap<(usize, usize, usize), u64>,
    /// Per object: the highest sequence number verified before the
    /// [`Freshness`] outage began.
    pre_outage: BTreeMap<u64, u64>,
}

/// The kill-a-leaf freshness oracle. Pattern seqs are monotone per object
/// and every replica runs the same deterministic update schedule, so the
/// highest seq any reader verified for an object *before* the outage is a
/// floor the restored replicas must clear once their catch-up guard drops:
/// a post-outage read a restored site serves at or below that floor is data
/// the outage should have invalidated. The floors are a commutative `max`,
/// all of them separated from every check by the outage window itself, so
/// the order in which readers report never matters.
#[derive(Debug, Clone)]
pub struct Freshness {
    /// The replica sites the outage takes down and restores.
    pub restored: Vec<usize>,
    /// When the outage begins.
    pub from: Time,
    /// When it ends.
    pub until: Time,
}

/// Checks the reads of every spec it is [attached](ReadChecker::attach)
/// to and keeps their [`Ledger`].
#[derive(Debug, Clone)]
pub struct ReadChecker {
    ledger: Arc<Mutex<Ledger>>,
    mech: ReadMechanism,
    payload: usize,
    freshness: Option<Arc<Freshness>>,
}

impl ReadChecker {
    /// A checker of `payload`-byte objects read under `mech`.
    pub fn new(mech: ReadMechanism, payload: u32) -> Self {
        ReadChecker {
            ledger: Arc::default(),
            mech,
            payload: payload as usize,
            freshness: None,
        }
    }

    /// Also counts [`Ledger::stale_post`] reads against `freshness`.
    pub fn with_freshness(mut self, freshness: Freshness) -> Self {
        self.freshness = Some(Arc::new(freshness));
        self
    }

    /// `spec` with its reads reported to this checker.
    pub fn attach(&self, spec: WorkloadSpec) -> WorkloadSpec {
        let checker = self.clone();
        spec.observe(move |read| checker.record(read))
    }

    /// The ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger.lock().expect("ledger poisoned").clone()
    }

    fn record(&self, read: &ObservedRead<'_>) {
        let obj = read.obj as u64;
        let seq = clean_payload(self.mech, self.payload, read.image)
            .and_then(|payload| verify_payload(obj, &payload));
        let mut guard = self.ledger.lock().expect("ledger poisoned");
        let ledger = &mut *guard;
        let Some(seq) = seq else {
            ledger.torn += 1;
            return;
        };
        ledger.verified += 1;
        let max = ledger.max_seq.entry(obj).or_default();
        *max = (*max).max(seq);
        let last = ledger
            .last_seq
            .entry((read.node, read.core, read.obj))
            .or_default();
        let went_back = seq < *last;
        *last = seq;
        ledger.time_travel += u64::from(went_back);
        if let Some(f) = &self.freshness {
            let floor = ledger.pre_outage.entry(obj).or_default();
            if read.at < f.from {
                *floor = (*floor).max(seq);
            } else if read.at > f.until && f.restored.contains(&read.served_by) && seq <= *floor {
                ledger.stale_post += 1;
            }
        }
    }
}

/// The clean payload of a read image under `mech`, or `None` when the
/// image fails the mechanism's own software check.
fn clean_payload(mech: ReadMechanism, payload: usize, image: &[u8]) -> Option<Cow<'_, [u8]>> {
    match StoreLayout::of_mechanism(mech) {
        // The wait-free register ships `[header | one slot]`; the capture
        // guarantees the slot is the published version, whole, so the
        // slot's own seq word must agree with the publish word.
        Some((StoreLayout::WfRegister, _)) => {
            let (published, _) = WfRegisterLayout::published_of(image);
            assert_eq!(
                WfRegisterLayout::slot_seq_of(image),
                published,
                "wait-free capture delivered a slot from another version"
            );
            Some(Cow::Borrowed(WfRegisterLayout::payload_of(image, payload)))
        }
        Some((layout @ (StoreLayout::PerCl | StoreLayout::Checksum), _)) => {
            layout.validate(image, payload)
        }
        // Raw reads, SABRes, Oh-RAM and source locking move clean objects.
        _ => Some(Cow::Borrowed(CleanLayout::payload_of(image, payload))),
    }
}
