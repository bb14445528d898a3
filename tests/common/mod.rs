//! Execution settings for the tests that replay one shipped construction
//! at several of them.
//!
//! [`ClusterConfig::shards`] and [`ClusterConfig::threads`] are the
//! simulator's only execution settings, and no simulated bit may depend
//! on them. `tests/execution_invariance.rs` proves that over generated
//! scenarios; the tests that include this module pin it on the
//! constructions the figures and the torture sweeps ship.

use std::fmt::Debug;

use sabres::prelude::ClusterConfig;

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
