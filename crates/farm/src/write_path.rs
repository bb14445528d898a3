//! FaRM's write path: writes go to the data owner over an RPC (§2.1 —
//! "one-sided operations are only used for reads, while writes are sent to
//! the data owner over an RPC"; §6 — FaRM "uses one-sided reads to access
//! remote objects … while writes are always sent to the data owner").
//!
//! The server applies updates with the same block-at-a-time store sequence
//! as a local writer thread, so RPC writes race concurrent SABRes and
//! software-validated reads exactly like local writers do.

use std::collections::VecDeque;

use sabre_rack::{CoreApi, UpdatePlan, Workload};
use sabre_sim::Time;

use crate::kv::KvStore;

#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    src_node: u8,
    src_core: u8,
    tag: u64,
    obj: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerPhase {
    Idle,
    /// The queue's head write is in progress; each wake is one
    /// [`UpdatePlan::step`].
    Updating,
}

/// The owner-side RPC write server: applies object updates requested by
/// remote [`RpcWriter`]s, one block store per
/// [`writer_store_interval`](sabre_rack::ClusterConfig::writer_store_interval).
#[derive(Debug)]
pub struct RpcWriteServer {
    kv: KvStore,
    queue: VecDeque<PendingWrite>,
    phase: ServerPhase,
    seq: u64,
    /// The stores of the write in progress, built when it starts.
    plan: UpdatePlan,
    applied: u64,
}

impl RpcWriteServer {
    /// Creates a server for `kv`'s store (which must be local to the core
    /// this runs on).
    pub fn new(kv: KvStore) -> Self {
        RpcWriteServer {
            kv,
            queue: VecDeque::new(),
            phase: ServerPhase::Idle,
            seq: 1,
            plan: UpdatePlan::new(),
            applied: 0,
        }
    }

    /// Updates applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    fn begin_next(&mut self, api: &mut CoreApi<'_>) {
        let Some(req) = self.queue.front().copied() else {
            self.phase = ServerPhase::Idle;
            return;
        };
        let object = (req.obj, self.kv.store().object_addr(req.obj));
        let payload_len = self.kv.store().payload() as usize;
        // The server never waits: it assumes no reader holds the object's
        // lock.
        let layout = self.kv.store().layout();
        self.plan.start(api, layout, object, self.seq, payload_len);
        self.phase = ServerPhase::Updating;
    }
}

impl Workload for RpcWriteServer {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        assert_eq!(
            self.kv.store().node() as usize,
            api.node(),
            "RpcWriteServer must own its store"
        );
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, _bytes: u32) {
        let (obj, _) = self.kv.locate(tag);
        self.queue.push_back(PendingWrite {
            src_node,
            src_core,
            tag,
            obj,
        });
        if self.phase == ServerPhase::Idle {
            self.begin_next(api);
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        assert_eq!(
            self.phase,
            ServerPhase::Updating,
            "idle server does not sleep"
        );
        if self.plan.step(api) {
            let req = self.queue.pop_front().expect("woke with work pending");
            self.applied += 1;
            self.seq += 1;
            api.reply_rpc(req.src_node, req.src_core, req.tag, 16);
            self.begin_next(api);
        }
    }
}

/// A client thread sending write RPCs for random keys in a closed loop.
#[derive(Debug)]
pub struct RpcWriter {
    kv: KvStore,
    server_core: u8,
    think: Time,
    remaining: Option<u64>,
    t0: Time,
    next_tag: u64,
}

impl RpcWriter {
    /// A writer client that runs until the simulation ends, addressing the
    /// server on `server_core` of the store's node.
    pub fn endless(kv: KvStore, server_core: u8, think: Time) -> Self {
        RpcWriter {
            kv,
            server_core,
            think,
            remaining: None,
            t0: Time::ZERO,
            next_tag: 0,
        }
    }

    /// A writer client performing exactly `n` writes.
    pub fn iterations(kv: KvStore, server_core: u8, think: Time, n: u64) -> Self {
        let mut w = RpcWriter::endless(kv, server_core, think);
        w.remaining = Some(n);
        w
    }

    fn send_next(&mut self, api: &mut CoreApi<'_>) {
        if self.remaining == Some(0) {
            return;
        }
        let key = api.rng().below(self.kv.keys());
        self.next_tag = key;
        self.t0 = api.now();
        // Tag doubles as the key; payload travels in the RPC body.
        api.send_rpc(
            self.kv.store().node(),
            self.server_core,
            key,
            self.kv.store().payload() + 32,
        );
    }
}

impl Workload for RpcWriter {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.send_next(api);
    }

    fn on_rpc_reply(&mut self, api: &mut CoreApi<'_>, tag: u64, _bytes: u32) {
        assert_eq!(tag, self.next_tag, "out-of-order RPC reply");
        let latency = api.now() - self.t0;
        api.metrics()
            .record_success(self.kv.store().payload() as u64, latency);
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        if self.think == Time::ZERO {
            self.send_next(api);
        } else {
            api.sleep(self.think);
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.send_next(api);
    }
}
