//! FaRM's write path: writes go to the data owner over an RPC (§2.1 —
//! "one-sided operations are only used for reads, while writes are sent to
//! the data owner over an RPC"; §6 — FaRM "uses one-sided reads to access
//! remote objects … while writes are always sent to the data owner").
//!
//! The owner runs the rack's one [`Writer`] in its
//! [`.serving_rpcs()`] shape, applying each update with
//! the same block-at-a-time store sequence as a local writer thread, so
//! RPC writes race concurrent SABRes and software-validated reads exactly
//! like local writers do. This module holds the client.
//!
//! [`Writer`]: sabre_rack::workloads::Writer
//! [`.serving_rpcs()`]: sabre_rack::workloads::Writer::serving_rpcs

use sabre_rack::{CoreApi, Workload};
use sabre_sim::Time;

use crate::kv::KvStore;

/// A client thread sending write RPCs for random keys in a closed loop.
/// It locates each key's object itself and sends the object id as the
/// RPC's tag, so the server needs no keyspace.
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
        let (obj, _) = self.kv.locate(key);
        self.next_tag = obj;
        self.t0 = api.now();
        // The tag names the object; the payload travels in the RPC body.
        api.send_rpc(
            self.kv.store().node(),
            self.server_core,
            obj,
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
