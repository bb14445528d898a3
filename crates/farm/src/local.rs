//! The FaRM *local* read path (Fig. 10).
//!
//! LightSABRes never touch local reads — but they *enable the clean object
//! layout*, and that is what Fig. 10 measures: a read-only KV lookup kernel
//! against local memory, with the store in the per-CL-versions layout
//! (every local read must validate + strip) versus the unmodified clean
//! layout (a plain streaming read).

use sabre_mem::Addr;
use sabre_rack::workloads::verify_payload;
use sabre_rack::{CoreApi, Workload};
use sabre_sim::Time;
use sabre_sw::cost::{DataSource, FarmCosts};

use crate::kv::KvStore;
use crate::store::StoreLayout;

/// A reader thread performing local-only key-value lookups.
#[derive(Debug)]
pub struct FarmLocalReader {
    kv: KvStore,
    costs: FarmCosts,
    remaining: Option<u64>,
    verify: bool,
    cur_obj: u64,
    cur_addr: Addr,
    t0: Time,
    busy: bool,
}

impl FarmLocalReader {
    /// A local reader that runs until the simulation ends.
    ///
    /// # Panics
    ///
    /// Panics if the store is on a different node than the reader will run
    /// on — callers are trusted to co-locate; the check happens at start.
    pub fn endless(kv: KvStore, costs: FarmCosts) -> Self {
        FarmLocalReader {
            kv,
            costs,
            remaining: None,
            verify: true,
            cur_obj: 0,
            cur_addr: Addr::new(0),
            t0: Time::ZERO,
            busy: false,
        }
    }

    /// A local reader performing exactly `n` successful lookups.
    pub fn iterations(kv: KvStore, costs: FarmCosts, n: u64) -> Self {
        let mut r = FarmLocalReader::endless(kv, costs);
        r.remaining = Some(n);
        r
    }

    /// Disables payload verification.
    pub fn without_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    fn payload(&self) -> usize {
        self.kv.store().payload() as usize
    }

    /// Cost of one local lookup under the store's layout: KV lookup + the
    /// object's memory stream + (per-CL only) the exposed part of the
    /// validate+strip kernel.
    fn op_cost(&self, api: &CoreApi<'_>) -> Time {
        let wire = self.kv.store().layout().wire_bytes(self.payload());
        let read = api.cpu().read_time(wire, DataSource::Memory);
        let strip = match self.kv.store().layout() {
            StoreLayout::PerCl => {
                let nominal = api.cpu().strip_time(wire);
                sabre_sim::Time::from_ns_f64(nominal.as_ns() * self.costs.local_strip_exposed)
            }
            StoreLayout::Checksum => api.cpu().crc_time(self.payload()),
            // Clean and wait-free register need no post-processing: the
            // payload is contiguous in the (published) slot.
            StoreLayout::Clean | StoreLayout::WfRegister => Time::ZERO,
        };
        self.costs.lookup + read + strip
    }

    fn begin(&mut self, api: &mut CoreApi<'_>, new_key: bool) {
        if self.remaining == Some(0) {
            self.busy = false;
            return;
        }
        if new_key {
            let key = api.rng().below(self.kv.keys());
            let (obj, addr) = self.kv.locate(key);
            self.cur_obj = obj;
            self.cur_addr = addr;
        }
        self.t0 = api.now();
        self.busy = true;
        api.sleep(self.op_cost(api));
    }
}

impl Workload for FarmLocalReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        assert_eq!(
            self.kv.store().node() as usize,
            api.node(),
            "FarmLocalReader must be co-located with its store"
        );
        self.begin(api, true);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        assert!(self.busy, "unexpected wake");
        let slot = self.kv.store().slot_bytes() as usize;
        let image = api.read_local(self.cur_addr, slot);
        let consistent = match self.kv.store().layout().validate(image, self.payload()) {
            Some(payload) => {
                if self.verify {
                    assert!(
                        verify_payload(self.cur_obj, &payload).is_some(),
                        "torn local read of object {}",
                        self.cur_obj
                    );
                }
                true
            }
            None => false,
        };
        if consistent {
            let latency = api.now() - self.t0;
            api.metrics().record_success(self.payload() as u64, latency);
            if let Some(n) = &mut self.remaining {
                *n -= 1;
            }
            self.begin(api, true);
        } else {
            api.metrics().record_retry();
            self.begin(api, false);
        }
    }
}
