//! The FaRM remote read path (Figs. 9a/9b): lock-free single-object reads
//! over one-sided operations.
//!
//! Baseline (per-CL versions layout): lookup → one-sided read into a
//! *system* buffer → buffer management + validate + strip into the
//! application buffer → application consumes (from L1, where the strip
//! left it). SABRe variant (clean layout): lookup → SABRe straight into
//! the application buffer (zero-copy) → application consumes (from LLC,
//! where the NI's DMA left it). Atomicity failures retry the same key, as
//! FaRM does.

use std::borrow::Cow;

use sabre_mem::Addr;
use sabre_rack::workloads::verify_payload;
use sabre_rack::{CoreApi, Phase, Workload};
use sabre_sim::Time;
use sabre_sonuma::CqEntry;
use sabre_sw::cost::DataSource;

use crate::costs::FarmCosts;
use crate::kv::KvStore;
use crate::store::StoreLayout;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Lookup,
    AwaitTransfer,
    PostProcess,
    Consume,
}

/// A FaRM reader thread performing random key-value lookups over
/// synchronous one-sided operations.
#[derive(Debug)]
pub struct FarmReader {
    kv: KvStore,
    costs: FarmCosts,
    remaining: Option<u64>,
    local_buf: Option<Addr>,
    /// Verify returned payloads against the writer pattern (soundness
    /// checking; keep on — the cost is host-side only).
    verify: bool,
    cur_obj: u64,
    cur_addr: Addr,
    t0: Time,
    state: State,
}

impl FarmReader {
    /// A reader that runs until the simulation ends.
    pub fn endless(kv: KvStore, costs: FarmCosts) -> Self {
        FarmReader {
            kv,
            costs,
            remaining: None,
            local_buf: None,
            verify: true,
            cur_obj: 0,
            cur_addr: Addr::new(0),
            t0: Time::ZERO,
            state: State::Idle,
        }
    }

    /// A reader performing exactly `n` successful lookups.
    pub fn iterations(kv: KvStore, costs: FarmCosts, n: u64) -> Self {
        let mut r = FarmReader::endless(kv, costs);
        r.remaining = Some(n);
        r
    }

    /// Disables payload verification (pure performance runs).
    pub fn without_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    fn payload(&self) -> u32 {
        self.kv.store().payload()
    }

    fn wire(&self) -> u32 {
        self.kv.store().layout().wire_bytes(self.payload() as usize) as u32
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        self.local_buf.unwrap_or_else(|| {
            let half = api.config().memory_bytes as u64 / 2;
            Addr::new(half + api.core() as u64 * 256 * 1024)
        })
    }

    fn begin_lookup(&mut self, api: &mut CoreApi<'_>, new_key: bool) {
        if self.remaining == Some(0) {
            self.state = State::Idle;
            return;
        }
        if new_key {
            let key = api.rng().below(self.kv.keys());
            let (obj, addr) = self.kv.locate(key);
            self.cur_obj = obj;
            self.cur_addr = addr;
        }
        self.t0 = api.now();
        self.state = State::Lookup;
        api.metrics()
            .record_phase(Phase::Framework, self.costs.lookup);
        api.sleep(self.costs.lookup);
    }

    fn issue_read(&mut self, api: &mut CoreApi<'_>) {
        let mech = self.kv.store().layout().mechanism(self.payload());
        let buf = self.buf(api);
        api.issue(
            mech.op(),
            self.kv.store().node(),
            self.cur_addr,
            buf,
            self.wire(),
            0,
        );
        self.state = State::AwaitTransfer;
    }

    fn success(&mut self, api: &mut CoreApi<'_>) {
        let latency = api.now() - self.t0;
        api.metrics().record_success(self.payload() as u64, latency);
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        self.begin_lookup(api, true);
    }

    fn retry(&mut self, api: &mut CoreApi<'_>) {
        api.metrics().record_retry();
        self.begin_lookup(api, false);
    }

    /// Validates the transferred image; returns the clean payload on
    /// success.
    fn validate(&self, api: &CoreApi<'_>) -> Option<Vec<u8>> {
        let image = api.read_local(self.buf(api), self.wire() as usize);
        let layout = self.kv.store().layout();
        layout
            .validate(&image, self.payload() as usize)
            .map(Cow::into_owned)
    }

    fn check_pattern(&self, payload: &[u8]) {
        if self.verify {
            assert!(
                verify_payload(self.cur_obj, payload).is_some(),
                "torn object {} delivered as atomic",
                self.cur_obj
            );
        }
    }
}

impl Workload for FarmReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.begin_lookup(api, true);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        assert_eq!(self.state, State::AwaitTransfer);
        let transfer = api.now() - self.t0;
        api.metrics().record_phase(Phase::Transfer, transfer);
        match self.kv.store().layout() {
            StoreLayout::Clean | StoreLayout::WfRegister => {
                if !cq.success {
                    self.retry(api);
                    return;
                }
                // Zero-copy: the object is already in the application
                // buffer (LLC-resident); lean framework + consume.
                let framework = self.costs.framework_sabre;
                let app = api
                    .cpu()
                    .read_time(self.payload() as usize, DataSource::Llc);
                api.metrics().record_phase(Phase::Framework, framework);
                api.metrics().record_phase(Phase::App, app);
                self.state = State::Consume;
                api.sleep(framework + app);
            }
            StoreLayout::PerCl => {
                let framework = self.costs.framework_baseline();
                let strip = api.cpu().strip_time(self.wire() as usize);
                api.metrics().record_phase(Phase::Framework, framework);
                api.metrics().record_phase(Phase::Strip, strip);
                self.state = State::PostProcess;
                api.sleep(framework + strip);
            }
            StoreLayout::Checksum => {
                let framework = self.costs.framework_baseline();
                let crc = api.cpu().crc_time(self.payload() as usize);
                api.metrics().record_phase(Phase::Framework, framework);
                api.metrics().record_phase(Phase::Strip, crc);
                self.state = State::PostProcess;
                api.sleep(framework + crc);
            }
        }
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        match self.state {
            State::Lookup => self.issue_read(api),
            State::PostProcess => match self.validate(api) {
                Some(payload) => {
                    self.check_pattern(&payload);
                    // The strip left the clean object in the L1d; the
                    // application consumes it from there.
                    let app = api.cpu().read_time(payload.len(), DataSource::L1);
                    api.metrics().record_phase(Phase::App, app);
                    self.state = State::Consume;
                    api.sleep(app);
                }
                None => self.retry(api),
            },
            State::Consume => {
                let layout = self.kv.store().layout();
                if matches!(layout, StoreLayout::Clean | StoreLayout::WfRegister) && self.verify {
                    if let Some(payload) = self.validate(api) {
                        self.check_pattern(&payload);
                    }
                }
                self.success(api);
            }
            s => panic!("unexpected wake in {s:?}"),
        }
    }
}
