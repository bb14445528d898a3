//! Fig. 2: the reader-writer race that motivates the design.
//!
//! A two-block object is read remotely while a local writer updates it.
//! With plain (per-block-atomic) remote reads, some reads return *torn*
//! objects — new bytes in one block, old bytes in the other — exactly the
//! undetected violation of Fig. 2. With SABRes, every read the hardware
//! reports atomic verifies clean, and the races surface as aborts instead.

use std::sync::{Arc, Mutex};

use sabre_farm::{ScenarioStoreExt, StoreLayout};
use sabre_mem::Addr;
use sabre_rack::workloads::{verify_payload, Writer};
use sabre_rack::{CoreApi, ReadMechanism, ScenarioBuilder, Workload};
use sabre_sim::Time;
use sabre_sonuma::CqEntry;
use sabre_sw::layout::CleanLayout;

use crate::{RunOpts, Table};

/// Outcome of the race demonstration.
#[derive(Debug, Clone, Copy)]
pub struct RaceOutcome {
    /// Plain-read attempts.
    pub raw_reads: u64,
    /// Plain reads that returned torn objects (undetected violations!).
    pub raw_torn: u64,
    /// SABRe reads reported atomic.
    pub sabre_ok: u64,
    /// SABRe reads reported failed (detected conflicts).
    pub sabre_aborts: u64,
    /// SABRe reads reported atomic that were actually torn (must be 0).
    pub sabre_torn: u64,
}

/// Counters shared between the experiment and its reader (workloads are
/// `Send` — shards may run on worker threads — so shared state is
/// `Arc<Mutex<…>>`; the mutex is uncontended within one cluster run).
#[derive(Debug, Default)]
struct Counters {
    ok: u64,
    torn: u64,
    aborts: u64,
}

/// A reader that checks every returned object against the writer pattern.
struct VerifyingReader {
    mech: ReadMechanism,
    object: Addr,
    obj_id: u64,
    payload: u32,
    counters: Arc<Mutex<Counters>>,
    t0: Time,
}

impl VerifyingReader {
    fn new(
        mech: ReadMechanism,
        object: Addr,
        obj_id: u64,
        payload: u32,
        counters: Arc<Mutex<Counters>>,
    ) -> Self {
        VerifyingReader {
            mech,
            object,
            obj_id,
            payload,
            counters,
            t0: Time::ZERO,
        }
    }

    fn buf(&self, api: &CoreApi<'_>) -> Addr {
        Addr::new(api.config().memory_bytes as u64 / 2)
    }

    fn wire(&self) -> u32 {
        CleanLayout::object_bytes(self.payload as usize) as u32
    }

    fn issue(&mut self, api: &mut CoreApi<'_>) {
        let buf = self.buf(api);
        self.t0 = api.now();
        let wire = self.wire();
        api.issue(self.mech.op(), 1, self.object, buf, wire, 0);
    }
}

impl Workload for VerifyingReader {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.issue(api);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        let mut c = self.counters.lock().expect("counters poisoned");
        if cq.success {
            let image = api.read_local(self.buf(api), self.wire() as usize);
            let payload = CleanLayout::payload_of(&image, self.payload as usize);
            if verify_payload(self.obj_id, payload).is_some() {
                c.ok += 1;
            } else {
                c.torn += 1;
            }
        } else {
            c.aborts += 1;
        }
        drop(c);
        let latency = api.now() - self.t0;
        api.metrics().record_success(self.payload as u64, latency);
        self.issue(api);
    }
}

fn run_side(mech: ReadMechanism, duration: Time) -> (u64, u64, u64) {
    // One clean-layout object of 112 B payload = 2 cache blocks, matching
    // the figure's two-block example.
    let (scenario, store) =
        ScenarioBuilder::new().warmed_store(1, StoreLayout::Clean, 112, Some(1));
    let counters = Arc::new(Mutex::new(Counters::default()));
    let reader_counters = Arc::clone(&counters);
    let object = store.object_addr(0);
    let entries = store.object_entries();
    scenario
        .reader(0, 0, move |_| {
            Box::new(VerifyingReader::new(mech, object, 0, 112, reader_counters))
        })
        .workload(
            1,
            0,
            Box::new(Writer::new(entries, 112, StoreLayout::Clean, Time::ZERO)),
        )
        .run_for(duration);
    let c = counters.lock().expect("counters poisoned");
    (c.ok, c.torn, c.aborts)
}

/// Runs both sides of the demonstration.
pub fn data(opts: RunOpts) -> RaceOutcome {
    let duration = Time::from_us(opts.pick(400, 80));
    let sides = opts
        .sweep([ReadMechanism::Raw, ReadMechanism::Sabre])
        .map(|&mech| run_side(mech, duration));
    let (raw_ok, raw_torn, _) = sides[0];
    let (sabre_ok, sabre_torn, sabre_aborts) = sides[1];
    RaceOutcome {
        raw_reads: raw_ok + raw_torn,
        raw_torn,
        sabre_ok,
        sabre_aborts,
        sabre_torn,
    }
}

/// Renders the demonstration as a table.
pub fn run(opts: RunOpts) -> Table {
    let o = data(opts);
    let mut t = Table::new(
        "Fig. 2 — reader-writer race on a 2-block object (1 writer racing 1 reader)",
        &[
            "mechanism",
            "reads",
            "torn (undetected)",
            "aborts (detected)",
        ],
    );
    t.row(vec![
        "plain remote read".into(),
        o.raw_reads.to_string(),
        o.raw_torn.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "SABRe".into(),
        (o.sabre_ok + o.sabre_aborts).to_string(),
        o.sabre_torn.to_string(),
        o.sabre_aborts.to_string(),
    ]);
    t
}
