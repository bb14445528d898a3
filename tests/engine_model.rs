//! Model-based property test of the LightSABRes engine.
//!
//! The discrete-event cluster exercises realistic schedules; this harness
//! exercises *adversarial* ones. It drives the sans-IO engine directly
//! against a functional memory, interleaving, under proptest control:
//!
//! * engine issue slots (pulling block reads in order),
//! * reply deliveries in **arbitrary order** (the memory system may reorder
//!   anything),
//! * writer steps (odd/even version protocol, one block store at a time,
//!   each raising an invalidation),
//! * spurious eviction invalidations for random blocks.
//!
//! **Invariant**: whenever the engine reports `atomic = true`, the payload
//! assembled from the replies (each sampled at its delivery instant) is a
//! single consistent snapshot. Liveness: every SABRe completes.

use proptest::prelude::*;

use sabres::core::{Action, BlockIssue, IssueKind, LightSabres, SabreId};
use sabres::mem::BLOCK_BYTES;
use sabres::prelude::*;
use sabres::rack::workloads::UpdatePlan;

/// One writer's position inside an update.
struct WriterModel {
    base: Addr,
    payload: usize,
    seq: u64,
    /// None: idle; Some(i): version is odd, next store is chunk i.
    step: Option<usize>,
    /// The stores of the update in progress, built when it locks.
    plan: UpdatePlan,
}

impl WriterModel {
    fn new(base: Addr, payload: usize) -> Self {
        WriterModel {
            base,
            payload,
            seq: 1,
            step: None,
            plan: UpdatePlan::new(),
        }
    }

    /// Performs one store; returns the block to invalidate.
    fn step(&mut self, mem: &mut NodeMemory) -> BlockAddr {
        match self.step {
            None => {
                let v = VersionWord::new(mem.read_u64(self.base));
                v.locked().store(mem, self.base);
                self.plan.rebuild(
                    WriterLayout::Clean,
                    self.base,
                    0,
                    self.seq,
                    self.payload,
                    v.raw(),
                );
                self.step = Some(0);
                self.base.block()
            }
            Some(i) => match self.plan.store(i) {
                Some((addr, data)) => {
                    mem.write(addr, data);
                    self.step = Some(i + 1);
                    addr.block()
                }
                None => {
                    let v = mem.read_u64(self.base);
                    mem.write_u64(self.base, v + 1);
                    self.step = None;
                    self.seq += 1;
                    self.base.block()
                }
            },
        }
    }
}

/// Outcome of one modeled SABRe.
#[derive(Debug)]
struct ModelOutcome {
    atomic: bool,
    /// Payload as the requester would assemble it from the replies.
    delivered: Vec<u8>,
}

/// Drives one SABRe through the engine under the given schedule.
///
/// `schedule` bytes pick the next actor: writer step, reply delivery,
/// engine pump, or spurious eviction.
fn run_model(payload: usize, schedule: &[u8], spec: SpecMode) -> ModelOutcome {
    let cfg = sabres::core::LightSabresConfig {
        spec_mode: spec,
        ..Default::default()
    };
    let mut engine = LightSabres::new(cfg);
    let object_bytes = CleanLayout::object_bytes(payload);
    let mut mem = NodeMemory::new(object_bytes.max(4096));
    let base = Addr::new(0);
    CleanLayout::init(&mut mem, base, &pattern_payload(0, 0, payload));
    let mut writer = WriterModel::new(base, payload);

    let id = SabreId {
        src_node: 0,
        src_pipe: 0,
        transfer: 1,
    };
    let slot = engine
        .register(id, base, object_bytes as u32, 0)
        .expect("fresh engine accepts registration");
    let blocks = object_bytes / BLOCK_BYTES;
    for _ in 0..blocks {
        engine.on_data_request(id).expect("requests in range");
    }

    let mut outstanding: Vec<BlockIssue> = Vec::new();
    let mut image = vec![0u8; object_bytes];
    let mut done: Option<bool> = None;
    let mut cursor = 0usize;
    let pick = |n: usize, k: usize| schedule.get(k).map_or(0, |&b| b as usize % n.max(1));

    let mut step = 0usize;
    while done.is_none() {
        step += 1;
        assert!(step < 100_000, "model failed to make progress");
        let choice = pick(4, cursor);
        cursor += 1;
        match choice {
            // Writer makes one store and the coherence fan-out reaches the
            // engine immediately.
            0 => {
                let block = writer.step(&mut mem);
                engine.on_invalidation(block);
            }
            // Deliver one outstanding reply, chosen by the schedule (the
            // memory system reorders freely). Data is sampled *now*.
            1 if !outstanding.is_empty() => {
                let idx = pick(outstanding.len(), cursor);
                cursor += 1;
                let issue = outstanding.swap_remove(idx);
                let data = mem.read_block(issue.block);
                let actions = match issue.kind {
                    IssueKind::Data => {
                        let off = issue.block_index as usize * BLOCK_BYTES;
                        image[off..off + BLOCK_BYTES].copy_from_slice(&data);
                        engine.on_block_reply(issue.slot, issue.block_index, &data)
                    }
                    IssueKind::Validate => engine.on_validate_reply(issue.slot, &data),
                    k => panic!("unexpected issue kind in OCC model: {k:?}"),
                };
                for a in actions {
                    let Action::Complete { atomic, .. } = a;
                    done = Some(atomic);
                }
            }
            // Engine pump: pull the next issue if any.
            2 => {
                if let Some(issue) = engine.next_issue() {
                    assert_eq!(issue.slot, slot);
                    outstanding.push(issue);
                }
            }
            // Spurious eviction invalidation on a random block of the range.
            3 => {
                let b = pick(blocks, cursor) as u64;
                cursor += 1;
                engine.on_invalidation(BlockAddr::from_index(b));
            }
            // No reply outstanding: fall through to a pump.
            _ => {
                if let Some(issue) = engine.next_issue() {
                    outstanding.push(issue);
                }
            }
        }
        // Starvation guard: once the schedule bytes run out, drain fairly.
        if cursor >= schedule.len() {
            while done.is_none() {
                if let Some(issue) = engine.next_issue() {
                    outstanding.push(issue);
                } else if let Some(issue) = outstanding.pop() {
                    let data = mem.read_block(issue.block);
                    let actions = match issue.kind {
                        IssueKind::Data => {
                            let off = issue.block_index as usize * BLOCK_BYTES;
                            image[off..off + BLOCK_BYTES].copy_from_slice(&data);
                            engine.on_block_reply(issue.slot, issue.block_index, &data)
                        }
                        IssueKind::Validate => engine.on_validate_reply(issue.slot, &data),
                        k => panic!("unexpected issue kind: {k:?}"),
                    };
                    for a in actions {
                        let Action::Complete { atomic, .. } = a;
                        done = Some(atomic);
                    }
                } else {
                    panic!("engine stalled with nothing outstanding");
                }
            }
        }
    }

    ModelOutcome {
        atomic: done.expect("loop exits on completion"),
        delivered: CleanLayout::payload_of(&image, payload).to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core soundness theorem, adversarially scheduled.
    #[test]
    fn atomic_sabres_deliver_consistent_snapshots(
        payload in 48usize..2048,
        schedule in proptest::collection::vec(any::<u8>(), 64..2048),
        spec in prop_oneof![Just(SpecMode::Speculative), Just(SpecMode::ReadVersionFirst)],
    ) {
        let outcome = run_model(payload, &schedule, spec);
        if outcome.atomic {
            prop_assert!(
                verify_payload(0, &outcome.delivered).is_some(),
                "engine reported atomic but payload is torn: {:?}…",
                &outcome.delivered[..16.min(outcome.delivered.len())]
            );
        }
    }

    /// Without writers *or* evictions, every SABRe succeeds, whatever the
    /// reply reordering.
    #[test]
    fn quiescent_sabres_always_succeed(
        payload in 48usize..2048,
        schedule in proptest::collection::vec(any::<u8>(), 64..1024),
    ) {
        // Remap writer (0) and eviction (3) choices onto pump choices so
        // only reply reorderings remain.
        let peaceful: Vec<u8> = schedule
            .iter()
            .map(|&b| if b % 4 == 0 || b % 4 == 3 { b & !3 | 2 } else { b })
            .collect();
        let outcome = run_model(payload, &peaceful, SpecMode::Speculative);
        prop_assert!(outcome.atomic, "quiescent SABRe failed");
        prop_assert!(verify_payload(0, &outcome.delivered).is_some());
    }

    /// Eviction false alarms may conservatively abort a SABRe inside its
    /// window of vulnerability (Fig. 3), but can never corrupt one: with
    /// no writers, whatever the engine *delivers as atomic* is the
    /// original object.
    #[test]
    fn evictions_never_corrupt(
        payload in 48usize..2048,
        schedule in proptest::collection::vec(any::<u8>(), 64..1024),
    ) {
        // Remap only writer choices (0) onto evictions (3): reorderings +
        // eviction storms, no data changes.
        let eviction_storm: Vec<u8> = schedule
            .iter()
            .map(|&b| if b % 4 == 0 { b | 3 } else { b })
            .collect();
        let outcome = run_model(payload, &eviction_storm, SpecMode::Speculative);
        if outcome.atomic {
            prop_assert_eq!(
                verify_payload(0, &outcome.delivered), Some(0),
                "eviction-only run delivered modified data"
            );
        }
    }
}
