//! Host cost per call of each layer's public functions, replayed on inputs
//! shaped like the workload (its fabric, reader→store pairs, wire sizes and
//! mechanisms), and the exact count each cost multiplies.
//!
//! `ns × count` estimates how much of the measured window a layer costs.
//! Every count is exact, taken from the window's simulated statistics; a
//! few are lower bounds because the simulator exposes no counter for the
//! call itself (each says so). The remainder of the window —
//! dispatch, the event loop, and whatever a replay misses — is reported as
//! `rack.unattributed_s`.

use std::hint::black_box;
use std::time::Instant;

use sabre_core::{IssueKind, LightSabres, SabreId};
use sabre_fabric::{Fabric, ShardRouter};
use sabre_mem::{Addr, BlockAddr, Llc, BLOCK_BYTES};
use sabre_rack::ClusterConfig;
use sabre_sim::calendar::HEAP_OCCUPANCY_MAX;
use sabre_sim::{CalendarQueue, LatencyHistogram, Time};
use sabre_sonuma::{Block, OpKind, Packet, R2p2, R2p2Action, SourcePipeline, WqEntry};
use sabre_sw::layout::PerClLayout;
use sabre_sw::{CaptureKind, CaptureStep, ObjectCapture, VersionWord};

use crate::workloads::Shape;
use crate::SimStats;

/// One layer's measured cost.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Metric name of the per-call cost (`<layer>.<call>_ns`).
    pub name: &'static str,
    /// Fastest host ns per call.
    pub ns: f64,
    /// Calls the window made (exact, or a stated lower bound).
    pub count: f64,
}

impl LayerCost {
    /// Estimated host seconds the window spent in this call.
    pub fn est_s(&self) -> f64 {
        self.ns * self.count * 1e-9
    }

    /// Metric name of the estimate (`<layer>.<call>_est_s`).
    pub fn est_name(&self) -> String {
        format!("{}_est_s", self.name.trim_end_matches("_ns"))
    }
}

/// Measures every layer's per-call cost for one workload.
pub fn measure(shape: &Shape, cfg: &ClusterConfig, stats: &SimStats) -> Vec<LayerCost> {
    let lookahead = cfg.fabric.min_latency();
    let windows = (stats.window.as_ps() / lookahead.as_ps()).max(1) as f64;
    let packets = stats.fabric.hops.packets as f64;
    let per_window = packets / windows;
    let r = &stats.r2p2;

    // Mean blocks per transfer over the workload's reads of the kinds in
    // `ops` (0 when it issues none).
    let read_blocks = |ops: &[OpKind]| -> f64 {
        let wires: Vec<f64> = shape
            .reads
            .iter()
            .filter(|(o, _)| ops.contains(o))
            .map(|&(_, w)| blocks(w) as f64)
            .collect();
        wires.iter().sum::<f64>() / wires.len().max(1) as f64
    };
    // Payload blocks the readers' RCPs DMA into local buffers: plain-read
    // blocks served, plus whole SABRe and captured images.
    let dma_blocks = r.plain_reads as f64
        + r.sabres_registered as f64 * read_blocks(&[OpKind::Sabre])
        + r.captured_reads as f64 * read_blocks(&[OpKind::OhRead, OpKind::WfRead]);
    let written = r.writes as f64;
    let write_blocks = shape.write_wire.map_or(1, blocks) as f64;
    let read_transfers = r.sabres_registered as f64
        + r.captured_reads as f64
        + r.plain_reads as f64 / read_blocks(&[OpKind::Read]).max(1.0);

    let sends = fabric_script(cfg, shape);
    vec![
        LayerCost {
            name: "fabric.send_ns",
            ns: fabric_send(cfg, &sends, per_window),
            count: packets,
        },
        LayerCost {
            name: "fabric.merge_ns",
            ns: fabric_merge(cfg, &sends, per_window),
            count: (stats.fabric.delivered + stats.fabric.dropped) as f64,
        },
        LayerCost {
            name: "sonuma.read_ns",
            ns: sonuma_ops(cfg, shape, &shape.reads),
            count: read_transfers,
        },
        LayerCost {
            name: "sonuma.write_ns",
            ns: sonuma_ops(
                cfg,
                shape,
                &[(
                    OpKind::Write,
                    shape.write_wire.unwrap_or(shape.slot_bytes as u32),
                )],
            ),
            count: r.writes as f64 / write_blocks,
        },
        LayerCost {
            name: "core.sabre_lifecycle_ns",
            ns: sabre_lifecycle(cfg, shape),
            count: r.sabres_registered as f64,
        },
        // Lower bound: every written and DMA'd block fans out to each
        // R2P2's engine; writers' local stores and LLC evictions invalidate
        // too, but have no counter.
        LayerCost {
            name: "core.invalidation_ns",
            ns: invalidation(cfg, shape),
            count: cfg.rmc_backends as f64 * (written + dma_blocks),
        },
        LayerCost {
            name: "sw.capture_ns",
            ns: capture(shape),
            count: r.captured_reads as f64,
        },
        LayerCost {
            name: "sw.percl_strip_ns",
            ns: percl_strip(shape),
            count: stats.percl_reads as f64,
        },
        // Lower bound: each packet is at least a send and an arrival event;
        // wake-ups and memory completions have no counter.
        LayerCost {
            name: "sim.queue_ns",
            ns: queue(lookahead),
            count: 2.0 * packets,
        },
        LayerCost {
            name: "sim.hist_record_ns",
            ns: hist_record(stats),
            count: stats.rack.ops as f64,
        },
        // Lower bound: blocks served and DMA-written, plus written blocks;
        // writers' local stores have no counter.
        LayerCost {
            name: "mem.llc_access_ns",
            ns: llc_access(cfg, shape),
            count: 2.0 * dma_blocks + written,
        },
    ]
}

/// Keeps, call by call, the cheaper of `best` and `round`, two results of
/// [`measure`] for the same workload; an empty `best` takes `round`.
pub fn keep_fastest(best: &mut Vec<LayerCost>, round: Vec<LayerCost>) {
    if best.is_empty() {
        *best = round;
        return;
    }
    for (b, r) in best.iter_mut().zip(round) {
        b.ns = b.ns.min(r.ns);
    }
}

fn blocks(wire: u32) -> u64 {
    (wire as u64).div_ceil(BLOCK_BYTES as u64)
}

/// Host ns per call of `batch(n)`, which makes `n` calls and returns a
/// value the compiler must keep. The batch size doubles until one batch
/// takes at least 5 ms (this also warms caches), then five batches are
/// timed and the fastest counts: host noise only ever adds time.
fn per_call(mut batch: impl FnMut(u64) -> u64) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        black_box(batch(n));
        if t.elapsed().as_secs_f64() >= 5e-3 || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(batch(n));
            t.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(src, dst, payload bytes)` of one read per reader→store pair: request
/// packets out, reply packets back, sized as the read path emits them.
fn fabric_script(cfg: &ClusterConfig, shape: &Shape) -> Vec<(usize, usize, u64)> {
    let mut path = ReadPath::new(&cfg.lightsabres, cfg.rmc_backends);
    let mut script = Vec::new();
    for (i, &(reader, store)) in shape.pairs.iter().enumerate() {
        let (op, wire) = shape.reads[i % shape.reads.len()];
        let (requests, replies) = path.packets(op, wire);
        script.extend(requests.into_iter().map(|b| (reader, store, b)));
        script.extend(replies.into_iter().map(|b| (store, reader, b)));
    }
    script
}

/// `Fabric::send` with contention live: sends advance simulated time at
/// the workload's packets per lookahead window, so uplink and spine
/// budgets overflow as often as they do in the run.
fn fabric_send(cfg: &ClusterConfig, script: &[(usize, usize, u64)], per_window: f64) -> f64 {
    let mut fabric = Fabric::new(cfg.fabric.clone());
    let step =
        Time::from_ps((cfg.fabric.min_latency().as_ps() as f64 / per_window.max(1e-3)) as u64);
    let mut now = Time::ZERO;
    let mut i = 0;
    per_call(|n| {
        let mut last = 0;
        for _ in 0..n {
            let (src, dst, bytes) = script[i % script.len()];
            i += 1;
            now += step;
            last = fabric.send(now, src, dst, bytes).as_ps();
        }
        last
    })
}

/// `ShardRouter::push` + `merge_sorted` over every node's outbox, per
/// message, at the workload's messages per window (at least one).
fn fabric_merge(cfg: &ClusterConfig, script: &[(usize, usize, u64)], per_window: f64) -> f64 {
    let mut router: ShardRouter<u64> = ShardRouter::new(cfg.nodes);
    let per_window = per_window.round().max(1.0) as u64;
    let lookahead = cfg.fabric.min_latency();
    let mut at = Time::ZERO;
    let mut i = 0;
    let window_ns = per_call(|n| {
        let mut merged = 0;
        for _ in 0..n {
            at += lookahead;
            for _ in 0..per_window {
                let (src, dst, bytes) = script[i % script.len()];
                i += 1;
                router.push(src, dst, at + Time::from_ps(bytes), bytes);
            }
            merged += ShardRouter::merge_sorted(router.outboxes_mut().iter_mut()).len();
        }
        merged as u64
    });
    window_ns / per_window as f64
}

/// One source pipeline and one destination node's R2P2s, wired back to
/// back: the whole sans-IO read/write path without the event loop.
struct ReadPath {
    src: SourcePipeline,
    dst: Vec<R2p2>,
    next_id: u64,
    sent: Vec<u64>,
}

impl ReadPath {
    fn new(engine: &sabre_core::LightSabresConfig, pipes: usize) -> Self {
        ReadPath {
            src: SourcePipeline::new(0, 0, pipes as u8),
            dst: (0..pipes)
                .map(|p| R2p2::new(1, p as u8, engine.clone()))
                .collect(),
            next_id: 0,
            sent: Vec::new(),
        }
    }

    /// Runs one transfer to completion; returns the request and reply
    /// packet payload sizes.
    fn transfer(
        &mut self,
        op: OpKind,
        wire: u32,
        remote: Addr,
        data: Option<&[u8]>,
    ) -> (usize, usize) {
        self.next_id += 1;
        let wq = WqEntry {
            wq_id: self.next_id,
            op,
            dst_node: 1,
            remote_addr: remote,
            local_buf: Addr::new(1 << 20),
            size_bytes: wire,
            version_offset: 0,
        };
        self.sent.clear();
        let requests = self.src.start_transfer(&wq, data);
        for pkt in &requests {
            self.sent.push(pkt.kind.payload_bytes());
            self.dst[pkt.dst_pipe as usize].on_packet(pkt);
        }
        let n_requests = requests.len();
        let mut done = false;
        let mut progress = true;
        while progress {
            progress = false;
            for pipe in 0..self.dst.len() {
                while let Some(action) = self.dst[pipe].next_issue() {
                    progress = true;
                    done |= self.act(pipe, action);
                }
            }
        }
        assert!(done, "{op:?} transfer of {wire} B never completed");
        (n_requests, self.sent.len() - n_requests)
    }

    /// Performs one R2P2 action against all-zero memory; returns whether
    /// the transfer completed.
    fn act(&mut self, pipe: usize, action: R2p2Action) -> bool {
        let follow = match action {
            R2p2Action::MemRead { token, .. } => {
                self.dst[pipe].on_mem_reply(token, Block::default())
            }
            R2p2Action::MemWrite { token, .. } => self.dst[pipe].on_mem_write_done(token),
            R2p2Action::Send(pkt) => return self.reply(&pkt),
            other => unreachable!("the OCC read/write path issues no {other:?}"),
        };
        let mut done = false;
        for a in follow {
            done |= self.act(pipe, a);
        }
        done
    }

    fn reply(&mut self, pkt: &Packet) -> bool {
        self.sent.push(pkt.kind.payload_bytes());
        self.src.on_reply(pkt).1.is_some()
    }

    fn packets(&mut self, op: OpKind, wire: u32) -> (Vec<u64>, Vec<u64>) {
        let data = vec![0u8; wire as usize];
        let (requests, _) = self.transfer(op, wire, Addr::new(0), Some(&data));
        let sizes = self.sent.clone();
        (sizes[..requests].to_vec(), sizes[requests..].to_vec())
    }
}

/// `SourcePipeline::start_transfer` → `R2p2::on_packet/next_issue/
/// on_mem_reply` → `SourcePipeline::on_reply`, cycling through `ops` and
/// the store's objects.
fn sonuma_ops(cfg: &ClusterConfig, shape: &Shape, ops: &[(OpKind, u32)]) -> f64 {
    let mut path = ReadPath::new(&cfg.lightsabres, cfg.rmc_backends);
    let data = vec![0u8; ops.iter().map(|&(_, w)| w as usize).max().unwrap_or(0)];
    let mut i = 0u64;
    per_call(|n| {
        let mut packets = 0;
        for _ in 0..n {
            let (op, wire) = ops[i as usize % ops.len()];
            let remote = Addr::new((i % shape.objects) * shape.slot_bytes);
            i += 1;
            let (requests, replies) = path.transfer(op, wire, remote, Some(&data));
            packets += (requests + replies) as u64;
        }
        packets
    })
}

/// The wire size SABRes read in this workload (the object slot otherwise).
fn sabre_wire(shape: &Shape) -> u32 {
    shape
        .reads
        .iter()
        .find(|(op, _)| *op == OpKind::Sabre)
        .map_or(shape.slot_bytes as u32, |&(_, w)| w)
}

/// One LightSABRes lifecycle: register, data requests, issue, replies,
/// completion.
fn sabre_lifecycle(cfg: &ClusterConfig, shape: &Shape) -> f64 {
    let mut engine = LightSabres::new(cfg.lightsabres.clone());
    let wire = sabre_wire(shape);
    let zero = [0u8; BLOCK_BYTES];
    let mut transfer = 0u32;
    per_call(|n| {
        let mut completions = 0;
        for _ in 0..n {
            transfer = transfer.wrapping_add(1);
            let id = SabreId {
                src_node: 0,
                src_pipe: 0,
                transfer,
            };
            let base = Addr::new((transfer as u64 % shape.objects) * shape.slot_bytes);
            let slot = engine
                .register(id, base, wire, 0)
                .expect("a free ATT entry");
            for _ in 0..blocks(wire) {
                engine
                    .on_data_request(id)
                    .expect("request within the SABRe");
            }
            while let Some(issue) = engine.next_issue() {
                let actions = match issue.kind {
                    IssueKind::Data => engine.on_block_reply(slot, issue.block_index, &zero),
                    IssueKind::Validate => engine.on_validate_reply(slot, &zero),
                    IssueKind::LockAcquire | IssueKind::LockRelease => Vec::new(),
                };
                completions += actions.len() as u64;
            }
        }
        completions
    })
}

/// One coherence-invalidation snoop across the ATT, with the workload's
/// SABRes in flight, over blocks of the store's working set.
fn invalidation(cfg: &ClusterConfig, shape: &Shape) -> f64 {
    let mut engine = LightSabres::new(cfg.lightsabres.clone());
    let wire = sabre_wire(shape);
    for t in 0..shape.armed_sabres {
        let id = SabreId {
            src_node: 0,
            src_pipe: 0,
            transfer: t as u32,
        };
        let base = Addr::new(t as u64 * shape.slot_bytes);
        engine
            .register(id, base, wire, 0)
            .expect("a free ATT entry");
    }
    let span = (shape.objects * shape.slot_bytes).div_ceil(BLOCK_BYTES as u64);
    let mut i = 0u64;
    per_call(|n| {
        for _ in 0..n {
            engine.on_invalidation(BlockAddr::from_index(i % span));
            i += 1;
        }
        engine.active_count() as u64
    })
}

/// One server-side `ObjectCapture` of the workload's captured read (an
/// Oh-RAM capture of one object when the workload issues none).
fn capture(shape: &Shape) -> f64 {
    let kinds: Vec<(CaptureKind, u32)> = shape
        .reads
        .iter()
        .filter_map(|&(op, wire)| match op {
            OpKind::OhRead => Some((CaptureKind::OhRam, wire)),
            OpKind::WfRead => Some((CaptureKind::WfRegister, wire)),
            _ => None,
        })
        .collect();
    let kinds = if kinds.is_empty() {
        vec![(CaptureKind::OhRam, shape.slot_bytes as u32)]
    } else {
        kinds
    };
    let mut i = 0u64;
    per_call(|n| {
        let mut delivered = 0;
        for _ in 0..n {
            let (kind, wire) = kinds[i as usize % kinds.len()];
            let base = Addr::new((i % shape.objects) * shape.slot_bytes);
            i += 1;
            let (mut cap, mut step) = ObjectCapture::new(kind, base, wire);
            let mut pending = Vec::new();
            loop {
                match step {
                    CaptureStep::Read(blocks) => pending.extend(blocks),
                    CaptureStep::Deliver(image) => {
                        delivered += image.len() as u64;
                        break;
                    }
                }
                let block = pending.pop().expect("a capture awaits a read");
                step = cap.on_block(block, [0u8; BLOCK_BYTES]);
            }
        }
        delivered
    })
}

/// FaRM's per-cache-line validate-and-strip of one object image.
fn percl_strip(shape: &Shape) -> f64 {
    let payload = vec![0xA5u8; shape.payload as usize];
    let image = PerClLayout::encode(VersionWord::new(4), &payload);
    per_call(|n| {
        let mut bytes = 0;
        for _ in 0..n {
            let clean = PerClLayout::validate_and_strip(black_box(&image), payload.len())
                .expect("a clean image");
            bytes += clean.len() as u64;
        }
        bytes
    })
}

/// Pending events the queue probe holds. No public accessor reports how
/// deep a node's queue runs in a workload, so every workload's probe uses
/// this one depth, half the heap-mode ceiling: the probe tracks the cost of
/// the queue code, not the mode each workload's queues actually run in.
const QUEUE_DEPTH: u64 = HEAP_OCCUPANCY_MAX as u64 / 2;

/// `CalendarQueue` schedule + pop at [`QUEUE_DEPTH`] with the workload's
/// lookahead as bucket width, each event rescheduling a short horizon
/// ahead.
fn queue(lookahead: Time) -> f64 {
    let mut q = CalendarQueue::new(lookahead);
    for i in 0..QUEUE_DEPTH {
        q.schedule(Time::from_ps(i * 7_919 % 97_000), i);
    }
    let mut i = 0u64;
    per_call(|n| {
        let mut sum = 0;
        for _ in 0..n {
            let (t, e) = q.pop().expect("the queue is never empty");
            sum += e;
            i += 1;
            q.schedule(t + Time::from_ps(1_000 + i * 7_919 % 97_000), i);
        }
        sum
    })
}

/// `LatencyHistogram::record` over latencies spread across the run's own
/// p50..p99 range.
fn hist_record(stats: &SimStats) -> f64 {
    let lo = stats.p50_ns().max(1);
    let hi = stats.p99_ns().max(lo + 1);
    let mut h = LatencyHistogram::new();
    let mut i = 0u64;
    per_call(|n| {
        for _ in 0..n {
            h.record(lo + i * 7_919 % (hi - lo));
            i += 1;
        }
        h.count()
    })
}

/// One LLC lookup over the store's working set.
fn llc_access(cfg: &ClusterConfig, shape: &Shape) -> f64 {
    let mut llc = Llc::with_geometry(cfg.llc_bytes, cfg.llc_ways);
    let span = (shape.objects * shape.slot_bytes).div_ceil(BLOCK_BYTES as u64);
    let mut i = 0u64;
    per_call(|n| {
        let mut hits = 0;
        for _ in 0..n {
            hits += llc.access(BlockAddr::from_index(i * 997 % span)).hit as u64;
            i += 1;
        }
        hits
    })
}
