//! Criterion microbenchmarks of the hot kernels: the data structures the
//! simulated hardware is made of, and the software kernels whose *modeled*
//! costs the experiments charge. These measure the host's real performance
//! (simulator throughput), complementing the simulated-time experiments.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use sabre_core::{LightSabres, LightSabresConfig, SabreId, StreamBuffer};
use sabre_fabric::{Fabric, FabricConfig, RackTopology};
use sabre_mem::{Addr, BlockAddr, Llc, NodeMemory, BLOCK_BYTES};
use sabre_rack::{
    spec, Arrivals, Cluster, ClusterConfig, ReadMechanism, ScenarioBuilder, StoreLayout, UpdatePlan,
};
use sabre_sim::{CalendarQueue, EventQueue, LatencyHistogram, Time};
use sabre_sonuma::{Block, Packet, PacketKind, R2p2, R2p2Action};
use sabre_sw::layout::{CleanLayout, PerClLayout};
use sabre_sw::{crc64_ecma, crc64_ecma_scalar, VersionWord};

fn bench_stream_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_buffer");
    let mut sb = StreamBuffer::new(32);
    sb.arm(BlockAddr::from_index(1000), 32);
    for i in 0..16 {
        sb.mark_received(i);
    }
    g.bench_function("probe_hit", |b| {
        b.iter(|| sb.probe(black_box(BlockAddr::from_index(1010))))
    });
    g.bench_function("probe_miss", |b| {
        b.iter(|| sb.probe(black_box(BlockAddr::from_index(99))))
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("lightsabres_engine");
    // One full SABRe lifecycle: register, feed requests, issue, reply,
    // complete — the per-operation state-machine cost of the engine.
    g.bench_function("sabre_lifecycle_8_blocks", |b| {
        let mut engine = LightSabres::new(LightSabresConfig::default());
        let mut transfer = 0u32;
        let data = [0u8; BLOCK_BYTES];
        b.iter(|| {
            transfer += 1;
            let id = SabreId {
                src_node: 0,
                src_pipe: 0,
                transfer,
            };
            let slot = engine
                .register(id, Addr::new(0), 512, 0)
                .expect("free slot");
            for _ in 0..8 {
                engine.on_data_request(id).expect("in range");
            }
            while engine.next_issue().is_some() {}
            for i in 0..8 {
                black_box(engine.on_block_reply(slot, i, &data));
            }
        })
    });
    g.bench_function("invalidation_snoop_16_armed", |b| {
        let mut engine = LightSabres::new(LightSabresConfig::default());
        for t in 0..16u32 {
            let id = SabreId {
                src_node: 0,
                src_pipe: 0,
                transfer: t,
            };
            engine
                .register(id, Addr::new(t as u64 * 4096), 2048, 0)
                .unwrap();
        }
        b.iter(|| engine.on_invalidation(black_box(BlockAddr::from_index(17))))
    });
    // The common case under local writers: a store snoops an engine with
    // no SABRe in flight.
    g.bench_function("invalidation_snoop_idle", |b| {
        let mut engine = LightSabres::new(LightSabresConfig::default());
        b.iter(|| engine.on_invalidation(black_box(BlockAddr::from_index(17))))
    });
    // A pump's engine pull with no SABRe in flight: every R2P2 pump of
    // plain reads and writes asks the select-transfer stage first.
    g.bench_function("next_issue_idle_att", |b| {
        let mut engine = LightSabres::new(LightSabresConfig::default());
        b.iter(|| black_box(&mut engine).next_issue())
    });
    g.finish();
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    // One cross-rack packet on the 256-node datacenter (4 racks of a
    // radix-8, 2:1 fabric): route, uplink and spine windows, link
    // serialization. Sends 100 ns apart, so the spine bundle's budget of
    // two per 350 ns window overflows now and then.
    g.bench_function("send_cross_rack", |b| {
        let mut fabric = Fabric::new(FabricConfig {
            nodes: 256,
            topology: RackTopology::datacenter_for(4, 8, 2),
            ..FabricConfig::default()
        });
        assert!(fabric.config().topology.crosses_spine(0, 130));
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Time::from_ns(100);
            black_box(fabric.send(now, 0, black_box(130), 64))
        })
    });
    g.finish();
}

fn bench_writers(c: &mut Criterion) {
    let mut g = c.benchmark_group("writers");
    // The once-per-update cost of a writer's store plan: a 1 KB update
    // split into 17 clean stores, or re-encoded as 19 stamped per-CL lines.
    let mut plan = UpdatePlan::new();
    for (name, layout) in [
        ("writer_plan_rebuild_1k_clean", StoreLayout::Clean),
        ("writer_plan_rebuild_1k_percl", StoreLayout::PerCl),
    ] {
        let mut seq = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                seq += 1;
                plan.rebuild(layout, Addr::new(4096), 7, seq, 1024, 2 * seq);
                black_box(&plan);
            })
        });
    }
    g.finish();
}

fn bench_software_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("software_atomicity");
    let payload = vec![0xA5u8; 8192];
    let image = PerClLayout::encode(VersionWord::new(4), &payload);
    g.throughput(Throughput::Bytes(image.len() as u64));
    g.bench_function("percl_validate_strip_8k", |b| {
        b.iter(|| PerClLayout::validate_and_strip(black_box(&image), 8192).expect("clean"))
    });
    // Both CRC64 kernels over the same 8 KB buffer: the slice-by-8 hot
    // path against the byte-at-a-time reference it must outrun (the
    // committed BENCH_baseline.json pins both).
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("crc64_slice8_8k", |b| {
        b.iter(|| crc64_ecma(black_box(&payload)))
    });
    g.bench_function("crc64_scalar_8k", |b| {
        b.iter(|| crc64_ecma_scalar(black_box(&payload)))
    });
    g.throughput(Throughput::Bytes(256));
    g.bench_function("crc64_slice8_256", |b| {
        b.iter(|| crc64_ecma(black_box(&payload[..256])))
    });
    g.bench_function("crc64_scalar_256", |b| {
        b.iter(|| crc64_ecma_scalar(black_box(&payload[..256])))
    });
    g.finish();
}

/// Size of the rack event loop's per-node queue entry payload.
const EVENT_BYTES: usize = 104;

/// Pending events a busy node queue holds in the depth-32 churn rows.
const QUEUE_DEPTH: u64 = 32;

fn bench_sim_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_primitives");
    g.bench_function("event_queue_schedule_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..1000u64 {
                    q.schedule(Time::from_ns(i * 7 % 501), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // The calendar variant over the same schedule — the structure the
    // windowed loop actually runs on (35 ns buckets = fabric lookahead).
    // 1000 pending events push it well past the adaptive queue's heap
    // threshold, so this measures bucketed mode (plus one migration).
    g.bench_function("calendar_queue_schedule_pop_1k", |b| {
        b.iter_batched(
            || CalendarQueue::<u64>::new(Time::from_ns(35)),
            |mut q| {
                for i in 0..1000u64 {
                    q.schedule(Time::from_ns(i * 7 % 501), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // The windowed interleave both queues see in the sharded loop: pop an
    // event, schedule a short-horizon follow-up — the steady state of a
    // busy node queue.
    g.bench_function("event_queue_windowed_churn_4k", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                q.schedule(Time::ZERO, 0u64);
                q
            },
            |mut q| {
                for i in 1..4096u64 {
                    let (t, e) = q.pop().expect("seeded");
                    black_box(e);
                    q.schedule(t + Time::from_ns(i * 13 % 97), i);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // One in-flight event at a time: the mostly-idle pattern the adaptive
    // queue's plain-heap mode exists for (it never reaches the bucket
    // threshold, so this row tracks the event_queue variant's cost).
    g.bench_function("calendar_queue_windowed_churn_4k", |b| {
        b.iter_batched(
            || {
                let mut q = CalendarQueue::new(Time::from_ns(35));
                q.schedule(Time::ZERO, 0u64);
                q
            },
            |mut q| {
                for i in 1..4096u64 {
                    let (t, e) = q.pop().expect("seeded");
                    black_box(e);
                    q.schedule(t + Time::from_ns(i * 13 % 97), i);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // The same churn at the rack's real entry size and depth: the
    // cluster's node-queue event is 104 B, and a busy node keeps a few
    // dozen events pending. The u64 rows above hide the per-entry move
    // cost that decides heap vs. calendar end to end.
    g.bench_function("event_queue_churn_depth32_event", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                for i in 0..QUEUE_DEPTH {
                    q.schedule(Time::from_ns(i * 7), [i as u8; EVENT_BYTES]);
                }
                q
            },
            |mut q| {
                for i in 0..4096u64 {
                    let (t, e) = q.pop().expect("seeded");
                    black_box(&e);
                    q.schedule(t + Time::from_ns(i * 13 % 97), [i as u8; EVENT_BYTES]);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("calendar_queue_churn_depth32_event", |b| {
        b.iter_batched(
            || {
                let mut q = CalendarQueue::new(Time::from_ns(35));
                for i in 0..QUEUE_DEPTH {
                    q.schedule(Time::from_ns(i * 7), [i as u8; EVENT_BYTES]);
                }
                q
            },
            |mut q| {
                for i in 0..4096u64 {
                    let (t, e) = q.pop().expect("seeded");
                    black_box(&e);
                    q.schedule(t + Time::from_ns(i * 13 % 97), [i as u8; EVENT_BYTES]);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // The latency-histogram hot path: one record per successful op in
    // every workload, and one full 592-bucket merge per core at
    // aggregation time (the fig_tail percentile plumbing).
    g.bench_function("latency_hist_record_4k", |b| {
        b.iter_batched(
            LatencyHistogram::new,
            |mut h| {
                for i in 0..4096u64 {
                    h.record(100 + i * 37 % 100_000);
                }
                black_box(h.p99())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("latency_hist_merge", |b| {
        let mut a = LatencyHistogram::new();
        let mut other = LatencyHistogram::new();
        for i in 0..4096u64 {
            a.record(100 + i * 37 % 100_000);
            other.record(50 + i * 91 % 1_000_000);
        }
        b.iter(|| {
            a.merge(black_box(&other));
            black_box(a.count())
        })
    });
    g.bench_function("node_memory_block_rw", |b| {
        let mut mem = NodeMemory::new(1 << 20);
        let blk = [7u8; BLOCK_BYTES];
        b.iter(|| {
            mem.write_block(BlockAddr::from_index(17), &blk);
            black_box(mem.read_block(BlockAddr::from_index(17)))
        })
    });
    // Steady-state fills: the 100,000-block cycle puts about 49 tags
    // through each 16-way set, so every access misses and evicts. One
    // untimed pass first touches every page of the zeroed tag array, so
    // the timed loop does not pay for the host's first touches.
    g.bench_function("llc_access", |b| {
        let mut llc = Llc::with_geometry(2 * 1024 * 1024, 16);
        let mut i = 0u64;
        let mut step = || {
            i = (i + 997) % 100_000;
            llc.access(BlockAddr::from_index(i))
        };
        for _ in 0..100_000 {
            step();
        }
        b.iter(|| black_box(step()))
    });
    // The LLC hit path a store node's writers and DMA fills take: 2,048
    // resident blocks (a quarter of the Table 2 LLC), eight to a set over
    // 256 sets. The stride visits each set's eight blocks in one fixed
    // cycle, so every access hits the set's least recently used tag.
    g.bench_function("llc_access_resident", |b| {
        let mut llc = Llc::with_geometry(2 * 1024 * 1024, 16);
        let block = |i: u64| BlockAddr::from_index(i % 2048 * 8);
        for i in 0..2048 {
            llc.access(block(i));
        }
        assert!((0..2048).all(|i| llc.access(block(i)).hit));
        let mut i = 0u64;
        b.iter(|| {
            i += 997;
            black_box(llc.access(block(i)))
        })
    });
    g.finish();
}

/// A cluster with two busy readers and every other node permanently idle,
/// warmed past cold start — the regime the O(active-nodes) window
/// scheduler exists for.
fn quiet_cluster(cfg: ClusterConfig, targets: [(usize, usize); 2]) -> Cluster {
    let mut cluster = Cluster::new(cfg);
    for (reader, target) in targets {
        cluster.node_memory_mut(target).write_u64(Addr::new(0), 0);
        cluster.add_workload(
            reader,
            0,
            spec()
                .store(target)
                .payload(256)
                .mechanism(ReadMechanism::Sabre)
                .build(&[Addr::new(0)]),
        );
    }
    cluster.run_for(Time::from_us(5));
    cluster
}

/// The 8-node rack with two Poisson reader cores per reader node, each
/// mixing plain 1 KB reads and one-sided writes half and half against its
/// paired store node, warmed past cold start — every block of every
/// transfer runs through the node queues' same-instant lane and sorted
/// deque, the reused packet buffers and the window barrier's delivery.
fn busy_write_mix_rack() -> Cluster {
    let cfg = ScenarioBuilder::new().nodes(8).config().clone();
    let readers = cfg.topology.reader_nodes();
    let stores = cfg.topology.store_nodes();
    let slot = CleanLayout::object_bytes(1024) as u32;
    let objects: Vec<Addr> = (0..128).map(|i| Addr::new(i * slot as u64)).collect();
    let mut cluster = Cluster::new(cfg);
    for (&reader, &store) in readers.iter().zip(&stores) {
        for core in 0..2 {
            let program = spec()
                .store(store)
                .payload(1024)
                .wire(slot)
                .objects(objects.clone())
                .arrivals(Arrivals::Poisson { ops_per_us: 0.8 })
                .mix(0.5)
                .build(&objects);
            cluster.add_workload(reader, core, program);
        }
    }
    cluster.run_for(Time::from_us(20));
    cluster
}

fn bench_window_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_scheduler");
    // 30 of 32 mesh nodes never have an event: each fabric-lookahead
    // window must cost O(active) hint pops, not an O(nodes) queue scan.
    // One iteration advances 2 us of steady-state simulated time.
    let mut rack = {
        let mut cfg = ClusterConfig::with_nodes(32);
        cfg.memory_bytes = 1 << 20;
        quiet_cluster(cfg, [(0, 21), (13, 29)])
    };
    g.bench_function("quiet_rack_32n_advance_2us", |b| {
        b.iter(|| black_box(&mut rack).run_for(Time::from_us(2)))
    });
    // The datacenter-scale version: 254 of 256 nodes idle across 4 racks
    // of a radix-8 spine fabric, one reader rack-local and one crossing
    // the spine every packet.
    let mut dc = {
        let mut cfg = ScenarioBuilder::new()
            .nodes(256)
            .datacenter(4, 8, 2)
            .config()
            .clone();
        cfg.memory_bytes = 1 << 20;
        quiet_cluster(cfg, [(0, 130), (65, 70)])
    };
    g.bench_function("quiet_datacenter_256n_advance_2us", |b| {
        b.iter(|| black_box(&mut dc).run_for(Time::from_us(2)))
    });
    // The opposite regime: every reader node busy, ~1.5k events per 2 us
    // on the per-block read/write path.
    let mut busy = busy_write_mix_rack();
    g.bench_function("busy_rack_8n_write_mix_2us", |b| {
        b.iter(|| black_box(&mut busy).run_for(Time::from_us(2)))
    });
    g.finish();
}

/// Blocks in one 1 KB object.
const BLOCKS_1K: u32 = 1024 / BLOCK_BYTES as u32;

/// A request packet from node 0 to the R2P2 of node 1, pipeline 0.
fn to_r2p2(kind: PacketKind) -> Packet {
    Packet {
        src_node: 0,
        src_pipe: 0,
        dst_node: 1,
        dst_pipe: 0,
        kind,
    }
}

/// Drains `r2p2` the way the cluster paces it, minus the timing: pull
/// every issue, complete each memory read at once with `data`, and count
/// the reply packets sent.
fn serve(r2p2: &mut R2p2, data: Block) -> usize {
    let mut sent = 0;
    while let Some(action) = r2p2.next_issue() {
        match action {
            R2p2Action::MemRead { token, .. } => sent += r2p2.on_mem_reply(token, data).len(),
            R2p2Action::Send(_) => sent += 1,
            other => unreachable!("reads issue no {other:?}"),
        }
    }
    sent
}

/// Feeds one read's request packets, tagged `transfer`, to an R2P2.
type Request = fn(&mut R2p2, u32);

/// One plain 1 KB read request burst: a `ReadReq` per block.
fn plain_read_1k(r2p2: &mut R2p2, transfer: u32) {
    for block_index in 0..BLOCKS_1K {
        r2p2.on_packet(&to_r2p2(PacketKind::ReadReq {
            addr: Addr::new(block_index as u64 * BLOCK_BYTES as u64),
            transfer,
            block_index,
        }));
    }
}

/// One 1 KB SABRe: the registration, then a data request per block.
fn sabre_1k(r2p2: &mut R2p2, transfer: u32) {
    r2p2.on_packet(&to_r2p2(PacketKind::SabreReg {
        transfer,
        base: Addr::new(0),
        size_bytes: 1024,
        version_offset: 0,
    }));
    for block_index in 0..BLOCKS_1K {
        r2p2.on_packet(&to_r2p2(PacketKind::SabreReadReq {
            transfer,
            block_index,
        }));
    }
}

fn bench_r2p2_service(c: &mut Criterion) {
    let mut g = c.benchmark_group("r2p2_service");
    // The destination R2P2's sans-IO service of one 1 KB read: request
    // packets in, `next_issue` out, every memory read completed at once,
    // until the last reply is sent — the per-read host cost of the layer
    // between the fabric and the node's memory.
    let data = Block([0; BLOCK_BYTES]);
    let cases: [(&str, Request, usize); 2] = [
        ("plain_read_1k", plain_read_1k, BLOCKS_1K as usize),
        // Every data block plus the validation.
        ("sabre_1k", sabre_1k, BLOCKS_1K as usize + 1),
    ];
    for (name, request, replies) in cases {
        let mut r2p2 = R2p2::new(1, 0, LightSabresConfig::default());
        request(&mut r2p2, 0);
        assert_eq!(serve(&mut r2p2, data), replies, "{name}");
        let mut transfer = 0u32;
        g.bench_function(name, |b| {
            b.iter(|| {
                transfer += 1;
                request(&mut r2p2, transfer);
                black_box(serve(&mut r2p2, data))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_buffer,
    bench_engine,
    bench_fabric,
    bench_writers,
    bench_software_kernels,
    bench_sim_primitives,
    bench_window_scheduler,
    bench_r2p2_service
);
criterion_main!(benches);
