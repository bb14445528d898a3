//! Criterion microbenchmarks of the hot kernels: the data structures the
//! simulated hardware is made of, and the software kernels whose *modeled*
//! costs the experiments charge. These measure the host's real performance
//! (simulator throughput), complementing the simulated-time experiments.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use sabre_core::{LightSabres, LightSabresConfig, SabreId, StreamBuffer};
use sabre_mem::{Addr, BlockAddr, Llc, NodeMemory, BLOCK_BYTES};
use sabre_rack::workloads::{UpdatePlan, WriterLayout};
use sabre_rack::{spec, Cluster, ClusterConfig, ReadMechanism, ScenarioBuilder};
use sabre_sim::{CalendarQueue, EventQueue, LatencyHistogram, Time};
use sabre_sw::layout::PerClLayout;
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
    g.finish();
}

fn bench_writers(c: &mut Criterion) {
    let mut g = c.benchmark_group("writers");
    // The once-per-update cost of a writer's store plan: a 1 KB update
    // split into 17 clean stores, or re-encoded as 19 stamped per-CL lines.
    let mut plan = UpdatePlan::new();
    for (name, layout) in [
        ("writer_plan_rebuild_1k_clean", WriterLayout::Clean),
        ("writer_plan_rebuild_1k_percl", WriterLayout::PerCl),
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
    g.bench_function("llc_access", |b| {
        let mut llc = Llc::with_geometry(2 * 1024 * 1024, 16);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 997) % 100_000;
            black_box(llc.access(BlockAddr::from_index(i)))
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
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_buffer,
    bench_engine,
    bench_writers,
    bench_software_kernels,
    bench_sim_primitives,
    bench_window_scheduler
);
criterion_main!(benches);
