//! Every workload at 1/100 of its measured window: the correctness checks
//! pass, the simulated digest is a pure function of the seed, and no
//! execution knob — shard count, worker threads, the interleaved reference
//! kernel, tracing — moves it. Run with `--release`; the debug build
//! simulates far slower.

use sabre_sim::Time;
use sabres_benchmark::trace::Tracer;
use sabres_benchmark::workloads::{Exec, Workload};
use sabres_benchmark::{run_pass, Pass, SLICES};

fn pass(w: Workload, seed: u64, exec: Exec) -> Pass {
    run_pass(w, seed, exec, Time::from_ps(w.window().as_ps() / 100), None)
}

fn check(w: Workload) {
    let base = pass(w, 1, Exec::SERIAL);
    assert_eq!(base.stats.check(), Vec::<String>::new(), "{}", w.name());
    assert!(base.stats.rack.ops > 0, "{}: no reads completed", w.name());

    let digest = base.stats.digest;
    assert_eq!(
        pass(w, 1, Exec::SERIAL).stats.digest,
        digest,
        "{}: same seed",
        w.name()
    );
    assert_ne!(
        pass(w, 2, Exec::SERIAL).stats.digest,
        digest,
        "{}: other seed",
        w.name()
    );

    let one_shard = Exec {
        shards: Some(1),
        threads: None,
    };
    assert_eq!(
        pass(w, 1, one_shard).stats.digest,
        digest,
        "{}: shards=1",
        w.name()
    );
    // The threaded pass runs without the reference kernel, so this also
    // shows that interleaving it leaves the simulation unchanged.
    let threaded = Exec {
        shards: Some(2),
        threads: Some(2),
    };
    let unobserved = pass(w, 1, threaded);
    assert_eq!(unobserved.stats.digest, digest, "{}: threads=2", w.name());
    assert_eq!(unobserved.run_ref, None, "{}: threaded pass", w.name());

    // 1/100 of the window is two and a half of its slices.
    assert_eq!(
        base.slices_ms.len() as u64,
        SLICES.div_ceil(100),
        "{}",
        w.name()
    );
    let run_ref = base.run_ref.expect("a serial pass runs the reference");
    assert!(run_ref > 0.0 && run_ref.is_finite(), "{}", w.name());
    let step_ns = base.ref_step_ns.expect("a serial pass runs the reference");
    assert!(step_ns > 0.0 && step_ns.is_finite(), "{}", w.name());

    let mut tracer = Tracer::new();
    let traced = run_pass(
        w,
        1,
        Exec::SERIAL,
        Time::from_ps(w.window().as_ps() / 100),
        Some(&mut tracer),
    );
    assert_eq!(traced.stats.digest, digest, "{}: traced pass", w.name());
    assert!(
        !tracer.is_empty(),
        "{}: the traced pass recorded spans",
        w.name()
    );
}

#[test]
fn rack_protocols() {
    check(Workload::RackProtocols);
}

#[test]
fn rack_write_mix() {
    check(Workload::RackWriteMix);
}

#[test]
fn dc_spine() {
    check(Workload::DcSpine);
}

#[test]
fn dc_quiet() {
    check(Workload::DcQuiet);
}

#[test]
fn replica_churn() {
    check(Workload::ReplicaChurn);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
