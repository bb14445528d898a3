//! The benchmark's command line.
//!
//! ```text
//! sabres-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--json <path>]
//! sabres-benchmark compare <setA.json> <setB.json>
//! ```
//!
//! A run prints every metric as `name value unit`, then, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `attempted` and `failed` count the measured window's operation attempts
//! and the attempts that failed (retried, refused or timed out). Untraced
//! runs report the end-to-end metrics, traced runs the per-layer ones. A
//! run whose outputs fail a correctness check exits with code 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sabres_benchmark::json::escape;
use sabres_benchmark::trace::Tracer;
use sabres_benchmark::workloads::{Exec, Workload};
use sabres_benchmark::{compare, median, peak_rss_mb, probes, quantile, run_pass, Pass, SimStats};

/// Passes of each kind a run makes at least, whatever its time budget.
const MIN_PASSES: usize = 3;

/// Rounds of layer probes a traced run makes at most, one after each of its
/// first traced passes (so at least [`MIN_PASSES`]).
const PROBE_ROUNDS: usize = 5;

const USAGE: &str = "usage: sabres-benchmark --workload <rack_protocols|rack_write_mix|dc_spine|dc_quiet|replica_churn> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--json <path>]\n       sabres-benchmark compare <setA.json> <setB.json>";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        json,
    })
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    match parse(&args) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pins glibc's mmap threshold at its 128 KiB default, which also turns
/// off glibc's dynamic threshold. Left dynamic, the threshold rises once a
/// cluster's node memory is freed, and later clusters either map fresh
/// zero pages or `memset` recycled heap depending on heap history — set-up
/// time then flips between two modes about 3× apart from run to run.
/// Pinned, every pass maps its node memory fresh, as a new process's first
/// cluster does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's allocator-tuning call; it takes plain
    // integers, and runs here before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let bounds = manifest_dir().join("../BENCHMARK.json");
    match compare::compare(Path::new(a), Path::new(b), &bounds) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// Outcome of a run's passes: every correctness failure.
#[derive(Default)]
struct Verdict {
    passes: usize,
    failures: Vec<String>,
}

impl Verdict {
    /// Checks `pass` and that it reproduces the reference digest.
    fn judge(&mut self, label: &str, pass: &Pass, reference: u64) {
        self.passes += 1;
        let mut failures = pass.stats.check();
        if pass.stats.digest != reference {
            failures.push(format!(
                "simulated digest {:016x} differs from the first pass's {reference:016x}",
                pass.stats.digest
            ));
        }
        self.failures.extend(
            failures
                .into_iter()
                .map(|f| format!("{label} pass {}: {f}", self.passes)),
        );
    }
}

fn run(opts: &Opts) -> ExitCode {
    let w = opts.workload;
    let window = w.window();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut verdict = Verdict::default();

    let first = run_pass(w, opts.seed, Exec::SERIAL, window, None);
    // Later passes reuse a fragmented heap, so the high-water mark keeps
    // creeping up with their count; the first pass's is the workload's.
    let rss_mb = peak_rss_mb();
    let reference = first.stats.digest;
    let window_stats = first.stats.clone();
    verdict.judge("untraced", &first, reference);
    let mut untraced = vec![first];

    let metrics = if opts.trace {
        let mut tracer = Tracer::new();
        let mut traced = Vec::new();
        let mut costs = Vec::new();
        let mut probe_rounds = 0;
        // Alternate untraced and traced passes, so host noise hits both
        // sides of the tracing-overhead difference alike.
        while traced.len() < MIN_PASSES || untraced.len() < MIN_PASSES || start.elapsed() < budget {
            if traced.len() < untraced.len() {
                let pass = run_pass(w, opts.seed, Exec::SERIAL, window, Some(&mut tracer));
                verdict.judge("traced", &pass, reference);
                traced.push(pass);
                // Probe rounds spread across the run, so that one slow
                // stretch of the host cannot inflate every batch of a call.
                if probe_rounds < PROBE_ROUNDS {
                    let t = Instant::now();
                    let p = &untraced[0];
                    probes::keep_fastest(
                        &mut costs,
                        probes::measure(&p.shape, &p.config, &p.stats),
                    );
                    tracer.span("layer_probes", None, t, Instant::now());
                    probe_rounds += 1;
                }
            } else {
                let pass = run_pass(w, opts.seed, Exec::SERIAL, window, None);
                verdict.judge("untraced", &pass, reference);
                untraced.push(pass);
            }
        }
        // The threaded loop: two shards on two workers, the coordinator
        // waiting at the window barrier.
        let t = Instant::now();
        let threaded = run_pass(
            w,
            opts.seed,
            Exec {
                shards: Some(2),
                threads: Some(2),
            },
            window,
            None,
        );
        tracer.span("threads2_pass", None, t, Instant::now());
        verdict.judge("threads2", &threaded, reference);

        let metrics = per_layer(&untraced, &traced, &threaded, &costs);
        let path = manifest_dir()
            .join("out")
            .join(format!("{}.trace.json", w.name()));
        if let Err(e) = tracer.write_chrome(&path) {
            verdict
                .failures
                .push(format!("writing {}: {e}", path.display()));
        }
        metrics
    } else {
        while untraced.len() < MIN_PASSES || start.elapsed() < budget {
            let pass = run_pass(w, opts.seed, Exec::SERIAL, window, None);
            verdict.judge("untraced", &pass, reference);
            untraced.push(pass);
        }
        end_to_end(&untraced, rss_mb)
    };

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            verdict
                .failures
                .push(format!("metric {name} is not finite"));
        }
    }
    report(opts, w, &window_stats, &verdict, &metrics)
}

/// The median of `f` over `passes`.
fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// The window's cost in `ref`, median over `passes` (all serial).
fn run_ref(passes: &[&Pass]) -> f64 {
    median_of(passes, |p| {
        p.run_ref.expect("serial passes run the reference")
    })
}

fn end_to_end(passes: &[Pass], rss_mb: f64) -> Metrics {
    let stats = &passes[0].stats;
    let all: Vec<&Pass> = passes.iter().collect();
    let run_ref = run_ref(&all);
    let hist = &stats.rack.latency_hist;
    vec![
        ("run_ref".into(), run_ref, "ref"),
        ("setup_s".into(), median_of(&all, |p| p.setup.total()), "s"),
        (
            "sim_ops_per_ref".into(),
            stats.rack.ops as f64 / run_ref,
            "ops/ref",
        ),
        ("peak_rss_mb".into(), rss_mb, "MB"),
        ("sim_ops".into(), stats.rack.ops as f64, "count"),
        (
            "read_mean_ns".into(),
            hist.sum_ns() as f64 / hist.count().max(1) as f64,
            "sim_ns",
        ),
    ]
}

fn per_layer(
    untraced: &[Pass],
    traced: &[Pass],
    threaded: &Pass,
    costs: &[probes::LayerCost],
) -> Metrics {
    let s = &untraced[0].stats;
    let m = &s.rack;
    let r = &s.r2p2;
    let e = &s.engine;
    let f = &s.fabric;
    let mut out: Metrics = Vec::new();
    let mut count = |name: &str, v: u64| out.push((name.into(), v as f64, "count"));
    count("rack.retries", m.retries);
    count("rack.queued_arrivals", m.queued_arrivals);
    count("rack.peak_backlog", m.peak_backlog);
    count("rack.failovers", m.failovers);
    count("rack.migrations", m.migrations);
    count("rack.stale_refusals", m.stale_refusals);
    count("sonuma.plain_reads", r.plain_reads);
    count("sonuma.writes", r.writes);
    count("sonuma.sabres_registered", r.sabres_registered);
    count("sonuma.sabres_parked", r.sabres_parked);
    count("sonuma.captured_reads", r.captured_reads);
    count("sonuma.capture_restarts", r.capture_restarts);
    count("sonuma.reads_refused", r.reads_refused);
    count("sonuma.catch_up_pulls", r.catch_up_pulls);
    count("sonuma.catch_up_refused", r.catch_up_refused);
    count("core.completed_ok", e.completed_ok);
    count("core.completed_failed", e.completed_failed);
    count(
        "core.aborts",
        e.aborts_window_conflict
            + e.aborts_version_locked
            + e.aborts_validate_mismatch
            + e.aborts_lock_failed,
    );
    count("core.revalidations", e.revalidations);
    count("core.depth_stalls", e.depth_stalls);
    count("core.page_stalls", e.page_stalls);
    count("fabric.packets", f.hops.packets);
    count("fabric.uplink_queued", f.hops.uplink_queued);
    count("fabric.spine_crossings", f.hops.spine_crossings);
    count("fabric.spine_queued", f.hops.spine_queued);
    count("fabric.packets_dropped", f.dropped);
    count("farm.catch_up_ops", m.catch_up_ops);
    count("farm.replays_applied", m.replays_applied);
    let sabres = e.completed_ok + e.completed_failed;
    out.extend([
        ("rack.failed_share".into(), s.failed_share(), "ratio"),
        ("rack.read_p50_ns".into(), s.p50_ns() as f64, "sim_ns"),
        ("rack.read_p99_ns".into(), s.p99_ns() as f64, "sim_ns"),
        ("rack.goodput_gbps".into(), s.goodput_gbps(), "GB/s"),
        (
            // A rack without SABRes wastes no engine work.
            "core.commit_ratio".into(),
            if sabres == 0 {
                1.0
            } else {
                e.completed_ok as f64 / sabres as f64
            },
            "ratio",
        ),
        ("fabric.hops_per_packet".into(), f.hops.mean_hops(), "hops"),
        ("farm.catch_up_ns".into(), m.catch_up_ns as f64, "sim_ns"),
    ]);

    let untraced: Vec<&Pass> = untraced.iter().collect();
    let traced: Vec<&Pass> = traced.iter().collect();
    let run_s = median_of(&untraced, |p| p.run_s);
    out.push(("rack.run_s".into(), run_s, "s"));
    out.push((
        "rack.ref_step_ns".into(),
        median_of(&untraced, |p| {
            p.ref_step_ns.expect("serial passes run the reference")
        }),
        "ns",
    ));
    let mut attributed = 0.0;
    for c in costs {
        out.push((c.name.into(), c.ns, "ns"));
        out.push((c.est_name(), c.est_s(), "s"));
        attributed += c.est_s();
    }
    out.push(("rack.unattributed_s".into(), run_s - attributed, "s"));

    let all: Vec<&Pass> = untraced.iter().chain(&traced).copied().collect();
    let med = |f: fn(&Pass) -> f64| median_of(&all, f);
    let slices: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.slices_ms.iter().copied())
        .collect();
    out.extend([
        (
            "rack.cluster_new_s".into(),
            med(|p| p.setup.cluster_new),
            "s",
        ),
        ("farm.store_init_s".into(), med(|p| p.setup.store_init), "s"),
        (
            "rack.workload_install_s".into(),
            med(|p| p.setup.workload_install),
            "s",
        ),
        ("rack.warmup_s".into(), med(|p| p.setup.warmup), "s"),
        ("rack.collect_s".into(), med(|p| p.collect_s), "s"),
        ("rack.slice_ms_p50".into(), quantile(&slices, 0.5), "ms"),
        ("rack.slice_ms_p99".into(), quantile(&slices, 0.99), "ms"),
        (
            "rack.trace_overhead_ref".into(),
            run_ref(&traced) - run_ref(&untraced),
            "ref",
        ),
        ("rack.threads2_run_s".into(), threaded.run_s, "s"),
    ]);
    out
}

fn report(
    opts: &Opts,
    w: Workload,
    stats: &SimStats,
    verdict: &Verdict,
    metrics: &Metrics,
) -> ExitCode {
    let correct = verdict.failures.is_empty();
    for f in &verdict.failures {
        eprintln!("check failed: {f}");
    }
    let digest = stats.digest;
    let failed = stats.failed_attempts();
    let attempted = (stats.rack.ops + failed).max(1);
    println!(
        "workload {} seed {} window_us {} passes {}",
        w.name(),
        opts.seed,
        stats.window.as_us(),
        verdict.passes
    );
    println!("sim_digest {digest:016x}");
    println!(
        "attempted {attempted} failed {failed} failed_share {}",
        stats.failed_share()
    );
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                escape(name)
            )
        })
        .collect();
    let fields = format!(
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}",
        body.join(", ")
    );
    if let Some(path) = &opts.json {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{digest:016x}\", {fields}}}",
            w.name(),
            opts.seed,
            u8::from(opts.trace),
        );
        if let Err(e) = append_record(path, &record) {
            eprintln!("error: appending to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{{{fields}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Appends `record` to the JSON array in `path`, creating the file.
fn append_record(path: &Path, record: &str) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => {
            let body = t.trim_end().strip_suffix(']').ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "not a JSON array")
            })?;
            let body = body.trim_end();
            let sep = if body.ends_with('[') { "\n" } else { ",\n" };
            format!("{body}{sep}{record}\n]\n")
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{record}\n]\n"),
        Err(e) => return Err(e),
    };
    std::fs::write(path, text)
}
