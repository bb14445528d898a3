//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§7), plus the ablations its design sections motivate.
//!
//! Each experiment lives in [`experiments`] as a `data()` function returning
//! structured results (consumed by the integration tests, which assert the
//! paper's *shape*: who wins, by roughly what factor, where crossovers
//! fall) and a `run()` function rendering the printable table. Experiments
//! are built with [`sabre_rack::ScenarioBuilder`] and executed with
//! [`sabre_rack::Sweep`], so independent sweep points run in parallel
//! across OS threads. One binary per experiment regenerates it:
//!
//! ```text
//! cargo run --release -p sabre-bench --bin fig7a [-- --quick] [-- --threads N]
//! cargo run --release -p sabre-bench --bin all_figures
//! ```
//!
//! `--quick` shrinks iteration counts and simulated durations (used by the
//! smoke tests); full runs are the EXPERIMENTS.md numbers. `--threads N`
//! (or the `SABRES_THREADS` environment variable) caps sweep parallelism;
//! the default is the machine's available parallelism. Results are
//! deterministic regardless of the thread count.

pub mod experiments;
pub mod table;

pub use table::Table;

use sabre_rack::Sweep;

/// A figure runner: options in, printable tables out.
pub type FigureFn = fn(RunOpts) -> Vec<Table>;

/// Every shipped figure/table, in presentation order: `(name, runner)`.
/// The `all_figures` binary, the golden-output regression test and the CI
/// smoke job all iterate this one list, so a new experiment registered
/// here is automatically printed, golden-diffed and smoke-tested.
pub const ALL_FIGURES: &[(&str, FigureFn)] = &[
    ("table2", |o| vec![experiments::table2::run(o)]),
    ("table1", |o| vec![experiments::table1::run(o)]),
    ("fig1", |o| vec![experiments::fig1::run(o)]),
    ("fig2_race", |o| vec![experiments::fig2_race::run(o)]),
    ("fig7a", |o| vec![experiments::fig7a::run(o)]),
    ("fig7b", |o| vec![experiments::fig7b::run(o)]),
    ("fig8", |o| vec![experiments::fig8::run(o)]),
    ("fig9a", |o| vec![experiments::fig9a::run(o)]),
    ("fig9b", |o| vec![experiments::fig9b::run(o)]),
    ("fig10", |o| vec![experiments::fig10::run(o)]),
    ("ablations", experiments::ablations::run),
    ("fig_scale", |o| vec![experiments::fig_scale::run(o)]),
    ("fig_placement", |o| {
        vec![experiments::fig_placement::run(o)]
    }),
    ("fig_tail", |o| {
        vec![
            experiments::fig_tail::run(o),
            experiments::fig_tail::run_mix(o),
        ]
    }),
    ("fig_failover", |o| vec![experiments::fig_failover::run(o)]),
    ("fig_protocols", |o| {
        vec![experiments::fig_protocols::run(o)]
    }),
    ("fig_recovery", |o| vec![experiments::fig_recovery::run(o)]),
    // Registered last on purpose: the golden stdout is regenerated by
    // appending this figure's tables after every prior row, byte-identical.
    ("fig_datacenter", |o| {
        vec![experiments::fig_datacenter::run(o)]
    }),
];

/// Renders every table and figure into one string (the golden-diffable
/// stdout of `all_figures`), reporting each figure's host wall-clock to
/// `timing` so callers can route timing noise away from the diffed output.
pub fn render_all_figures(
    opts: RunOpts,
    mut timing: impl FnMut(&str, std::time::Duration),
) -> String {
    let mut out = String::new();
    for (name, run) in ALL_FIGURES {
        let t0 = std::time::Instant::now();
        let tables = run(opts);
        timing(name, t0.elapsed());
        for t in tables {
            out.push_str(&t.to_string());
        }
    }
    out
}

/// Global run options for experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Shrink iteration counts / durations for smoke testing.
    pub quick: bool,
    /// Cap on sweep worker threads (`None`: `SABRES_THREADS`, then the
    /// machine's available parallelism).
    pub threads: Option<usize>,
}

impl RunOpts {
    /// Parses `--quick` and `--threads N` from the process arguments (any
    /// position).
    ///
    /// # Panics
    ///
    /// Panics if `--threads` is present without a valid integer value — an
    /// explicit parallelism cap must never be silently dropped.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let threads = args.iter().position(|a| a == "--threads").map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    panic!(
                        "--threads needs an integer value, got {:?}",
                        args.get(i + 1)
                    )
                })
        });
        RunOpts {
            quick: args.iter().any(|a| a == "--quick"),
            threads,
        }
    }

    /// Full-fidelity options.
    pub fn full() -> Self {
        RunOpts {
            quick: false,
            threads: None,
        }
    }

    /// Quick (smoke-test) options.
    pub fn quick() -> Self {
        RunOpts {
            quick: true,
            threads: None,
        }
    }

    /// Picks between a full and a quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A [`Sweep`] over `points` honoring this run's thread cap.
    pub fn sweep<P: Send + Sync>(&self, points: impl IntoIterator<Item = P>) -> Sweep<P> {
        let sweep = Sweep::over(points);
        match self.threads {
            Some(n) => sweep.threads(n),
            None => sweep,
        }
    }
}
