//! Golden-output regression of the whole figure harness.
//!
//! `tests/golden/figures.txt` is the committed stdout of
//! `all_figures --quick`. This test regenerates every figure in-process
//! through the same [`sabre_bench::render_all_figures`] entry point the
//! binary uses and diffs the result line by line, so *any* change to any
//! experiment's numbers — an event-ordering drift in the cluster, a
//! calibration tweak, a formatting change — surfaces as a figure diff
//! rather than slipping through shape assertions. The harness renders
//! once serially and once with two sweep workers, and both renders must
//! equal the golden bytes, so the output is also pinned across sweep
//! thread counts end to end; it is deterministic across optimization
//! levels and the cluster's execution settings
//! (`tests/execution_invariance.rs`) too. When an intentional change
//! shifts numbers, regenerate with:
//!
//! ```text
//! cargo run --release --bin all_figures -- --quick > tests/golden/figures.txt
//! ```

use sabre_bench::{render_all_figures, RunOpts};

/// Renders every quick figure with `threads` sweep workers and diffs the
/// output against `tests/golden/figures.txt`.
fn assert_quick_render_matches_golden(threads: usize) {
    let golden = include_str!("golden/figures.txt");
    let live = render_all_figures(
        RunOpts {
            quick: true,
            threads: Some(threads),
        },
        |_, _| {},
    );
    if live != golden {
        // Render a readable first-divergence report instead of dumping
        // two 150-line blobs.
        for (i, (g, l)) in golden.lines().zip(live.lines()).enumerate() {
            assert_eq!(
                g,
                l,
                "first figure divergence at golden line {} with {threads} sweep \
                 worker(s) — if intentional, regenerate tests/golden/figures.txt \
                 (see test docs)",
                i + 1
            );
        }
        panic!(
            "figure output length changed with {threads} sweep worker(s): golden {} \
             lines, live {} lines — if intentional, regenerate tests/golden/figures.txt",
            golden.lines().count(),
            live.lines().count()
        );
    }
}

#[test]
fn all_figures_quick_matches_golden_output() {
    assert_quick_render_matches_golden(2);
}

#[test]
fn all_figures_quick_fingerprint_is_thread_invariant() {
    // The whole harness rendered serially must produce the same golden
    // bytes as the two-worker render above: the end-to-end
    // serial-vs-parallel fingerprint.
    assert_quick_render_matches_golden(1);
}
