//! Regression net for the pass-manager refactor: the cached-analysis
//! pipeline must be *observationally identical* to the pre-refactor
//! driver, and every kernel variant must stay valid SSA between passes.

use darm_bench::reference::meld_function_reference;
use darm_bench::{fig8_cases, fig9_cases, prepare_variants_checked};
use darm_kernels::BenchCase;
use darm_melding::{meld_function, MeldConfig};
use darm_pipeline::PipelineOptions;

fn all_cases() -> Vec<BenchCase> {
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    cases
}

/// The cached-analysis pipeline produces bit-identical IR (print
/// round-trip) and identical statistics to the pre-refactor driver, on
/// every fig. 8 and fig. 9 kernel, under both DARM and branch fusion.
#[test]
fn pipeline_bit_identical_to_reference() {
    for case in all_cases() {
        for config in [MeldConfig::default(), MeldConfig::branch_fusion()] {
            let mut via_pipeline = case.func.clone();
            let pipeline_stats = meld_function(&mut via_pipeline, &config);
            let mut via_reference = case.func.clone();
            let reference_stats = meld_function_reference(&mut via_reference, &config);
            assert_eq!(
                via_pipeline.to_string(),
                via_reference.to_string(),
                "{} ({:?}): pipeline and reference IR diverge",
                case.name,
                config.mode
            );
            assert_eq!(
                format!("{pipeline_stats:?}"),
                format!("{reference_stats:?}"),
                "{} ({:?}): meld statistics diverge",
                case.name,
                config.mode
            );
        }
    }
}

/// With `verify_each`, every kernel × {baseline cleanup, DARM, BF} passes
/// SSA verification between passes (the acceptance gate of the refactor).
#[test]
fn verify_each_holds_on_every_variant() {
    let options = PipelineOptions {
        verify_each: true,
        ..PipelineOptions::default()
    };
    let registry = darm_melding::registry(&MeldConfig::default());
    for case in all_cases() {
        // DARM + BF variants through the shared driver.
        prepare_variants_checked(&case, &MeldConfig::default(), options.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        // Baseline through the generic cleanup pipeline.
        let mut pm = registry
            .build("simplify,instcombine,dce,verify", options.clone())
            .expect("cleanup spec parses");
        let mut baseline = case.func.clone();
        pm.run(&mut baseline)
            .unwrap_or_else(|e| panic!("{}: baseline cleanup: {e}", case.name));
    }
}

/// The analysis cache shares snapshots the pre-refactor driver recomputed:
/// post-dominators and divergence are computed exactly once per fixpoint
/// iteration (never inside cleanups), and the dominator tree computed for
/// the scan is the one SSA repair reuses (at most one extra per meld for
/// the post-surgery state). Wall-clock impact is measured by the
/// `meld_pipeline` bench; this pins the sharing structurally.
#[test]
fn cache_shares_analyses_across_the_fixpoint() {
    for case in fig9_cases() {
        let mut func = case.func.clone();
        let outcome = darm_melding::run_meld_pipeline(
            &mut func,
            &MeldConfig::default(),
            PipelineOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let stats = outcome.stats;
        let count = |name: &str| {
            outcome
                .report
                .analysis_computations
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert!(
            count("postdomtree") <= stats.iterations,
            "{}: postdomtree computed {} times for {} iterations",
            case.name,
            count("postdomtree"),
            stats.iterations
        );
        assert!(
            count("divergence") <= stats.iterations,
            "{}: divergence computed {} times for {} iterations",
            case.name,
            count("divergence"),
            stats.iterations
        );
        assert!(
            count("domtree") <= stats.iterations + 2 * stats.melded_regions,
            "{}: domtree computed {} times for {} iterations / {} melds",
            case.name,
            count("domtree"),
            stats.iterations,
            stats.melded_regions
        );

        // Melding an already-melded function is a clean single-scan no-op:
        // the pass must report unchanged (so a surrounding pipeline keeps
        // its warm cache) and accumulate no statistics.
        let outcome2 = darm_melding::run_meld_pipeline(
            &mut func,
            &MeldConfig::default(),
            PipelineOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: re-meld: {e}", case.name));
        assert_eq!(
            outcome2.stats.melded_subgraphs, 0,
            "{}: re-meld melded",
            case.name
        );
        assert_eq!(
            outcome2.stats.iterations, 1,
            "{}: re-meld should scan once",
            case.name
        );
        assert_eq!(
            outcome2.report.passes[0].changed_runs, 0,
            "{}: no-op meld scan must report unchanged",
            case.name
        );
    }
}
