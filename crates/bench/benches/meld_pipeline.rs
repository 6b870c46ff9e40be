//! Compile-time benchmark of the meld driver: end-to-end meld compile time
//! (the full Algorithm 1 fixpoint with cleanups) on the synthetic fig. 8
//! kernel sweep, the shipped driver vs the frozen PR 2 driver
//! ([`meld_function_pr2`], kept in `darm_bench::reference`) — the
//! pass-manager-era architecture with divergence rebuilding its own
//! post-dominator tree and whole-function round-based cleanup scans.
//!
//! Methodology: the two drivers are timed interleaved (per case, per
//! round) with the *minimum* over rounds as the estimator — scheduler and
//! frequency noise only ever add time — and the harness's `Function::clone`
//! cost measured separately and excluded, so the ratio reflects meld
//! compile time alone.
//!
//! Bounds (asserted in measured mode): **≥ 1.20×** geomean end to end and
//! **≥ 1.50×** on the no-op rescan of an already-melded function (analyses
//! plus detection, zero melds). The gain over the PR 2 driver comes from
//! the analysis cache sharing one post-dominator tree between detection
//! and divergence, the allocation-free divergence sweep, and the worklist
//! cleanups; the melding planner/codegen is shared by both drivers.
//!
//! `cargo bench --bench meld_pipeline` — measure.
//! `cargo bench --bench meld_pipeline -- --test` — smoke mode: bit-identity
//! cross-check of the shipped driver vs the frozen PR 2 driver vs the
//! pre-pipeline reference oracle on every fig8 kernel × {DARM, BF}, a
//! reduced-iteration no-regression guard (geomean ≥ 1.0× with a 5%
//! timer-noise allowance) and a smoke-sized rescan ratio — the CI gate
//! records `meld_pipeline/smoke_vs_pr2` and `meld_pipeline/rescan_vs_pr2`
//! for the perf-gate trajectory. With `DARM_BENCH_JSON=path` both modes
//! record their ratios (see `darm_bench::perfjson`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darm_bench::reference::{meld_function_pr2, meld_function_reference};
use darm_bench::{fig8_cases, geomean, perfjson, time_per_call};
use darm_kernels::BenchCase;
use darm_melding::{meld_function, MeldConfig};

/// Interleaved min-estimator comparison of the shipped driver vs the
/// frozen PR 2 driver over `cases`, clone cost excluded. Returns per-case
/// speedups.
fn compare(cases: &[BenchCase], config: &MeldConfig, rounds: usize) -> Vec<f64> {
    let big = f64::MAX;
    let mut t_meld = vec![big; cases.len()];
    let mut t_pr2 = vec![big; cases.len()];
    let mut t_clone = vec![big; cases.len()];
    for _ in 0..rounds {
        for (i, case) in cases.iter().enumerate() {
            let f = &case.func;
            t_clone[i] = t_clone[i].min(time_per_call(|| {
                std::hint::black_box(f.clone());
            }));
            t_meld[i] = t_meld[i].min(time_per_call(|| {
                let mut g = f.clone();
                meld_function(&mut g, config);
            }));
            t_pr2[i] = t_pr2[i].min(time_per_call(|| {
                let mut g = f.clone();
                meld_function_pr2(&mut g, config);
            }));
        }
    }
    (0..cases.len())
        .map(|i| (t_pr2[i] - t_clone[i]) / (t_meld[i] - t_clone[i]))
        .collect()
}

/// Per-case no-op-rescan speedups vs the PR 2 driver: re-meld the
/// already-melded function (analyses + detection + zero melds), clone
/// cost excluded.
fn rescan_ratios(cases: &[BenchCase], config: &MeldConfig, rounds: usize) -> Vec<f64> {
    let mut ratios = Vec::new();
    for case in cases {
        let mut melded = case.func.clone();
        meld_function(&mut melded, config);
        let mut t_meld = f64::MAX;
        let mut t_pr2 = f64::MAX;
        let mut t_clone = f64::MAX;
        for _ in 0..rounds {
            t_clone = t_clone.min(time_per_call(|| {
                std::hint::black_box(melded.clone());
            }));
            t_meld = t_meld.min(time_per_call(|| {
                let mut g = melded.clone();
                meld_function(&mut g, config);
            }));
            t_pr2 = t_pr2.min(time_per_call(|| {
                let mut g = melded.clone();
                meld_function_pr2(&mut g, config);
            }));
        }
        ratios.push((t_pr2 - t_clone) / (t_meld - t_clone));
    }
    ratios
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let cases = fig8_cases();
    let config = MeldConfig::default();

    // Correctness first, in both modes: the shipped driver, the frozen
    // PR 2 driver and the pre-pipeline reference oracle must be
    // bit-identical (printed IR and statistics) on the whole sweep, under
    // both DARM and branch fusion, before any time means anything.
    for case in &cases {
        for cfg in [MeldConfig::default(), MeldConfig::branch_fusion()] {
            let mut a = case.func.clone();
            let sa = meld_function(&mut a, &cfg);
            let mut b = case.func.clone();
            let sb = meld_function_pr2(&mut b, &cfg);
            let mut r = case.func.clone();
            let sr = meld_function_reference(&mut r, &cfg);
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "{}: shipped and PR 2 drivers disagree",
                case.name
            );
            assert_eq!(
                a.to_string(),
                r.to_string(),
                "{}: shipped and reference drivers disagree",
                case.name
            );
            assert_eq!(
                format!("{sa:?}"),
                format!("{sb:?}"),
                "{}: statistics disagree (pr2)",
                case.name
            );
            assert_eq!(
                format!("{sa:?}"),
                format!("{sr:?}"),
                "{}: statistics disagree (reference)",
                case.name
            );
        }
    }

    if test_mode {
        // Smoke-sized no-regression guard: the shipped driver must not
        // be slower than the PR 2 driver (5% timer-noise allowance). The
        // committed floors live in BENCH_meld.json; the perf gate compares
        // the recorded ratios against them.
        let speedups = compare(&cases, &config, 2);
        let gm = geomean(speedups.iter().copied());
        println!("meld_pipeline guard: smoke geomean {gm:.3}x vs PR 2 driver (bound: >= 0.95)");
        perfjson::record("meld_pipeline/smoke_vs_pr2", gm);
        assert!(
            gm >= 0.95,
            "meld driver regressed below the PR 2 driver ({gm:.3}x)"
        );
        // Smoke-sized rescan ratio: a no-op rescan of the already-melded
        // function is almost pure analysis compute and detection.
        let gm_rescan = geomean(rescan_ratios(&cases, &config, 2));
        println!("meld_pipeline guard: smoke rescan geomean {gm_rescan:.3}x vs PR 2 driver");
        perfjson::record("meld_pipeline/rescan_vs_pr2", gm_rescan);
        return;
    }

    // Criterion-style timings per synthetic kind at block size 32.
    let mut group = c.benchmark_group("meld_pipeline");
    group.sample_size(10);
    for case in cases.iter().filter(|c| c.name.ends_with("-32")) {
        group.bench_with_input(BenchmarkId::new("meld", &case.name), case, |b, case| {
            b.iter(|| {
                let mut f = case.func.clone();
                meld_function(&mut f, &config)
            })
        });
        group.bench_with_input(BenchmarkId::new("pr2", &case.name), case, |b, case| {
            b.iter(|| {
                let mut f = case.func.clone();
                meld_function_pr2(&mut f, &config)
            })
        });
    }
    group.finish();

    // Summary over the full sweep.
    let speedups = compare(&cases, &config, 6);
    println!();
    println!("| case | speedup vs PR 2 driver |");
    println!("|---|---|");
    for (case, s) in cases.iter().zip(&speedups) {
        println!("| {} | {s:.2}x |", case.name);
    }
    let gm = geomean(speedups.iter().copied());
    println!("| **GM** | **{gm:.2}x** |");

    // A full no-op rescan on the already-melded function (analyses +
    // detection + zero melds).
    let gm_rescan = geomean(rescan_ratios(&cases, &config, 4));
    println!("no-op rescan geomean: {gm_rescan:.2}x");
    perfjson::record("measured/meld_pipeline/end_to_end_vs_pr2", gm);
    perfjson::record("measured/meld_pipeline/rescan_vs_pr2", gm_rescan);
    println!("hard floor: >= 1.20x end-to-end geomean, >= 1.50x on the rescan phase");
    println!("measured {gm:.2}x end-to-end; the remainder is the melding");
    println!("planner/codegen shared by both drivers (Amdahl), not recompute");
    assert!(
        gm >= 1.20,
        "meld driver fell below the hard floor vs the PR 2 driver ({gm:.2}x)"
    );
    assert!(
        gm_rescan >= 1.50,
        "meld rescan phase fell below its bound ({gm_rescan:.2}x)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
