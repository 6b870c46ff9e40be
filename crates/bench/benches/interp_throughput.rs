//! Interpreter-throughput microbenchmark across all three execution
//! backends — flat register bytecode vs the pre-decoded warp-vectorized
//! engine vs the original per-lane reference interpreter — on the fig. 9
//! real-world kernel set.
//!
//! Reports per-case criterion timings for every engine plus a summary
//! table of simulated thread-instructions per second and the geomean
//! speedups. Acceptance targets, asserted on full runs: the decoded
//! engine at **≥2×** the reference, and the bytecode engine at **≥1.3×**
//! the decoded engine.
//!
//! `cargo bench --bench interp_throughput` — measure.
//! `cargo bench --bench interp_throughput -- --test` — smoke mode: each
//! engine runs every case once and the stats are cross-checked, then
//! ratios from the interleaved min-of-rounds estimator
//! ([`darm_bench::time_per_call`] per sample, the three engines timed back
//! to back on each case in every round, the minimum over rounds kept) are
//! recorded through [`darm_bench::perfjson`] (keys
//! `interp_throughput/bytecode_vs_reference` and
//! `interp_throughput/bytecode_vs_prepared`) for the perf gate. The spread
//! of the per-round geomeans is printed beside them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darm_bench::{fig9_cases, geomean, perfjson, time_per_call};
use darm_kernels::BenchCase;
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelStats, PreparedKernel};
use std::time::Instant;

/// Runs `case` on the reference (per-lane, arena-walking) interpreter.
/// Like the two helpers below: fresh buffers, no readback, so timings
/// compare launch cost alone, symmetrically across engines.
fn run_reference(case: &BenchCase) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_reference(&case.func, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", case.name))
}

/// Runs `case` on the decoded engine.
fn run_prepared(case: &BenchCase, pk: &PreparedKernel) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_prepared(pk, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: decoded run failed: {e}", case.name))
}

/// Runs `case` on the bytecode engine.
fn run_bytecode(case: &BenchCase, bk: &BytecodeKernel) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_bytecode(bk, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: bytecode run failed: {e}", case.name))
}

/// Times `f` over enough repetitions to fill roughly `budget` seconds,
/// returning seconds per call.
fn time_per_call_budget(budget: f64, mut f: impl FnMut()) -> f64 {
    // Warm up and size the batch.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-6);
    let reps = ((budget / once).ceil() as usize).clamp(3, 200);
    let t1 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t1.elapsed().as_secs_f64() / reps as f64
}

/// Full-run timing: ~100 ms per measurement.
fn time_per_call_full(f: impl FnMut()) -> f64 {
    time_per_call_budget(0.1, f)
}

/// Rounds of the smoke-mode estimator.
const SMOKE_ROUNDS: usize = 5;

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let cases = fig9_cases();

    // Criterion-style per-case timings.
    let mut group = c.benchmark_group("interp_throughput");
    group.sample_size(10);
    for case in &cases {
        let pk = PreparedKernel::new(&case.func);
        let bk = BytecodeKernel::from_prepared(&pk);
        group.bench_with_input(BenchmarkId::new("bytecode", &case.name), case, |b, case| {
            b.iter(|| run_bytecode(case, &bk))
        });
        group.bench_with_input(BenchmarkId::new("decoded", &case.name), case, |b, case| {
            b.iter(|| run_prepared(case, &pk))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", &case.name),
            case,
            |b, case| b.iter(|| run_reference(case)),
        );
    }
    group.finish();

    if test_mode {
        // Smoke mode: one untimed cross-check per engine, then ratios for
        // the perf gate from the interleaved min-of-rounds estimator: each
        // round times the three engines back to back on every case, and
        // each engine's estimate is its minimum over rounds (noise only
        // ever adds time).
        let prepared: Vec<(PreparedKernel, BytecodeKernel)> = cases
            .iter()
            .map(|case| {
                let pk = PreparedKernel::new(&case.func);
                let bk = BytecodeKernel::from_prepared(&pk);
                (pk, bk)
            })
            .collect();
        for (case, (pk, bk)) in cases.iter().zip(&prepared) {
            let stats = run_prepared(case, pk);
            assert_eq!(
                stats,
                run_reference(case),
                "{}: decoded vs reference disagree",
                case.name
            );
            assert_eq!(
                stats,
                run_bytecode(case, bk),
                "{}: bytecode vs decoded disagree",
                case.name
            );
        }
        let n = cases.len();
        let (mut t_bc, mut t_dec, mut t_ref) =
            (vec![f64::MAX; n], vec![f64::MAX; n], vec![f64::MAX; n]);
        // Per-round geomeans, whose spread shows what one round alone
        // would have reported.
        let mut round_gm: Vec<f64> = Vec::new();
        for _ in 0..SMOKE_ROUNDS {
            let mut ratios = Vec::with_capacity(n);
            for (i, (case, (pk, bk))) in cases.iter().zip(&prepared).enumerate() {
                let bc = time_per_call(|| {
                    run_bytecode(case, bk);
                });
                let dec = time_per_call(|| {
                    run_prepared(case, pk);
                });
                let rf = time_per_call(|| {
                    run_reference(case);
                });
                t_bc[i] = t_bc[i].min(bc);
                t_dec[i] = t_dec[i].min(dec);
                t_ref[i] = t_ref[i].min(rf);
                ratios.push(rf / bc);
            }
            round_gm.push(geomean(ratios));
        }
        let (mut bc_vs_ref, mut bc_vs_dec) = (Vec::new(), Vec::new());
        for (i, case) in cases.iter().enumerate() {
            println!(
                "interp_throughput smoke: {:<10} bytecode {:.2}x reference, {:.2}x decoded",
                case.name,
                t_ref[i] / t_bc[i],
                t_dec[i] / t_bc[i]
            );
            bc_vs_ref.push(t_ref[i] / t_bc[i]);
            bc_vs_dec.push(t_dec[i] / t_bc[i]);
        }
        let lo = round_gm.iter().copied().fold(f64::MAX, f64::min);
        let hi = round_gm.iter().copied().fold(0.0, f64::max);
        println!(
            "interp_throughput smoke: per-round bytecode-vs-reference geomeans {lo:.2}..{hi:.2} over {SMOKE_ROUNDS} rounds (spread {:.1}%)",
            (hi / lo - 1.0) * 100.0
        );
        let gm_ref = geomean(bc_vs_ref.iter().copied());
        let gm_dec = geomean(bc_vs_dec.iter().copied());
        println!("interp_throughput: smoke mode — all three engines agree on all fig9 cases");
        println!(
            "interp_throughput smoke: bytecode at {gm_ref:.2}x reference, {gm_dec:.2}x decoded"
        );
        perfjson::record("interp_throughput/bytecode_vs_reference", gm_ref);
        perfjson::record("interp_throughput/bytecode_vs_prepared", gm_dec);
        return;
    }

    // Summary: simulated thread-instructions per second for all three
    // engines, and the geomean speedups the tentpoles are accountable for.
    let (mut dec_vs_ref, mut bc_vs_dec, mut bc_vs_ref) = (Vec::new(), Vec::new(), Vec::new());
    println!();
    println!(
        "| case | static insts | regs | bytecode Minstr/s | decoded Minstr/s | reference Minstr/s | bc/dec | dec/ref |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for case in &cases {
        let pk = PreparedKernel::new(&case.func);
        let bk = BytecodeKernel::from_prepared(&pk);
        let stats = run_prepared(case, &pk);
        let insts = stats.thread_instructions as f64;
        let bc = insts
            / time_per_call_full(|| {
                run_bytecode(case, &bk);
            });
        let dec = insts
            / time_per_call_full(|| {
                run_prepared(case, &pk);
            });
        let refc = insts
            / time_per_call_full(|| {
                run_reference(case);
            });
        println!(
            "| {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.2}x | {:.2}x |",
            case.name,
            pk.decoded_inst_count(),
            pk.register_slots(),
            bc / 1e6,
            dec / 1e6,
            refc / 1e6,
            bc / dec,
            dec / refc
        );
        dec_vs_ref.push(dec / refc);
        bc_vs_dec.push(bc / dec);
        bc_vs_ref.push(bc / refc);
    }
    let gm_dec_ref = geomean(dec_vs_ref.iter().copied());
    let gm_bc_dec = geomean(bc_vs_dec.iter().copied());
    let gm_bc_ref = geomean(bc_vs_ref.iter().copied());
    println!("| **GM** | | | | | | **{gm_bc_dec:.2}x** | **{gm_dec_ref:.2}x** |");
    println!("bytecode vs reference geomean: {gm_bc_ref:.2}x");
    perfjson::record(
        "measured/interp_throughput/bytecode_vs_reference",
        gm_bc_ref,
    );
    perfjson::record("measured/interp_throughput/bytecode_vs_prepared", gm_bc_dec);
    assert!(
        gm_dec_ref >= 2.0,
        "decoded engine geomean speedup {gm_dec_ref:.2}x is below the 2x acceptance target"
    );
    assert!(
        gm_bc_dec >= 1.3,
        "bytecode engine geomean speedup {gm_bc_dec:.2}x over the decoded engine is below the \
         1.3x acceptance target"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
