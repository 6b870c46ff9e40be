//! Print → parse → print round-trip over every benchmark kernel, before
//! and after melding — a strong structural golden test for the printer,
//! parser and the IR itself — plus whole modules, forward references and a
//! function far larger than any paper kernel.

use darm::analysis::verify_ssa;
use darm::ir::parser::{fixup_types, parse_and_verify_module, parse_function, parse_module};
use darm::kernels::synthetic::SyntheticKind;
use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad};
use darm::melding::{meld_function, MeldConfig};
use darm::prelude::*;

/// Parsing re-numbers values densely (the original arena keeps tombstones),
/// so the check is normalization idempotence: after one print→parse pass,
/// further passes must be exact fixpoints.
fn assert_round_trip(func: &Function) {
    let parse = |text: &str| -> Function {
        let mut f = parse_function(text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", func.name()));
        fixup_types(&mut f);
        f.verify_structure()
            .unwrap_or_else(|e| panic!("{}: reparsed does not verify: {e}", func.name()));
        f
    };
    let normalized = parse(&func.to_string()).to_string();
    let again = parse(&normalized).to_string();
    assert_eq!(again, normalized, "{} did not round-trip", func.name());
}

fn all_kernels() -> Vec<Function> {
    let mut fs = vec![
        bitonic::build_kernel(64),
        pcm::build_kernel(64),
        mergesort::build_kernel(),
        lud::build_kernel(),
        nqueens::build_kernel(),
        srad::build_kernel((16, 16)),
        dct::build_kernel(),
    ];
    for kind in SyntheticKind::all() {
        fs.push(darm::kernels::synthetic::build_kernel(kind, 64));
    }
    fs
}

#[test]
fn every_kernel_round_trips() {
    for f in all_kernels() {
        assert_round_trip(&f);
    }
}

#[test]
fn every_melded_kernel_round_trips() {
    for config in [MeldConfig::default(), MeldConfig::branch_fusion()] {
        for mut f in all_kernels() {
            meld_function(&mut f, &config);
            assert_round_trip(&f);
        }
    }
}

/// The text of each function in a printed module, header to closing `}`.
fn function_chunks(text: &str) -> Vec<&str> {
    let starts: Vec<usize> = text
        .match_indices("fn @")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect();
    starts
        .iter()
        .zip(starts.iter().skip(1).chain([&text.len()]))
        .map(|(&a, &b)| &text[a..b])
        .collect()
}

#[test]
fn suite_modules_round_trip_and_hash_like_their_functions() {
    let mut cases = darm_bench::fig8_cases();
    cases.extend(darm_bench::fig9_cases());
    let baseline = darm_bench::suite_module("fig8+fig9", &cases);
    let melded = |config: MeldConfig| {
        let mut m = baseline.clone();
        for f in m.functions_mut() {
            meld_function(f, &config);
        }
        m
    };
    for (what, module) in [
        ("baseline", baseline.clone()),
        ("darm", melded(MeldConfig::default())),
        ("bf", melded(MeldConfig::branch_fusion())),
    ] {
        let normalized = parse_module(&module.to_string())
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .to_string();
        let reparsed =
            parse_and_verify_module(&normalized).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            reparsed.to_string(),
            normalized,
            "{what} module did not round-trip"
        );
        let chunks = function_chunks(&normalized);
        assert_eq!(chunks.len(), cases.len(), "{what}");
        for (func, chunk) in reparsed.functions().iter().zip(chunks) {
            let alone = parse_function(chunk).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                func.content_hash(),
                alone.content_hash(),
                "{what}: @{} hashes differently inside the module",
                func.name()
            );
        }
    }
}

#[test]
fn forward_references_round_trip() {
    // `%2` in block `u` uses `%6`, defined in `d`, which is printed later;
    // the φ in `h` takes `%9` over its back edge.
    let text = "\
fn @fwd(ptr(global) %arg0, i32 %arg1) -> void {
entry:
  %0 = tid.x
  jump d
u:
  %2 = add %6, %0
  %3 = gep i32 %arg0, %0
  store %2, %3
  jump h
d:
  %6 = mul %0, 3
  jump u
h:
  %8 = phi i32 [0, u], [%9, h]
  %9 = add %8, 1
  %10 = icmp slt %9, %arg1
  br %10, h, x
x:
  ret
}
";
    let module = parse_and_verify_module(text).unwrap();
    assert_eq!(module.to_string(), text);
    verify_ssa(&module.functions()[0]).unwrap();
}

/// A function of `loops` counted loops in sequence, each loop four blocks
/// (header, body of `body` chained adds, latch, exit) — printed in the
/// canonical form, with instruction ids in text order, so it reprints
/// byte-identically. Each header φ takes its back-edge value from the
/// latch, printed after it.
fn generated_function(loops: usize, body: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "fn @big(ptr(global) %arg0, i32 %arg1) -> void {\nentry:\n  %0 = tid.x\n  jump h0\n",
    );
    let mut id = 2;
    let mut pred = "entry".to_string();
    for k in 0..loops {
        let (i, next) = (id, id + body + 9);
        let inc = i + body + 6;
        writeln!(s, "h{k}:\n  %{i} = phi i32 [0, {pred}], [%{inc}, l{k}]").unwrap();
        writeln!(
            s,
            "  %{} = icmp slt %{i}, %arg1\n  br %{}, b{k}, x{k}",
            i + 1,
            i + 1
        )
        .unwrap();
        writeln!(s, "b{k}:\n  %{} = add %{i}, %0", i + 3).unwrap();
        for j in 1..body {
            writeln!(s, "  %{} = mul %{}, 3", i + 3 + j, i + 2 + j).unwrap();
        }
        let gep = i + 3 + body;
        writeln!(
            s,
            "  %{gep} = gep i32 %arg0, %{i}\n  store %{}, %{gep}\n  jump l{k}",
            gep - 1
        )
        .unwrap();
        writeln!(s, "l{k}:\n  %{inc} = add %{i}, 1\n  jump h{k}").unwrap();
        writeln!(s, "x{k}:").unwrap();
        if k + 1 < loops {
            writeln!(s, "  jump h{}", k + 1).unwrap();
        } else {
            s.push_str("  ret\n");
        }
        pred = format!("x{k}");
        id = next;
    }
    s.push_str("}\n");
    s
}

#[test]
fn a_twenty_thousand_instruction_function_round_trips() {
    let text = generated_function(201, 91);
    let module = parse_and_verify_module(&text).unwrap();
    let func = &module.functions()[0];
    assert!(
        func.live_inst_count() >= 20_000,
        "{}",
        func.live_inst_count()
    );
    assert!(
        func.live_block_count() >= 800,
        "{}",
        func.live_block_count()
    );
    assert_eq!(module.to_string(), text);
    verify_ssa(func).unwrap();
}
