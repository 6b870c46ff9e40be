//! Property tests for the pipeline-spec grammar: rendering is canonical
//! and parsing is its exact inverse — `parse(render(spec)) == spec` for
//! random parameterized/nested specs — plus pinned error-message tests
//! for the two common spec mistakes (unbalanced parens, bad parameter
//! keys).

use darm_pipeline::{PassRegistry, PassSpec, PipelineError, PipelineOptions, SpecElem};
use proptest::prelude::*;

/// Draws a word from the spec alphabet (letters, digits, `_`, `.`, `-`),
/// never starting with a character that could glue to a neighbor — the
/// alphabet has no separators, so any nonempty word works.
fn word(bytes: &[u8], salt: usize) -> String {
    const ALPHABET: &[u8] = b"abcxyz019_.-";
    let len = 1 + (bytes.get(salt).copied().unwrap_or(1) as usize % 6);
    (0..len)
        .map(|i| {
            let b = bytes.get(salt + 1 + i).copied().unwrap_or(7) as usize;
            ALPHABET[b % ALPHABET.len()] as char
        })
        .collect()
}

/// Builds a random spec AST from a byte script: a recursive-descent
/// *generator* mirroring the grammar, with depth-bounded fixpoint
/// nesting. (The offline proptest stand-in has no `prop_recursive`, so
/// recursion is driven by the script instead.)
fn build_elem(bytes: &[u8], pos: &mut usize, depth: usize) -> SpecElem {
    let next = |pos: &mut usize| {
        let b = bytes.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        b
    };
    let kind = next(pos);
    if depth < 2 && kind % 4 == 0 {
        let n = 1 + (next(pos) as usize % 3);
        let elems = (0..n).map(|_| build_elem(bytes, pos, depth + 1)).collect();
        let max = match next(pos) {
            b if b % 3 == 0 => Some(next(pos) as usize),
            _ => None,
        };
        return SpecElem::Fixpoint { elems, max };
    }
    let name = loop {
        let w = word(bytes, *pos);
        *pos += 2;
        // `fixpoint` is a keyword, never a generated pass name.
        if w != "fixpoint" {
            break w;
        }
    };
    let n_params = next(pos) as usize % 3;
    let params = (0..n_params)
        .map(|_| {
            let k = word(bytes, *pos);
            *pos += 2;
            let v = word(bytes, *pos);
            *pos += 2;
            (k, v)
        })
        .collect();
    SpecElem::Pass { name, params }
}

fn build_spec(bytes: &[u8]) -> PassSpec {
    let mut pos = 0;
    let n = 1 + (bytes.first().copied().unwrap_or(0) as usize % 4);
    pos += 1;
    PassSpec {
        elems: (0..n).map(|_| build_elem(bytes, &mut pos, 0)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse` inverts `render` exactly, on random parameterized and
    /// nested specs.
    #[test]
    fn parse_render_round_trips(bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
        let spec = build_spec(&bytes);
        let rendered = spec.to_string();
        let reparsed = PassSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced an unparseable spec `{rendered}`: {e}"));
        prop_assert_eq!(&reparsed, &spec, "round trip diverged through `{}`", rendered);
        // Rendering is canonical: a second trip is a fixed point.
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// Whitespace never changes the parse: spraying spaces around
    /// separators yields the same AST.
    #[test]
    fn whitespace_is_insignificant(bytes in proptest::collection::vec(any::<u8>(), 1..48)) {
        let spec = build_spec(&bytes);
        let spaced: String = spec
            .to_string()
            .chars()
            .flat_map(|c| if matches!(c, ',' | '(' | ')' | '=') {
                vec![' ', c, ' ']
            } else {
                vec![c]
            })
            .collect();
        prop_assert_eq!(PassSpec::parse(&spaced).unwrap(), spec);
    }
}

// ---- pinned error messages ----

#[test]
fn unbalanced_parens_are_positioned_errors() {
    // Missing closer: the error points at end-of-spec and names both
    // continuations.
    let e = PassSpec::parse("meld(threshold=0.3),fixpoint(simplify,dce").unwrap_err();
    assert_eq!(e.span, (41, 41));
    assert_eq!(e.found, "end of spec");
    assert_eq!(e.expected, "`,` or `)` in the fixpoint group");
    assert_eq!(
        e.to_string(),
        "at 41..41: expected `,` or `)` in the fixpoint group, found end of spec"
    );

    // Unclosed parameter list.
    let e = PassSpec::parse("meld(threshold=0.3").unwrap_err();
    assert_eq!(e.found, "end of spec");
    assert_eq!(e.expected, "`,` or `)` in the parameter list");

    // Stray closer: the error carries the token and its exact span.
    let e = PassSpec::parse("simplify,dce)").unwrap_err();
    assert_eq!(e.span, (12, 13));
    assert_eq!(e.found, "`)`");
    assert_eq!(e.expected, "`,` or end of spec");
}

#[test]
fn bad_parameter_keys_name_the_rejecting_pass() {
    let mut r = PassRegistry::with_transforms();
    // A pass taking one boolean parameter, `on`.
    r.register_configurable("knob", |p, _| {
        p.take_parsed::<bool>("on")?;
        Ok(Box::new(darm_pipeline::VerifyPass))
    });
    // Unknown key on a pass that takes parameters.
    let e = r
        .build("knob(onn=false)", PipelineOptions::default())
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "pass 'knob': unknown parameter `onn` (=`false`)"
    );
    assert!(matches!(e, PipelineError::BadParameter { pass, .. } if pass == "knob"));

    // Any key on a pass that takes none.
    let e = r
        .build("verify(fast=true)", PipelineOptions::default())
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "pass 'verify': unknown parameter `fast` (=`true`)"
    );

    // A key whose value fails to parse is also a parameter error.
    let e = r
        .build("knob(on=0.5)", PipelineOptions::default())
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "pass 'knob': parameter `on`: cannot parse `0.5` as bool"
    );
}
