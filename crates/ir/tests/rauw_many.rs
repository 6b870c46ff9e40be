//! `Function::rauw_many` against its specification: the same operands as
//! calling `Function::rauw` once per pair, in order, and a stamp that moves
//! exactly when one of those calls reaches a use — over random functions
//! and random maps, including chains (a replacement that is a later pair's
//! key), repeated keys, self-replacements and keys with no live use. Each
//! sequential `rauw` must report exactly the live users of its key.

use darm_ir::{Function, InstData, InstId, Opcode, Stamp, Type, Value};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A straight-line chain of blocks full of `add`s over random earlier
/// values (instructions, the parameter, constants), with a few
/// instructions removed afterwards so the arena holds tombstones.
fn random_function(rng: &mut Rng) -> (Function, Vec<InstId>) {
    let mut f = Function::new("r", vec![Type::I32], Type::Void);
    let mut blocks = vec![f.entry()];
    for k in 1..1 + rng.below(4) {
        blocks.push(f.add_block(&format!("b{k}")));
    }
    let mut defs: Vec<InstId> = Vec::new();
    for (k, &b) in blocks.iter().enumerate() {
        for _ in 0..1 + rng.below(8) {
            let pick = |rng: &mut Rng| match rng.below(4) {
                0 => Value::Param(0),
                1 => Value::I32(rng.below(3) as i32),
                _ if !defs.is_empty() => Value::Inst(defs[rng.below(defs.len())]),
                _ => Value::I32(7),
            };
            let ops = vec![pick(rng), pick(rng)];
            defs.push(f.add_inst(b, InstData::new(Opcode::Add, Type::I32, ops)));
        }
        let term = match blocks.get(k + 1) {
            Some(&next) => InstData::terminator(Opcode::Jump, vec![], vec![next]),
            None => InstData::terminator(Opcode::Ret, vec![], vec![]),
        };
        f.add_inst(b, term);
    }
    for _ in 0..rng.below(3) {
        let d = defs[rng.below(defs.len())];
        if f.is_inst_alive(d) {
            f.remove_inst(d);
        }
    }
    (f, defs)
}

fn random_map(rng: &mut Rng, defs: &[InstId]) -> Vec<(InstId, Value)> {
    (0..1 + rng.below(12))
        .map(|_| {
            let from = defs[rng.below(defs.len())];
            let to = match rng.below(3) {
                0 => Value::I32(rng.below(5) as i32 + 100),
                _ => Value::Inst(defs[rng.below(defs.len())]),
            };
            (from, to)
        })
        .collect()
}

/// Live operands after an edit.
fn operands(f: &Function) -> Vec<(InstId, Vec<Value>)> {
    (0..f.inst_capacity())
        .map(InstId::new)
        .filter(|&i| f.is_inst_alive(i))
        .map(|i| (i, f.inst(i).operands.clone()))
        .collect()
}

/// The generations an edit added to `before`.
fn moved(before: Stamp, after: Stamp) -> (u64, u64) {
    assert_eq!(before.id, after.id, "an edit keeps the instance identity");
    (
        after.inst_gen - before.inst_gen,
        after.shape_gen - before.shape_gen,
    )
}

#[test]
fn rauw_many_equals_sequential_rauw() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut chained = 0;
    let mut unreached = 0;
    for case in 0..2000 {
        let (f, defs) = random_function(&mut rng);
        let map = random_map(&mut rng, &defs);
        chained += map
            .iter()
            .enumerate()
            .any(|(i, &(_, to))| map[i + 1..].iter().any(|&(k, _)| Value::Inst(k) == to))
            as usize;

        let mut seq = f.clone();
        let before = seq.stamp();
        let mut reaching_calls = 0;
        for &(from, to) in &map {
            let users = seq.users_of(Value::Inst(from));
            assert_eq!(
                seq.rauw(Value::Inst(from), to),
                users,
                "case {case}: rauw reports the users it rewrote"
            );
            reaching_calls += u64::from(!users.is_empty());
        }
        assert_eq!(
            moved(before, seq.stamp()),
            (reaching_calls, 0),
            "case {case}: one instruction edit per call that reached a use"
        );

        let mut batched = f.clone();
        let before = batched.stamp();
        batched.rauw_many(&map);
        assert_eq!(
            operands(&seq),
            operands(&batched),
            "case {case}: map {map:?}"
        );
        assert_eq!(
            moved(before, batched.stamp()),
            (u64::from(reaching_calls > 0), 0),
            "case {case}: one instruction edit iff some use was reached"
        );
        unreached += usize::from(reaching_calls == 0);
    }
    assert!(
        chained > 100,
        "the generator must exercise chains ({chained})"
    );
    assert!(
        unreached > 0,
        "the generator must exercise maps that reach no use"
    );
}

#[test]
fn rauw_many_of_nothing_moves_nothing() {
    let mut rng = Rng(7);
    let (mut f, _) = random_function(&mut rng);
    let before = f.stamp();
    f.rauw_many(&[]);
    assert_eq!(f.stamp(), before);
}
