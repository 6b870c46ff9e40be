//! Allocation bounds of the per-function analyses: `Cfg::new`,
//! `DomTree::new`, `PostDomTree::new` and `verify_ssa` make a number of
//! heap allocations that does not grow with the block count (flat CSR
//! arrays and one table per purpose, never a `Vec` per block).
//!
//! A counting global allocator tallies the allocation calls each thread
//! makes (a `realloc` counts as one).

use darm_analysis::{verify_ssa, Cfg, DomTree, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{Function, IcmpPred, Type, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `diamonds` chained if/else diamonds (4 blocks each, plus the entry and
/// the exit), each join merging the arms' values with a φ, and a dead
/// block that nothing branches to.
fn diamonds(diamonds: usize) -> Function {
    let mut f = Function::new("d", vec![Type::I32], Type::I32);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let mut acc = b.param(0);
    let mut cur = b.current_block();
    for k in 0..diamonds {
        let head = b.add_block(&format!("h{k}"));
        let t = b.add_block(&format!("t{k}"));
        let e = b.add_block(&format!("e{k}"));
        let j = b.add_block(&format!("j{k}"));
        b.switch_to(cur);
        b.jump(head);
        b.switch_to(head);
        let c = b.icmp(IcmpPred::Slt, acc, Value::I32(k as i32));
        b.br(c, t, e);
        b.switch_to(t);
        let x = b.add(acc, Value::I32(1));
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        acc = b.phi(Type::I32, &[(t, x), (e, acc)]);
        cur = j;
    }
    let exit = b.add_block("exit");
    b.switch_to(cur);
    b.jump(exit);
    b.switch_to(exit);
    b.ret(Some(acc));
    let dead = b.add_block("dead");
    b.switch_to(dead);
    b.jump(exit);
    f
}

/// Allocation calls of each analysis on `f`.
fn counts(f: &Function) -> [usize; 4] {
    let (cfg, c_cfg) = allocs_of(|| Cfg::new(f));
    let (_, c_dom) = allocs_of(|| DomTree::new(f, &cfg));
    let (_, c_pdom) = allocs_of(|| PostDomTree::new(f, &cfg));
    let (ok, c_verify) = allocs_of(|| verify_ssa(f));
    ok.unwrap();
    [c_cfg, c_dom, c_pdom, c_verify]
}

#[test]
fn analyses_allocate_independently_of_block_count() {
    let small = diamonds(25);
    let large = diamonds(200);
    assert!(small.block_capacity() > 100);
    assert!(large.block_capacity() > 800);
    let (s, l) = (counts(&small), counts(&large));
    assert_eq!(
        s,
        l,
        "allocation calls [cfg, domtree, postdomtree, verify_ssa] at {} vs {} blocks",
        small.block_capacity(),
        large.block_capacity()
    );
    assert!(l.iter().all(|&c| c <= 16), "{l:?}");
}
