//! Memory at the text boundary: the parser's is bounded by its input, not
//! by what the input says (value names that are huge numbers must not size
//! any table), and the printer allocates nothing of its own — hashing a
//! function streams the printer into a hasher with no allocation at all.
//!
//! A counting global allocator tallies the bytes each thread allocates,
//! and refuses any single request over 256 MiB, so a regression aborts the
//! test instead of exhausting the machine's memory.

use darm_ir::parser::{parse_and_verify, parse_and_verify_module};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

const REFUSE_ABOVE: usize = 256 << 20;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn huge_numeric_names_allocate_nothing_proportional() {
    let defines = "\
fn @h(ptr(global) %arg0) -> void {
entry:
  %4000000000 = add 1, 2
  %999999999 = gep i32 %arg0, %4000000000
  store %4000000000, %999999999
  ret
}
";
    let (parsed, bytes) = allocated_by(|| parse_and_verify_module(defines));
    let module = parsed.unwrap();
    assert!(bytes < 64 * 1024, "parsing allocated {bytes} bytes");
    assert_eq!(module.functions()[0].live_inst_count(), 4);

    let undefined =
        "fn @u() -> void {\nentry:\n  store %4000000000, %18446744073709551616\n  ret\n}\n";
    let (parsed, bytes) = allocated_by(|| parse_and_verify_module(undefined));
    let e = parsed.unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.message.contains("undefined value `%4000000000`"), "{e}");
    assert!(bytes < 64 * 1024, "parsing allocated {bytes} bytes");
}

#[test]
fn printing_into_a_hasher_allocates_nothing() {
    let f = parse_and_verify(
        "\
fn @k(ptr(global) %arg0, i32 %arg1) -> void {
  shared tile : [64 x f32]
entry:
  %0 = tid.x
  %1 = icmp slt %0, %arg1
  br %1, t, x
t:
  %3 = add %0, -7
  %4 = sext i64 %3
  %5 = add %4, 9i64
  %6 = shared.base 0
  %7 = gep f32 %6, %0
  store 1.5f, %7
  jump x
x:
  %10 = phi i32 [%3, t], [undef:i32, entry]
  %11 = gep i32 %arg0, %0
  store %10, %11
  ret
}
",
    )
    .unwrap();
    let (hash, bytes) = allocated_by(|| f.content_hash());
    assert_eq!(bytes, 0, "hashing allocated {bytes} bytes");
    assert_eq!(hash, darm_ir::hash::fnv1a_64(f.to_string().as_bytes()));
}
