//! Edge-case behaviour of the interpreter's I/O and call model.

use octo_ir::parse::parse_program;
use octo_vm::{CrashKind, Limits, RunOutcome, Vm};

fn run(src: &str, input: &[u8]) -> RunOutcome {
    let p = parse_program(src).expect("parses");
    Vm::new(&p, input).run()
}

#[test]
fn mmap_of_empty_input_yields_empty_region() {
    let src = r#"
func main() {
entry:
    fd = open
    base = mmap fd
    sz = fsize fd
    halt sz
}
"#;
    assert_eq!(run(src, b""), RunOutcome::Exit(0));
    // Loading from the empty mapping crashes (zero-size region).
    let src2 = r#"
func main() {
entry:
    fd = open
    base = mmap fd
    v = load.1 base
    halt v
}
"#;
    assert!(run(src2, b"").is_crash());
}

#[test]
fn zero_length_read_returns_zero() {
    let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 0
    halt n
}
"#;
    assert_eq!(run(src, b"abcd"), RunOutcome::Exit(0));
}

#[test]
fn seek_past_eof_then_getc_is_eof() {
    let src = r#"
func main() {
entry:
    fd = open
    seek fd, 1000
    b = getc fd
    iseof = eq b, -1
    br iseof, yes, no
yes:
    halt 0
no:
    halt 1
}
"#;
    assert_eq!(run(src, b"short"), RunOutcome::Exit(0));
}

#[test]
fn seek_past_eof_then_read_returns_zero() {
    let src = r#"
func main() {
entry:
    fd = open
    seek fd, 1000
    buf = alloc 8
    n = read fd, buf, 8
    halt n
}
"#;
    assert_eq!(run(src, b"short"), RunOutcome::Exit(0));
}

#[test]
fn call_arity_mismatch_follows_c_convention() {
    // Extra args dropped; missing args zero.
    let src = r#"
func main() {
entry:
    a = call two(7, 8)
    b = call two(9)
    x = mul a, 100
    x = add x, b
    halt x
}
func two(p, q) {
entry:
    s = add p, q
    ret s
}
"#;
    let p = parse_program(src).unwrap();
    // call validation rejects arity mismatches statically…
    assert!(octo_ir::validate::validate(&p).is_err());
    // …but the runtime is still total about them (C convention): (7+8)=15
    // and (9+0)=9.
    assert_eq!(Vm::new(&p, b"").run(), RunOutcome::Exit(1509));
}

#[test]
fn call_depth_boundary_is_exact() {
    // depth limit N: a chain of N-1 nested calls (depth N including main)
    // succeeds; one more crashes.
    let src = r#"
func main() {
entry:
    r = call f(3)
    halt r
}
func f(n) {
entry:
    z = eq n, 0
    br z, done, rec
rec:
    m = sub n, 1
    r = call f(m)
    ret r
done:
    ret 42
}
"#;
    let p = parse_program(src).unwrap();
    // main(1) + f(3..0): 4 f-frames → depth 5.
    let ok = Vm::new(&p, b"")
        .with_limits(Limits {
            max_insts: 10_000,
            max_call_depth: 5,
        })
        .run();
    assert_eq!(ok, RunOutcome::Exit(42));
    let too_deep = Vm::new(&p, b"")
        .with_limits(Limits {
            max_insts: 10_000,
            max_call_depth: 4,
        })
        .run();
    assert_eq!(
        too_deep.crash().expect("crash").kind,
        octo_vm::CrashKind::StackOverflow
    );
}

#[test]
fn halt_takes_register_values() {
    let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    halt b
}
"#;
    assert_eq!(run(src, b"\x2A"), RunOutcome::Exit(42));
}

#[test]
fn alloc_size_zero_then_access_crashes() {
    let src = r#"
func main() {
entry:
    buf = alloc 0
    v = load.1 buf
    halt v
}
"#;
    assert!(run(src, b"").is_crash());
}

#[test]
fn partial_store_before_fault_is_visible_model() {
    // A 4-byte store that straddles a region end writes the in-bounds
    // bytes before faulting — documented partial-store semantics.
    let src = r#"
func main() {
entry:
    buf = alloc 2
    store.4 buf, 0x04030201
    halt 0
}
"#;
    assert!(run(src, b"").is_crash());
}

#[test]
fn input_sized_allocation_past_the_cap_fails_like_malloc() {
    // One input byte scales the request to 0x7f << 44 bytes (about 2 PB).
    // The allocation fails with address 0 instead of aborting the process.
    let src = r#"
func main() {
entry:
    fd = open
    n = getc fd
    size = shl n, 44
    buf = alloc size
    halt buf
}
"#;
    assert_eq!(run(src, &[0x7f]), RunOutcome::Exit(0));
    // A literal request passes the parser and the validator; using the
    // failed allocation faults as a null dereference.
    let src = r#"
func main() {
entry:
    buf = alloc 99999999999999
    store.1 buf, 1
    halt 0
}
"#;
    let p = parse_program(src).expect("parses");
    octo_ir::validate::validate(&p).expect("validates");
    let out = Vm::new(&p, b"").run();
    assert_eq!(
        out.crash().map(|c| c.kind),
        Some(CrashKind::NullDeref { addr: 0 })
    );
}
