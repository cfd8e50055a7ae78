//! Integration tests for the symbolic executors on richer program shapes.

use octo_cfg::{build_cfg, CfgMode, DistanceMap};
use octo_ir::parse::parse_program;
use octo_poc::{Bunch, CrashPrimitives};
use octo_symex::{
    DirectedConfig, DirectedEngine, DirectedOutcome, NaiveConfig, NaiveExplorer, NaiveOutcome,
};
use octo_vm::{CrashKind, Vm};

/// One recorded `ep` entry: `(poc bytes consumed, argument values)`.
type EpEntry<'a> = (&'a [(u32, u8)], &'a [u64]);

fn primitives(entries: &[EpEntry<'_>]) -> CrashPrimitives {
    let mut q = CrashPrimitives::new();
    for (i, (bytes, args)) in entries.iter().enumerate() {
        let mut b = Bunch::new(i as u32 + 1);
        for (o, v) in bytes.iter() {
            b.add(*o, *v);
        }
        q.push(b, args.to_vec());
    }
    q
}

fn run_directed(
    src: &str,
    ep_name: &str,
    q: &CrashPrimitives,
    config: DirectedConfig,
) -> DirectedOutcome {
    let p = parse_program(src).unwrap();
    let ep = p.func_by_name(ep_name).unwrap();
    let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
    let map = DistanceMap::compute(&p, &cfg, ep);
    let engine = DirectedEngine::new(&p, ep, &map, q, config);
    engine.run().0
}

/// A program that must iterate a skip-loop a *specific* number of times
/// before ep: `count` records of 1 byte each precede the call.
fn skip_n_program(n: u8) -> String {
    format!(
        r#"
func main() {{
entry:
    fd = open
    i = 0
    jmp loop
loop:
    done = uge i, {n}
    br done, after, body
body:
    junk = getc fd
    i = add i, 1
    jmp loop
after:
    call shared(fd)
    halt 0
}}
func shared(fd) {{
entry:
    v = getc fd
    ret
}}
"#
    )
}

#[test]
fn theta_bounds_loop_unrolling() {
    // 10 concrete iterations: fine with the default θ=120; with θ=4 the
    // loop state exceeds its budget and the run fails (the paper's
    // declared §III-D failure mode).
    let q = primitives(&[(&[(10, 0x7F)], &[3])]);
    let src = skip_n_program(10);

    let ok = run_directed(
        &src,
        "shared",
        &q,
        DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        },
    );
    assert!(ok.generated(), "{ok:?}");

    // NOTE: the loop here is concrete (the bound is a constant), so the
    // executor just runs it; a θ failure needs a *symbolic* loop bound.
    let src_sym = r#"
func main() {
entry:
    fd = open
    nbuf = alloc 1
    n0 = read fd, nbuf, 1
    n = load.1 nbuf
    i = 0
    jmp loop
loop:
    done = uge i, n
    br done, after, body
body:
    junk = getc fd
    i = add i, 1
    jmp loop
after:
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
    let ok = run_directed(
        src_sym,
        "shared",
        &q,
        DirectedConfig {
            file_len: 300,
            theta: 120,
            ..DirectedConfig::default()
        },
    );
    assert!(ok.generated(), "symbolic loop with generous θ: {ok:?}");
}

#[test]
fn extra_ep_entries_beyond_bunches_are_tolerated() {
    // T enters ep twice but S recorded only one bunch: the second entry
    // carries no constraints and the run still completes.
    let src = r#"
func main() {
entry:
    fd = open
    call shared(fd)
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
    let q = primitives(&[(&[(0, 0xAA)], &[3])]);
    let outcome = run_directed(
        src,
        "shared",
        &q,
        DirectedConfig {
            file_len: 8,
            ..DirectedConfig::default()
        },
    );
    // One bunch → break at the first entry.
    let DirectedOutcome::PocGenerated { poc, entries, .. } = outcome else {
        panic!("expected generation");
    };
    assert_eq!(entries, 1);
    assert_eq!(poc.byte(0), 0xAA);
}

#[test]
fn naive_respects_custom_budgets() {
    // A modest fork chain with a tight state cap → MemError via max_states.
    let mut src = String::from("func main() {\nentry:\n fd = open\n jmp b0\n");
    for i in 0..8 {
        src.push_str(&format!(
            "b{i}:\n x{i} = getc fd\n c{i} = eq x{i}, {i}\n br c{i}, t{i}, f{i}\nt{i}:\n jmp b{}\nf{i}:\n jmp b{}\n",
            i + 1,
            i + 1
        ));
    }
    src.push_str("b8:\n call target()\n halt 0\n}\nfunc target() {\nentry:\n trap 1\n}\n");
    let p = parse_program(&src).unwrap();
    let t = p.func_by_name("target").unwrap();
    let cfg = NaiveConfig {
        mem_budget: u64::MAX,
        step_budget: 10_000_000,
        max_states: 16,
    };
    let (outcome, stats) = NaiveExplorer::new(&p, 16, t).with_config(cfg).run();
    assert!(matches!(outcome, NaiveOutcome::MemError), "{outcome:?}");
    assert!(stats.peak_states >= 16);
}

#[test]
fn symbolic_seek_target_is_concretized() {
    // The seek position is derived from an input byte. Concretisation
    // pins the byte to its model value (0 with an empty path condition),
    // so the seek lands at offset 0 and ep consumes byte 0 — which is the
    // *same byte* that encodes the offset.
    let src = r#"
func main() {
entry:
    fd = open
    off = getc fd
    seek fd, off
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
    // Case 1: the bunch agrees with the concretised value (0) — a PoC is
    // generated and replays cleanly.
    let q_ok = primitives(&[(&[(4, 0x00)], &[3])]);
    let outcome = run_directed(
        src,
        "shared",
        &q_ok,
        DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        },
    );
    let DirectedOutcome::PocGenerated { poc, .. } = outcome else {
        panic!("expected generation: {outcome:?}");
    };
    let p = parse_program(src).unwrap();
    let out = octo_vm::Vm::new(&p, poc.bytes()).run();
    assert!(matches!(out, octo_vm::RunOutcome::Exit(0)), "{out:?}");

    // Case 2: the bunch demands 0x5A at the very byte the concretised
    // seek pinned to 0 — the conflict is detected as unsatisfiable
    // instead of silently producing a broken PoC.
    let q_conflict = primitives(&[(&[(4, 0x5A)], &[3])]);
    let outcome = run_directed(
        src,
        "shared",
        &q_conflict,
        DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        },
    );
    assert!(matches!(outcome, DirectedOutcome::Unsat), "{outcome:?}");
}

#[test]
fn crash_before_ep_forces_other_path() {
    // The shortest path to ep crosses a null-deref trap when byte0 == 0;
    // the engine must backtrack to the feasible byte0 != 0 side.
    let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 0
    br c, crashy, safe
crashy:
    v = load.4 0
    call shared(fd)
    halt 0
safe:
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
    let q = primitives(&[(&[(1, 0x77)], &[3])]);
    let outcome = run_directed(
        src,
        "shared",
        &q,
        DirectedConfig {
            file_len: 8,
            ..DirectedConfig::default()
        },
    );
    let DirectedOutcome::PocGenerated { poc, .. } = outcome else {
        panic!("expected generation: {outcome:?}");
    };
    assert_ne!(poc.byte(0), 0, "must avoid the crashing pre-ep path");
    assert_eq!(poc.byte(1), 0x77);
}

#[test]
fn loop_acceleration_verifies_beyond_theta() {
    // ℓ copies `size` bytes; the crash needs size=200 iterations — beyond
    // θ=120. Without acceleration the ModelFollow loop state dies at θ;
    // with acceleration the copy loop's forced branches are free.
    let src = r#"
func main() {
entry:
    fd = open
    m = getc fd
    ok = eq m, 0x4D
    br ok, go, rej
go:
    call shared(fd)
    call shared(fd)
    halt 0
rej:
    halt 1
}
func shared(fd) {
entry:
    size = getc fd
    buf = alloc 255
    i = 0
    jmp copy
copy:
    done = uge i, size
    br done, fin, body
body:
    v = getc fd
    p = add buf, i
    store.1 p, v
    i = add i, 1
    jmp copy
fin:
    ret size
}
"#;
    // S's bunch: two entries — the 200-byte record then a second ep entry
    // whose placement requires surviving the first copy loop.
    let mut bytes: Vec<(u32, u8)> = vec![(1, 200)];
    for j in 0..200u32 {
        bytes.push((2 + j, (j % 251) as u8));
    }
    // Second entry: a 1-byte record (size=1, one payload byte).
    let q = primitives(&[(&bytes, &[3]), (&[(202, 1), (203, 9)], &[3])]);

    let base = DirectedConfig {
        file_len: 260,
        theta: 120,
        ..DirectedConfig::default()
    };
    let plain = run_directed(src, "shared", &q, base);
    assert!(
        !plain.generated(),
        "θ=120 must not cover a 200-iteration copy loop: {plain:?}"
    );

    let accel = DirectedConfig {
        loop_acceleration: true,
        ..base
    };
    let outcome = run_directed(src, "shared", &q, accel);
    let DirectedOutcome::PocGenerated { poc, entries, .. } = outcome else {
        panic!("acceleration must verify: {outcome:?}");
    };
    assert_eq!(entries, 2);
    assert_eq!(poc.byte(1), 200);
    assert_eq!(poc.byte(202), 1);
    // The generated PoC replays: the program exits cleanly (no planted
    // crash here — the test isolates loop handling, not the crash).
    let p = octo_ir::parse::parse_program(src).unwrap();
    let out = octo_vm::Vm::new(&p, poc.bytes()).run();
    assert!(matches!(out, octo_vm::RunOutcome::Exit(0)), "{out:?}");
}

#[test]
fn allocation_past_the_cap_fails_symbolically_as_in_the_vm() {
    // Only the path with n == 0x7f reaches ep, and on it the requested
    // size is 0x7f << 44 bytes. The symbolic allocation fails with
    // address 0, as the concrete one does, instead of aborting.
    let src = r#"
func main() {
entry:
    fd = open
    n = getc fd
    big = eq n, 0x7f
    br big, grow, out
grow:
    size = shl n, 44
    buf = alloc size
    call shared(buf)
    halt 0
out:
    halt 1
}
func shared(p) {
entry:
    v = load.1 p
    ret v
}
"#;
    // S entered ep with a null pointer.
    let q = primitives(&[(&[], &[0])]);
    let config = DirectedConfig {
        file_len: 4,
        ..DirectedConfig::default()
    };
    let outcome = run_directed(src, "shared", &q, config);
    let DirectedOutcome::PocGenerated { poc, .. } = outcome else {
        panic!("expected poc, got {outcome:?}");
    };
    assert_eq!(poc.byte(0), 0x7f);
    // The concrete replay takes the same path and faults on the same
    // null pointer inside ep.
    let p = parse_program(src).unwrap();
    let crash = Vm::new(&p, poc.bytes())
        .run()
        .crash()
        .cloned()
        .expect("crash");
    assert_eq!(crash.kind, CrashKind::NullDeref { addr: 0 });
    assert_eq!(crash.func, p.func_by_name("shared").unwrap());
}
