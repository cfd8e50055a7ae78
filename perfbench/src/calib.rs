//! Host-speed calibration. The host this benchmark is tuned on is a
//! shared 2-vCPU VM whose speed moves by up to a factor of two over
//! seconds to minutes as other tenants come and go. The slowdown shows in
//! user CPU time as much as in wall time, so it is not preemption that
//! the kernel accounts for, and no choice of percentile removes it: a
//! loop-taint job took 75 ms in one minute and 140 ms in the next.
//!
//! Each timed window (one `run_batch` call, or one segment of the
//! serve-watch closed loop) is therefore bracketed by a fixed kernel that
//! belongs to the benchmark, not to the program, and the window's times
//! are reported at the reference speed: scaled by the kernel's reference
//! time over its mean time on either side of the window. The kernel never
//! runs program code, so a change to the program moves the scaled times
//! exactly as it moves the raw ones.
//!
//! The kernel mimics the engine's inner loop (octo-taint's register and
//! memory maps of reference-counted offset sets, on std's SipHash maps).
//! Over five seeds of 25 s on that host it cut the run-to-run spread of
//! the median job time (quartile distance over median) from 0.11 to 0.04
//! on loop-taint and from 0.16 to 0.08 on fleet. A small ordered-map
//! interpreter loop did less well (0.05 and 0.09), and a pointer chase
//! through 8 MiB, which tracks memory latency only, did not help at all.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Seconds one kernel repetition takes on the reference host (a 2-vCPU
/// Xeon VM) when it is quiet. It only sets the scale of reported times.
pub const REFERENCE_S: f64 = 0.003;

/// Kernel repetitions per calibration; the fastest counts, because a
/// burst of interference only ever slows a repetition down.
const REPS: usize = 3;

/// Operations of one kernel repetition.
const OPS: u64 = 30_000;

/// SipHash with fixed keys: the same hash function the program's maps
/// use, but the same layout in every process.
type Map<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A fixed stretch of taint-propagation-like work: loads and stores
/// between a register map and a 4096-word memory map, unions of offset
/// sets into fresh allocations, and fresh single-offset sets.
fn kernel() -> u64 {
    let mut regs: Map<u16, Rc<Vec<u32>>> = Map::default();
    let mut mem: Map<u64, Rc<Vec<u32>>> = Map::default();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let r = (x % 24) as u16;
        let r2 = ((x >> 5) % 24) as u16;
        let addr = 0x1000 + ((x >> 12) % 4096) * 8;
        match (x >> 40) % 5 {
            0 => match mem.get(&addr) {
                Some(t) => {
                    regs.insert(r, Rc::clone(t));
                }
                None => {
                    regs.remove(&r);
                }
            },
            1 => match regs.get(&r) {
                Some(t) => {
                    mem.insert(addr, Rc::clone(t));
                }
                None => {
                    mem.remove(&addr);
                }
            },
            2 => {
                let mut union: Vec<u32> = Vec::new();
                for reg in [r, r2] {
                    if let Some(t) = regs.get(&reg) {
                        union.extend(t.iter().copied());
                    }
                }
                union.sort_unstable();
                union.dedup();
                union.truncate(16);
                regs.insert(r, Rc::new(union));
            }
            3 => {
                regs.insert(r, Rc::new(vec![(i % 64) as u32]));
            }
            _ => acc = acc.wrapping_add(regs.get(&r2).map_or(0, |t| t.len() as u64)),
        }
    }
    black_box(acc + mem.len() as u64)
}

/// Seconds of the fastest of a few kernel repetitions.
pub fn measure() -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}
