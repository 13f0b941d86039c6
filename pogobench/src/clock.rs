//! The benchmark's host clock and the machine's speed beside it.
//!
//! **Clock.** [`Cpu`] reads the CPU time of the calling thread, less the
//! time spent in reference passes. The program runs in one thread, so
//! that is the host time its work costs; wall time would also count
//! time the machine gives to other threads and guests.
//!
//! **Speed.** On a shared machine the same work runs at different
//! speeds from one second to the next, as other guests contend for the
//! core's caches and execution units: on the 2-core box of the README's
//! reference figures, rounds of identical work within one run took
//! 3.3 s to 5.7 s of CPU time. So the benchmark runs a fixed *reference
//! pass* — B-tree inserts and lookups, formatting and a sort, work of
//! the simulator's kind but none of the program's code — at the start
//! and end of every measured span and every [`PACE`] of CPU time within
//! it, and [`Beside::speed`] turns the span's CPU seconds into
//! *reference seconds*: the seconds it would have taken had each pass
//! taken [`REFERENCE`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

use crate::alloc;

/// CPU time between reference passes.
pub const PACE: Duration = Duration::from_millis(100);

/// Seconds of one reference pass on the machine the README's reference
/// figures come from (its median there). The benchmark's host-time
/// metrics are scaled to this speed.
pub const REFERENCE: f64 = 6.5e-3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has used.
fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, the only
    // memory `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

thread_local! {
    /// CPU time spent in reference passes, which [`Cpu`] leaves out.
    static EXCLUDED: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    /// Thread CPU time at the end of the last reference pass.
    static LAST_PASS: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    /// Seconds of each reference pass of the current [`Beside`] span.
    /// Reserved once, so that the heap counters see no growth of it.
    static PASSES: RefCell<Vec<f64>> = RefCell::new(Vec::with_capacity(4096));
}

/// A point in the benchmark's clock, used like [`std::time::Instant`].
#[derive(Debug, Clone, Copy)]
pub struct Cpu(Duration);

impl Cpu {
    pub fn now() -> Cpu {
        Cpu(thread_cpu() - EXCLUDED.get())
    }

    pub fn elapsed(self) -> Duration {
        Cpu::now().0.saturating_sub(self.0)
    }
}

/// The reference pass: B-tree inserts and lookups, formatting and a
/// sort, on the global allocator as the program's own work is. It
/// frees all it allocates, and the heap counters do not see it.
fn reference_work() {
    let mut map = BTreeMap::new();
    let mut x = 0x1234_5678u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1_000_000, i);
    }
    let hits: u64 = (0..20_000u64).filter_map(|k| map.get(&(k * 50))).sum();
    let mut names: Vec<String> = (0..3_000u64)
        .map(|i| format!("dev-{}@pogo", i.wrapping_mul(2_654_435_761) % 100_000))
        .collect();
    names.sort();
    std::hint::black_box((hits, names));
}

/// Runs one reference pass now and records its time.
fn sample() {
    alloc::unseen(|| {
        let t = thread_cpu();
        reference_work();
        let end = thread_cpu();
        EXCLUDED.set(EXCLUDED.get() + (end - t));
        LAST_PASS.set(end);
        PASSES.with_borrow_mut(|p| p.push((end - t).as_secs_f64()));
    });
}

/// Runs a reference pass if [`PACE`] of CPU time has passed since the
/// last one. Called between units of measured work, never inside one.
pub fn pace() {
    if thread_cpu().saturating_sub(LAST_PASS.get()) >= PACE {
        sample();
    }
}

/// The factor that turns CPU seconds measured beside `passes` into
/// reference seconds: [`REFERENCE`] over the passes' median.
pub fn speed(passes: &[f64]) -> f64 {
    assert!(!passes.is_empty(), "no reference pass to scale by");
    REFERENCE / crate::median(&mut passes.to_vec())
}

/// The reference passes beside one measured span: one as it starts,
/// those [`pace`] runs within it, and one as it ends. Spans do not nest.
pub struct Beside(());

impl Beside {
    /// Runs the span's first reference pass.
    pub fn start() -> Beside {
        PASSES.with_borrow_mut(Vec::clear);
        sample();
        Beside(())
    }

    /// Runs the span's last reference pass and returns the [`speed`]
    /// over the span's passes.
    pub fn speed(self) -> f64 {
        sample();
        PASSES.with_borrow(|p| speed(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_not_sleep_nor_reference_passes() {
        let t = Cpu::now();
        std::thread::sleep(Duration::from_millis(50));
        assert!(t.elapsed() < Duration::from_millis(10));
        let t = Cpu::now();
        let beside = Beside::start();
        let mut x = 0u64;
        while t.elapsed() < PACE + Duration::from_millis(10) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        pace();
        let speed = beside.speed();
        assert!(t.elapsed() < PACE + Duration::from_millis(15));
        assert_eq!(PASSES.with_borrow(Vec::len), 3);
        assert!(speed > 0.0 && speed.is_finite());
    }

    #[test]
    fn speed_is_reference_over_the_median_pass() {
        assert_eq!(speed(&[REFERENCE * 2.0, REFERENCE, REFERENCE * 9.0]), 0.5);
    }
}
