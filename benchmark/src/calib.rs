//! The calibrated clock.
//!
//! The VM this benchmark was defined on shares its memory system with
//! other guests, and their traffic slows memory-bound code by 15–40 %
//! for tens of seconds at a time (an ALU-only loop moves by 3 % in the
//! same windows). No amount of work inside one ten-second run averages
//! that away: a whole run can sit in a slow phase.
//!
//! So every timed child interleaves its units with a fixed memory-bound
//! calibration loop and reports how long the loop took next to each
//! unit. The parent scales each timed window by
//! `CAL_REFERENCE_NS ÷ loop duration`: time is measured in seconds of a
//! machine whose memory system runs the loop in exactly
//! [`CAL_REFERENCE_NS`]. Across five-second windows of identical work
//! that halves the spread (see `README.md`, "Noise"). The uncalibrated
//! value is printed and stored next to every calibrated one.
//!
//! The loop lives in the benchmark and never changes with the code
//! under test, so a change that makes the product faster — including
//! one that only saves memory traffic — moves the calibrated number
//! exactly as it moves the raw one.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The loop duration one calibrated second is defined against: about
/// what the loop takes on the defining VM between units. Frozen — it is
/// part of the unit of `msgs_per_s` and `setup_s`.
pub const CAL_REFERENCE_NS: f64 = 2_000_000.0;

/// How stale a calibration sample may be before a new one is taken.
/// Short units share a sample; the loop then costs under 5 % of a run.
const MAX_AGE: Duration = Duration::from_millis(50);

const WORDS: usize = 2 * 1024 * 1024; // 16 MiB: larger than any cache level
const STEPS: usize = 200_000;
const BLOCKS: u64 = 64;
const BLOCK_WORDS: usize = 8 * 1024; // 64 KiB, zero-filled and freed

/// The calibration loop and its most recent reading.
pub struct Calibrator {
    buf: Vec<u64>,
    last_ns: u64,
    taken: Instant,
}

impl Calibrator {
    /// Allocates and touches the buffer, and takes the first sample.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            buf: vec![1; WORDS],
            last_ns: 0,
            taken: Instant::now(),
        };
        c.sample();
        c
    }

    /// Runs the loop once: a dependent random read-modify-write walk
    /// over the buffer (latency of the shared cache and memory), then a
    /// burst of allocate-fill-free (write bandwidth and the allocator
    /// paths every unit exercises). Returns its duration.
    pub fn sample(&mut self) -> u64 {
        let start = Instant::now();
        let mut i = 1usize;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            i = i
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                % WORDS;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc;
        }
        black_box(acc);
        for k in 0..BLOCKS {
            black_box(vec![k; BLOCK_WORDS]);
        }
        self.taken = Instant::now();
        self.last_ns = (self.taken - start).as_nanos() as u64;
        self.last_ns
    }

    /// The latest reading, refreshed first if it is older than
    /// [`MAX_AGE`].
    pub fn current(&mut self) -> u64 {
        if self.taken.elapsed() > MAX_AGE {
            self.sample();
        }
        self.last_ns
    }

    /// Runs `work` and returns its result with the calibration that
    /// applies to it: the reading before it, averaged with a fresh one
    /// after it when `work` outlasted a reading's shelf life.
    pub fn around<R>(&mut self, work: impl FnOnce() -> R) -> (R, u64) {
        let before = self.current();
        let out = work();
        if self.taken.elapsed() > MAX_AGE {
            (out, (before + self.sample()) / 2)
        } else {
            (out, before)
        }
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// Scales a measured duration onto the calibrated clock.
pub fn calibrated(measured: f64, cal_ns: u64) -> f64 {
    measured * CAL_REFERENCE_NS / cal_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_memory_shrinks_calibrated_time_and_reference_speed_keeps_it() {
        assert_eq!(calibrated(3.0, CAL_REFERENCE_NS as u64), 3.0);
        // The loop took twice the reference: the machine was running at
        // half speed, so the work would have taken half as long.
        assert_eq!(calibrated(3.0, 2 * CAL_REFERENCE_NS as u64), 1.5);
    }

    #[test]
    fn a_fresh_reading_is_reused_and_a_long_job_gets_a_second_one() {
        let mut c = Calibrator::new();
        let first = c.current();
        assert!(first > 0);
        let ((), short) = c.around(|| ());
        assert_eq!(short, first, "within the shelf life the reading is shared");
        let ((), long) = c.around(|| std::thread::sleep(MAX_AGE * 2));
        assert!(long > 0);
        assert!(
            c.taken.elapsed() < MAX_AGE,
            "a long job ends on a fresh sample"
        );
    }
}
