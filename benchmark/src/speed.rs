//! The machine's current speed, for scaling measured times to the reference
//! machine's.
//!
//! The reference machine is a virtual machine shared with other tenants, and
//! its speed changes by up to half over minutes: a fixed integer loop pinned
//! to either vCPU took 0.11 s and 0.165 s in two stretches a minute apart,
//! and both vCPUs slowed together. No length of run averages that away, so
//! the end-to-end timings are scaled to one fixed speed. A calibration kernel — a chase through a random cycle of 2¹⁶
//! indices (256 KiB, which stays in the private L2 cache), then an integer
//! hash loop — runs on the measuring thread between measured operations, at
//! most every [`REFRESH_S`] seconds, and each measured duration is
//! multiplied by [`REFERENCE_S`] over the kernel's latest time. A scaled
//! time is what the run would have measured had the machine run at the
//! reference speed; the scale factor is printed with every run. The kernel is
//! the benchmark's own code, so both sides of a comparison between commits
//! are scaled by the same rule.

use std::time::Instant;

/// The kernel's time, in seconds, on the reference machine (a 2-vCPU Intel
/// Xeon virtual machine at 2.0 GHz) in its faster stretches.
pub const REFERENCE_S: f64 = 2.5e-3;
/// The longest a scale factor is used before the kernel runs again.
pub const REFRESH_S: f64 = 0.1;

/// Indices in the calibration cycle.
const RING: usize = 1 << 16;
/// Chase steps and hash rounds per kernel run.
const STEPS: usize = 1 << 18;

/// Scales measured durations to the reference speed.
#[derive(Debug)]
pub struct Speed {
    ring: Vec<u32>,
    factor: f64,
    at: Instant,
    calibrations: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// Builds the calibration cycle (a fixed permutation) and runs the
    /// kernel once.
    pub fn new() -> Speed {
        let mut order: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut ring = vec![0u32; RING];
        for w in 0..RING {
            ring[order[w] as usize] = order[(w + 1) % RING];
        }
        let mut s = Speed { ring, factor: 1.0, at: Instant::now(), calibrations: Vec::new() };
        s.calibrate();
        s
    }

    /// A `Speed` that never calibrates and scales by 1, for passes whose
    /// raw time is wanted.
    pub fn off() -> Speed {
        Speed { ring: Vec::new(), factor: 1.0, at: Instant::now(), calibrations: Vec::new() }
    }

    /// The factor that scales a duration measured now to the reference
    /// speed, running the kernel first when its last run is older than
    /// [`REFRESH_S`]. Call it between measured operations, never inside
    /// one.
    pub fn factor(&mut self) -> f64 {
        if !self.ring.is_empty() && self.at.elapsed().as_secs_f64() > REFRESH_S {
            self.calibrate();
        }
        self.factor
    }

    /// Runs `op` and returns its result and its duration in seconds, raw
    /// and scaled by the mean of the factors before and after it (a long
    /// operation may span a change of speed).
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.factor();
        let t0 = Instant::now();
        let out = op();
        let raw = t0.elapsed().as_secs_f64();
        let scaled = raw * (before + self.factor()) / 2.0;
        (out, raw, scaled)
    }

    /// Every kernel time measured so far, in seconds.
    pub fn calibrations(&self) -> &[f64] {
        &self.calibrations
    }

    fn calibrate(&mut self) {
        let t = kernel(&self.ring);
        self.calibrations.push(t);
        self.factor = REFERENCE_S / t;
        self.at = Instant::now();
    }
}

/// One kernel run: a lap of the cycle that brings it back into the cache
/// after the measured work evicted it, then [`STEPS`] timed chase steps
/// and hash rounds. Seconds.
fn kernel(ring: &[u32]) -> f64 {
    let mut p = 0;
    for _ in 0..RING {
        p = ring[p as usize];
    }
    let t0 = Instant::now();
    for _ in 0..STEPS {
        p = ring[p as usize];
    }
    let mut h = u64::from(p);
    for i in 0..STEPS as u64 {
        h = (h ^ i).wrapping_mul(0x0100_0000_01B3).rotate_left(5);
    }
    std::hint::black_box(h);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_index_once() {
        let s = Speed::new();
        let (mut p, mut seen) = (0u32, vec![false; RING]);
        for _ in 0..RING {
            assert!(!seen[p as usize], "index {p} visited twice");
            seen[p as usize] = true;
            p = s.ring[p as usize];
        }
        assert_eq!(p, 0, "the chase returns to its start after one lap");
    }

    #[test]
    fn scaled_times_follow_the_factor() {
        let mut s = Speed::new();
        assert_eq!(s.calibrations().len(), 1);
        let ((), raw, scaled) = s.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(raw >= 0.005);
        // The factors in use were REFERENCE_S over some of the kernel times.
        let factors: Vec<f64> = s.calibrations().iter().map(|c| REFERENCE_S / c).collect();
        let (lo, hi) = factors.iter().fold((f64::MAX, 0.0f64), |(l, h), &f| (l.min(f), h.max(f)));
        assert!(lo > 0.0 && hi.is_finite());
        assert!(raw * lo <= scaled && scaled <= raw * hi, "{scaled} vs {raw} × [{lo}, {hi}]");
    }
}
