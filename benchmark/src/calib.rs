//! The reference kernel: a fixed amount of the benchmark's own integer work,
//! run at every round boundary and before every node step, whose duration
//! witnesses how fast the host is executing *right there*.
//!
//! Why: this host has a contention regime the guest cannot see (steal stays
//! 0). The kernel's samples are bimodal — 52.1 µs when the host is
//! undisturbed, about 95 µs when it is not — and the host flips between the
//! two within milliseconds, spending anything from 10 % to 80 % of a run in
//! the slow state; the stack's own arithmetic slows by the same factor. When
//! the slow state covers most of a run, no estimator that only looks at the
//! workload's own times can remove it: per-round minima over the timed units
//! of identical `sign-s256-n7` runs summed to anything from 3.03 s to 4.47 s,
//! and of `refresh-s256-n13` runs to 4.07 s … 4.61 s. Dividing every node
//! step by the slowdown its own two bracketing samples show, and taking per
//! round index the median over the timed units, brought the same runs to
//! 3.01 s … 3.08 s and 3.96 s … 4.06 s. Rounds of the refresh workload last
//! up to a second, far longer than the host holds still, which is why the
//! kernel runs before every node's step and not only at round boundaries.
//! The kernel is the benchmark's own code (multi-limb multiply-accumulate,
//! the instruction mix of the stack's big-integer arithmetic), so no change
//! to the repository can speed it up: a faster stack still shows as a smaller
//! number, a slower host no longer shows as a larger one. On an undisturbed
//! host the slowdown is 1 and the readings are the seconds that passed.

use std::time::Instant;

/// Kernel iterations per sample (~52 µs on the reference host; with one
/// sample per node step and two per round that is 0.7 % of a refresh round
/// at n=13 and 3 % of a signing round at n=7).
pub const ENGINE_ITERS: u32 = 5_000;

/// `iters` rounds of a 4×4-limb schoolbook multiply-accumulate with a
/// data-dependent feedback, so nothing can be hoisted or skipped.
#[inline(never)]
pub fn kernel(iters: u32, seed: u64) -> u64 {
    let mut a = [
        seed | 1,
        seed.rotate_left(17) | 1,
        seed.rotate_left(31) | 1,
        seed.rotate_left(47) | 1,
    ];
    let b = [
        0x9e37_79b9_7f4a_7c15_u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
    ];
    let mut acc = [0u64; 8];
    for _ in 0..iters {
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = u128::from(acc[i + j]) + u128::from(a[i]) * u128::from(b[j]) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
            acc[i + 4] = acc[i + 4].wrapping_add(carry as u64);
        }
        a[0] ^= acc[3];
        a[1] ^= acc[5];
        a[2] = a[2].wrapping_add(acc[1]);
        a[3] ^= acc[7];
    }
    acc.iter().fold(0, |x, y| x ^ y)
}

/// Runs the kernel and times it.
#[derive(Debug, Clone)]
pub struct Reference {
    iters: u32,
    state: u64,
}

impl Reference {
    /// A reference of `iters` kernel iterations per sample.
    pub fn new(iters: u32) -> Self {
        Reference { iters, state: 1 }
    }

    /// One sample: the kernel's duration in ns, and the instant it ended.
    pub fn sample(&mut self) -> (u64, Instant) {
        let start = Instant::now();
        // The kernel is a pure function: without the two `black_box`es the
        // compiler may compute it before the first reading or after the
        // second (it did, in one build profile).
        let input = std::hint::black_box((self.iters, self.state));
        self.state ^= std::hint::black_box(kernel(input.0, input.1));
        let end = Instant::now();
        ((end - start).as_nanos() as u64, end)
    }
}

/// Relative width of the window [`floor_ns`] slides over the samples.
const MODE_WIDTH: f64 = 1.01;

/// The host's undisturbed speed as a run witnessed it: the middle of the
/// densest 1 %-wide cluster of its kernel samples.
///
/// Undisturbed samples sit within ± 0.3 % of one value (52.1 µs on the
/// reference host, the same to 0.07 % over 39 runs), disturbed ones spread
/// from 1.2× to 2× of it, so the densest cluster is the undisturbed one
/// even in a run that spent three quarters of its time disturbed. The
/// fastest sample is no floor: now and then the host has a state 3.5 %
/// faster still, which some runs catch for a few samples (or for 6 % of
/// them) and others not at all, so a minimum or a low percentile moves by
/// that much from run to run.
///
/// # Panics
///
/// Panics when there are no samples.
pub fn floor_ns(mut samples: Vec<u64>) -> f64 {
    assert!(!samples.is_empty(), "floor of no kernel samples");
    samples.sort_unstable();
    let (mut densest, mut lo) = (0..1, 0);
    for hi in 0..samples.len() {
        while samples[hi] as f64 > samples[lo] as f64 * MODE_WIDTH {
            lo += 1;
        }
        if hi + 1 - lo > densest.len() {
            densest = lo..hi + 1;
        }
    }
    samples[densest.start + densest.len() / 2] as f64
}

/// The host's level between two adjacent kernel samples: their mean — or,
/// when one is more than twice the other, the smaller: the disturbed state
/// is 1.8× the floor, so that sample was interrupted, not disturbed.
pub fn level_ns(a: u64, b: u64) -> f64 {
    let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
    if hi > 2.0 * lo {
        lo
    } else {
        (lo + hi) / 2.0
    }
}

/// Slowdown factor of an interval bracketed by samples `a` and `b`, against
/// the floor.
pub fn slowdown(a: u64, b: u64, floor_ns: f64) -> f64 {
    (level_ns(a, b) / floor_ns.max(1.0)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scales_with_work() {
        assert_eq!(kernel(1_000, 7), kernel(1_000, 7));
        assert_ne!(kernel(1_000, 7), kernel(1_001, 7));
        let time = |iters| {
            (0..5)
                .map(|_| Reference::new(iters).sample().0)
                .min()
                .unwrap()
        };
        let (small, large) = (time(20_000), time(200_000));
        assert!(
            large > small * 5,
            "10x the work took {large} ns vs {small} ns"
        );
    }

    #[test]
    fn slowdown_is_relative_to_the_floor_and_ignores_interruptions() {
        assert_eq!(slowdown(100, 100, 100.0), 1.0);
        assert_eq!(slowdown(100, 150, 100.0), 1.25);
        assert_eq!(slowdown(150, 200, 100.0), 1.75);
        // A tenfold sample next to an ordinary one was an interruption.
        assert_eq!(slowdown(120, 1_200, 100.0), 1.2);
        // Never below 1: the floor is the best the host can do.
        assert_eq!(slowdown(90, 95, 100.0), 1.0);
    }

    #[test]
    fn floor_is_the_densest_cluster_not_the_fastest_sample() {
        // 6 % in a faster state, 34 % at the undisturbed level, 60 %
        // disturbed and spread out.
        let mut samples: Vec<u64> = (0..60).map(|i| 50_200 + i).collect();
        samples.extend((0..340).map(|i| 52_000 + i % 200));
        samples.extend((0..600).map(|i| 70_000 + 50 * i));
        let floor = floor_ns(samples);
        assert!((52_000.0..52_200.0).contains(&floor), "{floor}");
        assert_eq!(floor_ns(vec![7]), 7.0);
    }
}
