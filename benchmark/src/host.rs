//! What the benchmark reads from the host: process CPU time, peak RSS, core
//! count. Linux only (the repo's daemon mode already is: `poll(2)`, Unix
//! sockets).

/// Process CPU time so far, user and system, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// User-mode time, ns.
    pub user_ns: u64,
    /// Kernel-mode time, ns.
    pub sys_ns: u64,
}

impl CpuTime {
    /// User + system.
    pub fn total_ns(self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// `self − earlier`, field-wise.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time of the whole process (all threads) via `getrusage(RUSAGE_SELF)`.
/// The sum is exact (the kernel scales it to the scheduler's run time); the
/// user/system split is the kernel's tick-based estimate.
pub fn process_cpu() -> CpuTime {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (64-bit Linux layout above), and
    // RUSAGE_SELF (0) is a valid `who`; the call writes only inside `ru`.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return CpuTime::default();
    }
    let ns = |tv: [i64; 2]| (tv[0].max(0) as u64) * 1_000_000_000 + (tv[1].max(0) as u64) * 1_000;
    CpuTime {
        user_ns: ns(ru.utime),
        sys_ns: ns(ru.stime),
    }
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let used = process_cpu().since(before);
        assert!(used.total_ns() > 0, "a busy loop must consume CPU time");
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }
}
