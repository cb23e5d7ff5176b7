//! Process-level measurements read from the operating system: peak
//! resident memory and CPU time.

use std::time::Duration;

/// Peak resident set size (`VmHWM`) of `pid`, or of this process when
/// `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident size, so a
/// later [`peak_rss_mb`] covers only what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures through /proc and getrusage on 64-bit Linux");

mod rusage {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals then 14 longs.
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        rest: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    pub fn cpu_micros() -> u64 {
        let mut u = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            rest: [0; 14],
        };
        // SAFETY: `u` is a live, writable `struct rusage` with the
        // 64-bit Linux layout, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
        us(&u.ru_utime) + us(&u.ru_stime)
    }
}

/// User plus system CPU time of this process, all threads.
pub fn cpu_time() -> Duration {
    Duration::from_micros(rusage::cpu_micros())
}
