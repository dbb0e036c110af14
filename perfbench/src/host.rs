//! Process accounting and host context: a nanosecond process CPU clock,
//! the peak resident set, the CPU count and model, the source revision, and
//! a fixed calibration loop that shows whether the host ran slow.

use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process accounting (clock_gettime, /proc)");

/// `struct timespec` on 64-bit Linux: two `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // 64-bit Linux defines (checked by the `compile_error!` gate above), and
    // `clock_gettime` writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Reads one `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").expect("/proc/self/status has VmHWM")
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or `unavailable` outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// Steps of the calibration loop.
const CALIBRATION_STEPS: u64 = 20_000_000;

/// Runs a fixed single-thread integer loop and returns its rate in million
/// steps per second. Context only: it shows whether a run was taken during
/// a slow phase of the host, and no result is ever scaled by it.
pub fn calibration_mops() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    CALIBRATION_STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Slots of the memory probe's buffer: 8 MiB of `u32`, more than a core's
/// L2 cache, so its loads go to the shared last-level cache or to memory.
const PROBE_SLOTS: u32 = 1 << 21;

/// Dependent loads the memory probe times.
const PROBE_LOADS: u32 = 4_000_000;

/// Chases a fixed pseudo-random cycle through [`PROBE_SLOTS`] slots and
/// returns the rate of its dependent loads, in millions per second. Context
/// only, like [`calibration_mops`]: that loop runs from registers, so it does
/// not slow down when other tenants load the shared cache and memory, which
/// the workloads do feel.
pub fn memory_mloads() -> f64 {
    // Sattolo's shuffle: a single cycle through every slot.
    let mut next: Vec<u32> = (0..PROBE_SLOTS).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..PROBE_SLOTS as usize).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..PROBE_LOADS {
        at = next[at as usize];
    }
    black_box(at);
    f64::from(PROBE_LOADS) / start.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        assert!(calibration_mops() > 0.0);
        assert!(memory_mloads() > 0.0);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
