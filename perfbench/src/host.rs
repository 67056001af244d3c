//! The host: a fingerprint for every document, process accounting
//! (CPU time, peak RSS), thread pinning and the two roofline probes.

use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache in bytes (highest `level` under cpu0's
/// cache directory); 0 when sysfs does not say.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1u64 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1u64 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        let bytes = digits.parse::<u64>().unwrap_or(0) * mult;
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

fn mem_available_bytes() -> u64 {
    read("/proc/meminfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// What this run ran on. `seed`/`seconds` are the run's own arguments.
pub fn fingerprint(seed: u64, seconds: f64) -> Value {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cgroup_cpu_max = read("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into());
    // Ask git only where the working directory is itself a repository: in
    // an exported checkout git would go looking through the parents.
    let git_commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    json!({
        "cpu_model": cpu_model,
        "nproc": nproc(),
        "cgroup_cpu_max": cgroup_cpu_max,
        "llc_bytes": llc_bytes(),
        "simd_backend": awp_solver::simd::detect().name(),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        "git_commit": git_commit,
        "seed": seed,
        "seconds": seconds
    })
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has consumed on all its
/// threads, including threads that have already exited — which
/// `/proc/self/task` cannot give, and rank threads live for one run only.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this crate builds for) and the
    // clock id is a constant the kernel defines; the call writes `ts` only.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `cpu_set_t`: 1024 bits, as glibc lays it out.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// Keeps the calling thread, and every thread spawned from it while this
/// lives, on the CPU it was running on; dropping it restores the previous
/// affinity of the calling thread.
pub struct Pin {
    previous: CpuSet,
}

impl Pin {
    /// `None` where the kernel refuses (the run goes on unpinned).
    pub fn to_current_cpu() -> Option<Pin> {
        let mut previous: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; both masks are valid for the
        // `size_of::<CpuSet>()` bytes passed, and the calls touch nothing else.
        unsafe {
            let cpu = usize::try_from(sched_getcpu()).ok().filter(|c| *c < 1024)?;
            if sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) != 0 {
                return None;
            }
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            (sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0)
                .then_some(Pin { previous })
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // SAFETY: as above; `previous` is the mask the kernel handed out.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous);
        }
    }
}

/// Most memory the triad probe may touch. First-touching a gigabyte costs
/// seconds on a virtualised host, and the probe runs inside a timed run.
const TRIAD_MAX_BYTES: u64 = 1 << 30;

/// STREAM-triad bandwidth, GB/s, on arrays of `4 × LLC` bytes each.
/// Returns `(gbs, bytes per array)`, or `None` when three such arrays
/// exceed [`TRIAD_MAX_BYTES`] or a quarter of the available memory — then
/// the caller must leave `solver.roofline_frac` out rather than divide by
/// a bandwidth measured on arrays the cache can hold.
pub fn triad_gbs() -> Option<(f64, u64)> {
    let llc = llc_bytes();
    if llc == 0 {
        return None;
    }
    let array_bytes = 4 * llc;
    if 3 * array_bytes > TRIAD_MAX_BYTES.min(mem_available_bytes() / 4) {
        return None;
    }
    let n = (array_bytes / 4) as usize;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut best = f64::INFINITY;
    // Pass 0 faults the pages of `a` in; only later passes are timed.
    for pass in 0..3 {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    // Two reads and one write per element (write-allocate traffic is not
    // counted, as in STREAM).
    Some((3.0 * array_bytes as f64 / best / 1e9, array_bytes))
}

/// Peak single-thread f32 multiply-add rate, GFLOP/s, with the widest
/// vector unit the solver's own SIMD backend dispatches to.
pub fn fma_gflops() -> f64 {
    const ITERS: u64 = 400_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let t0 = Instant::now();
        // SAFETY: the two feature checks above are exactly the features
        // the callee is compiled for.
        let sink = unsafe { fma_avx2(ITERS / 8) };
        black_box(sink);
        // 10 accumulators × 8 lanes × 2 flop per fused multiply-add.
        return (ITERS / 8 * 10 * 8 * 2) as f64 / t0.elapsed().as_secs_f64() / 1e9;
    }
    let t0 = Instant::now();
    let mut acc = [1.0f32; 8];
    for _ in 0..ITERS / 8 {
        for x in &mut acc {
            *x = *x * 0.999_999 + 1e-7;
        }
    }
    black_box(acc);
    (ITERS / 8 * 8 * 2) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_ps(0.999_999);
    let c = _mm256_set1_ps(1e-7);
    // Ten independent chains: two FMA ports × four-to-five cycles latency.
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, m, c);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    _mm_cvtss_f32(_mm256_castps256_ps128(sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_something() {
        let c0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = black_box(x.wrapping_add(i));
        }
        black_box(x);
        assert!(process_cpu_s() > c0, "CPU clock must advance");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pin_narrows_to_one_cpu_and_restores() {
        let allowed = || {
            let mut m: CpuSet = [0; 16];
            // SAFETY: a valid mask of the size passed, for the calling thread.
            assert_eq!(unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut m) }, 0);
            m.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let before = allowed();
        let pin = Pin::to_current_cpu().expect("a thread may narrow its own affinity");
        assert_eq!(allowed(), 1);
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1, "spawned threads inherit");
        drop(pin);
        assert_eq!(allowed(), before);
        assert!(nproc() >= 1);
    }
}
