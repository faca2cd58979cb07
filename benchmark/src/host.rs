//! Host probes: resident-set readings from `/proc`, cache sizes from `/sys`,
//! and the in-run FMA and stream-triad measurements the rooflines use.

use ffw_obs::Stopwatch;
use std::hint::black_box;

/// Compute threads of every workload and roofline probe. One, although the
/// reference host has two vCPUs: they behave like siblings of one core (two
/// busy threads finish 25% later than one on the median, with four times its
/// run-to-run spread), so anything timed on both measures where the host
/// placed them, not the program.
pub const THREADS: usize = 1;

/// Triad arrays: three of 96 MiB each, 288 MiB in total.
const TRIAD_ELEMS: usize = 96 * 1024 * 1024 / 8;
/// Passes per probe; the best one is the peak.
const PROBE_PASSES: usize = 5;

/// Reads a `kB` field such as `VmHWM` from `/proc/<pid>/status` text and
/// returns it in MB (1 MB = 1024 kB, as `ps` and `top` report it).
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut parts = line[field.len() + 1..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb / 1024.0)
}

fn self_status_mb(field: &str) -> Option<f64> {
    parse_status_mb(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    self_status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`) in MB.
pub fn current_rss_mb() -> Option<f64> {
    self_status_mb("VmRSS")
}

/// One data or unified cache of cpu0 as `/sys` describes it.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheLevel {
    pub level: u32,
    pub size_kib: u64,
    /// CPUs sharing it, e.g. `0` or `0-1`.
    pub shared_with: String,
}

/// Parses sizes like `2048K` or `260M` into KiB.
pub fn parse_cache_size_kib(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1),
        'M' => (&t[..t.len() - 1], 1024),
        'G' => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Data and unified caches of cpu0, lowest level first. Empty when `/sys`
/// does not expose them.
pub fn cache_levels() -> Vec<CacheLevel> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |idx: usize, file: &str| {
        std::fs::read_to_string(format!("{base}/index{idx}/{file}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut out: Vec<CacheLevel> = (0..8)
        .filter_map(|idx| {
            if read(idx, "type")? == "Instruction" {
                return None;
            }
            Some(CacheLevel {
                level: read(idx, "level")?.parse().ok()?,
                size_kib: parse_cache_size_kib(&read(idx, "size")?)?,
                shared_with: read(idx, "shared_cpu_list").unwrap_or_default(),
            })
        })
        .collect();
    out.sort_by_key(|c| c.level);
    out
}

/// Spins `threads` threads until they run as fast side by side as one runs
/// alone, or three seconds pass. After an idle spell this VM runs the first
/// second or two of a process on one core only; without the spin that spell
/// lands in the first multi-threaded probe.
pub fn wake_cores(threads: usize) {
    const ITERS: u64 = 4_000_000;
    let pass = |n: usize| {
        let sw = Stopwatch::start();
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| black_box(fma_body::<8>(black_box(ITERS), 0.999_999, 1e-6)));
            }
        });
        sw.elapsed_secs()
    };
    let sw = Stopwatch::start();
    let mut awake = 0;
    while awake < 3 && sw.elapsed_secs() < 3.0 {
        let alone = pass(1);
        awake = if pass(threads) < 1.25 * alone {
            awake + 1
        } else {
            0
        };
    }
    println!(
        "woke {threads} cores in {:.2} s{}",
        sw.elapsed_secs(),
        if awake < 3 {
            " (gave up: threads still share a core)"
        } else {
            ""
        }
    );
}

/// What the host probe measured.
#[derive(Clone, Debug)]
pub struct HostProbe {
    pub nproc: usize,
    /// Best-of-passes FMA rate over [`THREADS`] threads.
    pub peak_gflops: f64,
    /// Which FMA kernel ran (`avx512f`, `avx2+fma` or `scalar`).
    pub fma_kernel: &'static str,
    /// Best-of-passes triad bandwidth over [`THREADS`] threads; bytes are
    /// computed from array sizes (3 x 8 B per element, no write-allocate).
    pub stream_gbs: f64,
    /// Human-readable line naming array and cache sizes.
    pub sizes: String,
}

/// `acc[i] = acc[i] * x + y` over `N` independent accumulators, `iters`
/// times: `2 * N * iters` flops with no memory traffic.
#[inline(always)]
fn fma_body<const N: usize>(iters: u64, x: f64, y: f64) -> f64 {
    let mut acc = [0.5f64; N];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: u64, x: f64, y: f64) -> f64 {
    // 12 zmm accumulators: enough independent chains for two FMA ports.
    fma_body::<96>(iters, x, y)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: u64, x: f64, y: f64) -> f64 {
    fma_body::<48>(iters, x, y)
}

/// `(iterations, x, y) -> checksum` of one FMA kernel.
type FmaKernel = fn(u64, f64, f64) -> f64;

/// Picks the widest FMA kernel the CPU supports: `(name, lanes, kernel)`.
fn fma_kernel() -> (&'static str, usize, FmaKernel) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the runtime check above proves avx512f is available.
            return ("avx512f", 96, |i, x, y| unsafe { fma_avx512(i, x, y) });
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the runtime checks above prove avx2 and fma are available.
            return ("avx2+fma", 48, |i, x, y| unsafe { fma_avx2(i, x, y) });
        }
    }
    ("scalar", 8, |i, x, y| fma_body::<8>(i, x, y))
}

fn probe_fma() -> (f64, &'static str) {
    let (name, lanes, kernel) = fma_kernel();
    // Without hardware FMA `mul_add` is a libm call: keep that pass short.
    let iters: u64 = if name == "scalar" {
        2_000_000
    } else {
        20_000_000
    };
    let mut best = 0.0f64;
    for _ in 0..PROBE_PASSES {
        let sw = Stopwatch::start();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| black_box(kernel(black_box(iters), black_box(0.999_999), 1e-6)));
            }
        });
        let flops = 2.0 * lanes as f64 * iters as f64 * THREADS as f64;
        best = best.max(flops / sw.elapsed_secs() * 1e-9);
    }
    (best, name)
}

fn probe_triad() -> f64 {
    let mut a = vec![0.0f64; TRIAD_ELEMS];
    let b = vec![1.0f64; TRIAD_ELEMS];
    let c = vec![2.0f64; TRIAD_ELEMS];
    let chunk = TRIAD_ELEMS.div_ceil(THREADS);
    let mut best = 0.0f64;
    for pass in 0..PROBE_PASSES {
        let scale = 1.0 + pass as f64;
        let sw = Stopwatch::start();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + scale * *c;
                    }
                });
            }
        });
        let bytes = 3.0 * 8.0 * TRIAD_ELEMS as f64;
        best = best.max(bytes / sw.elapsed_secs() * 1e-9);
        black_box(&a);
    }
    best
}

/// Runs both probes on [`THREADS`] threads.
pub fn probe() -> HostProbe {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (peak_gflops, fma_kernel) = probe_fma();
    let stream_gbs = probe_triad();
    let array_mib = TRIAD_ELEMS * 8 / (1024 * 1024);
    let caches = cache_levels();
    let mut sizes = format!(
        "triad arrays 3 x {array_mib} MiB = {} MiB, {THREADS} thread(s); caches:",
        3 * array_mib
    );
    if caches.is_empty() {
        sizes.push_str(" unknown");
    }
    for c in &caches {
        let verdict = if (array_mib as u64) * 1024 >= 4 * c.size_kib {
            "each array >= 4x"
        } else if (3 * array_mib as u64) * 1024 > c.size_kib {
            "only the three arrays together exceed it"
        } else {
            "NOT exceeded"
        };
        sizes.push_str(&format!(
            " L{} {} KiB (cpus {}; {verdict})",
            c.level, c.size_kib, c.shared_with
        ));
    }
    HostProbe {
        nproc,
        peak_gflops,
        fma_kernel,
        stream_gbs,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tffw-ladder\nVmPeak:\t  700000 kB\nVmHWM:\t  619520 kB\n\
                          VmRSS:\t  204800 kB\nThreads:\t3\n";

    #[test]
    fn vmhwm_is_parsed_in_mb() {
        assert_eq!(parse_status_mb(STATUS, "VmHWM"), Some(605.0));
        assert_eq!(parse_status_mb(STATUS, "VmRSS"), Some(200.0));
    }

    #[test]
    fn missing_or_malformed_fields_are_none() {
        assert_eq!(parse_status_mb(STATUS, "VmSwap"), None);
        // a longer field name with the same prefix must not match
        assert_eq!(parse_status_mb("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("VmHWM:\t12 MB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("", "VmHWM"), None);
    }

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_cache_size_kib("2048K\n"), Some(2048));
        assert_eq!(parse_cache_size_kib("260M"), Some(266_240));
        assert_eq!(parse_cache_size_kib("512"), Some(512));
        assert_eq!(parse_cache_size_kib("big"), None);
    }

    #[test]
    fn fma_body_converges_to_the_fixed_point() {
        // acc -> y / (1 - x) per lane
        let got = fma_body::<4>(10_000, 0.5, 1.0);
        assert!((got - 8.0).abs() < 1e-9, "{got}");
    }
}
