//! The machine layer: a reference kernel that measures how fast the machine
//! runs right now, and `/proc` readers for CPU time, steal and memory.
//!
//! The reference kernel never calls the program. Two threads, one per
//! vCPU of the machine the benchmark was written on, each replay dense
//! forward and back substitutions with a 192×192 matrix of their own
//! (L2-resident floating point, the kind of work the warm solves do). It
//! runs between chunks of load while the system under test is idle, and
//! the median of a run's samples calibrates the run's timings with
//! [`crate::stats::calibrate_latency`] and
//! [`crate::stats::calibrate_throughput`].

use std::hint::black_box;
use std::time::Instant;

/// Reference time (ms) on the machine the workload sizes were fixed on
/// (2 vCPU, see `perfbench/README.md`). A unit only: calibrated figures
/// read as "on a machine whose reference takes this long".
pub const NOMINAL_REF_MS: f64 = 2.5;

/// Order of each thread's matrix.
const REF_N: usize = 192;

/// Substitution pairs per thread per pass.
const REF_SOLVES: usize = 48;

/// Timed passes per reference sample; the sample is their median.
const REF_PASSES: usize = 5;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// Whose CPU time counts as the system under test.
#[derive(Debug, Clone, Copy)]
pub enum Sut {
    /// Every thread of this process except the calling one. The kernel's
    /// own helper thread has exited before CPU time is read again, so it
    /// is not counted.
    InProcess,
    /// Every thread of another process.
    Process(u32),
}

impl Sut {
    /// On-CPU nanoseconds of the system under test so far, from each
    /// thread's `schedstat`.
    pub fn cpu_ns(self) -> u64 {
        let (dir, skip) = match self {
            Sut::InProcess => ("/proc/self/task".to_string(), own_tid()),
            Sut::Process(pid) => (format!("/proc/{pid}/task"), None),
        };
        let Ok(tasks) = std::fs::read_dir(&dir) else {
            return 0;
        };
        tasks
            .flatten()
            .filter(|task| skip.as_deref() != task.file_name().to_str())
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|text| text.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }
}

fn own_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

/// One reference measurement.
#[derive(Debug, Clone, Copy)]
pub struct RefSample {
    /// Median pass time, ms.
    pub ms: f64,
    /// Wall time of the whole sample, ns.
    pub wall_ns: u64,
    /// CPU the system under test used meanwhile, ns (should be ~0).
    pub sut_cpu_ns: u64,
}

/// The reference kernel, its matrices and every sample taken.
pub struct Reference {
    /// One matrix per kernel thread.
    matrices: Vec<Vec<f64>>,
    samples: Vec<RefSample>,
}

/// `REF_SOLVES` forward and back substitutions with the triangles of `m`.
fn substitutions(m: &[f64]) -> f64 {
    let mut x = vec![1.0f64; REF_N];
    let mut acc = 0.0;
    for _ in 0..REF_SOLVES {
        for col in 0..REF_N {
            let v = x[col];
            for r in (col + 1)..REF_N {
                x[r] -= m[r * REF_N + col] * v;
            }
        }
        for col in (0..REF_N).rev() {
            let mut v = x[col];
            for j in (col + 1)..REF_N {
                v -= m[col * REF_N + j] * x[j];
            }
            x[col] = v;
        }
        acc += x[REF_N / 2];
    }
    acc
}

impl Reference {
    /// A kernel on `threads` threads, as many as the system under test
    /// keeps busy: the two vCPUs of the machine the benchmark was written
    /// on are at times two cores and at times one, which a one-thread
    /// kernel cannot see. Small off-diagonal entries keep the substitutions
    /// bounded.
    pub fn new(threads: usize) -> Self {
        let matrix = |salt: usize| -> Vec<f64> {
            (0..REF_N * REF_N)
                .map(|i| ((i * 7 + salt) % 101) as f64 * 1e-7)
                .collect()
        };
        Reference {
            matrices: (1..=threads.max(1)).map(matrix).collect(),
            samples: Vec::new(),
        }
    }

    /// One pass: every thread's substitutions, wall time in ms.
    fn pass(&self) -> f64 {
        let started = Instant::now();
        let (own, helpers) = self.matrices.split_first().expect("at least one thread");
        std::thread::scope(|s| {
            let helpers: Vec<_> = helpers
                .iter()
                .map(|m| s.spawn(move || substitutions(black_box(m))))
                .collect();
            black_box(substitutions(black_box(own)));
            for helper in helpers {
                black_box(helper.join().expect("the reference helper thread"));
            }
        });
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Times [`REF_PASSES`] passes while `sut` should be idle, records the
    /// sample and returns its median pass time in ms.
    pub fn sample(&mut self, sut: Sut) -> f64 {
        let cpu_before = sut.cpu_ns();
        let start = Instant::now();
        let mut passes: Vec<f64> = (0..REF_PASSES).map(|_| self.pass()).collect();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let sut_cpu_ns = sut.cpu_ns().saturating_sub(cpu_before);
        passes.sort_by(f64::total_cmp);
        let ms = passes[REF_PASSES / 2];
        self.samples.push(RefSample {
            ms,
            wall_ns,
            sut_cpu_ns,
        });
        ms
    }

    /// The run's reference time: the median of every sample, ms.
    pub fn ref_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        crate::stats::median(&ms).unwrap_or(NOMINAL_REF_MS)
    }

    /// Share of the reference windows' wall time the system under test was
    /// on a CPU, in percent.
    pub fn sut_cpu_in_ref_pct(&self) -> f64 {
        let wall: u64 = self.samples.iter().map(|s| s.wall_ns).sum();
        let cpu: u64 = self.samples.iter().map(|s| s.sut_cpu_ns).sum();
        if wall == 0 {
            0.0
        } else {
            100.0 * cpu as f64 / wall as f64
        }
    }
}

/// Cumulative `(total, steal)` ticks of all CPUs, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Steal time between two [`cpu_ticks`] readings, in percent of all ticks.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        0.0
    } else {
        100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
    }
}

fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// High-water resident set size in KiB (`VmHWM`); `None` = this process.
pub fn vm_hwm_kib(pid: Option<u32>) -> u64 {
    status_field(pid, "VmHWM:").unwrap_or(0)
}

/// Current resident set size in KiB (`VmRSS`); `None` = this process.
pub fn vm_rss_kib(pid: Option<u32>) -> u64 {
    status_field(pid, "VmRSS:").unwrap_or(0)
}

/// Resident memory of this process at the first call, KiB: the program's
/// base, before the benchmark allocates anything of its own.
fn start_rss_kib() -> u64 {
    static START: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *START.get_or_init(|| vm_rss_kib(None))
}

/// Records the process's starting resident memory; call first thing.
pub fn mark_start() {
    start_rss_kib();
}

/// What the benchmark's own buffers (inputs, answer checks, the reference
/// kernel) added to resident memory since [`mark_start`], KiB. Call just
/// before the system under test is set up.
pub fn own_buffers_kib() -> u64 {
    vm_rss_kib(None).saturating_sub(start_rss_kib())
}

/// Peak resident memory of an in-process system under test, MiB: this
/// process's high-water mark less the benchmark's own buffers, so the
/// figure is comparable with a daemon's `VmHWM`.
pub fn peak_rss_mib(own_buffers_kib: u64) -> f64 {
    vm_hwm_kib(None).saturating_sub(own_buffers_kib) as f64 / 1024.0
}

/// Thread count of a process.
pub fn threads(pid: u32) -> u64 {
    status_field(Some(pid), "Threads:").unwrap_or(0)
}

/// User plus system CPU time of a whole process (all threads, live or
/// exited), in ms, from `/proc/<pid>/stat`.
pub fn process_cpu_ms(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    ticks as f64 * 1e3 / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_tick_deltas() {
        assert_eq!(steal_pct((100, 5), (300, 15)), 5.0);
        assert_eq!(steal_pct((100, 5), (100, 5)), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(vm_rss_kib(None) > 0);
        assert!(vm_hwm_kib(None) >= vm_rss_kib(None));
        assert!(threads(std::process::id()) >= 1);
        assert!(cpu_ticks().0 > 0);
    }
}
