//! What the numbers were measured on: the host fingerprint written into
//! every result file, and the process's resident set size.

use crate::json::Json;
use std::process::Command;

/// 1-minute load average, or 0 where `/proc/loadavg` is missing.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One `kB` field of `/proc/self/status`, in MB. `None` where `/proc` is
/// missing.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The highest resident set size of this process over the measured
/// window, in MB.
///
/// The kernel keeps the true peak (`VmHWM`), but over the whole life of
/// the process, and graph generation before the window peaks at twice the
/// graph. Writing `5` to `/proc/self/clear_refs` resets that peak, so the
/// window gets its own. Where the reset is refused, the peak is the
/// highest `VmRSS` seen at the sampling points instead (every op boundary)
/// — lower and less steady, since it misses what is allocated and freed
/// inside a call, such as the second copy of a graph during an update.
#[derive(Debug)]
pub struct PeakRss {
    kernel_peak: bool,
    sampled: f64,
}

impl PeakRss {
    /// Starts a window.
    pub fn begin() -> Self {
        let mut peak = Self {
            kernel_peak: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
            sampled: 0.0,
        };
        peak.sample();
        peak
    }

    pub fn sample(&mut self) {
        if !self.kernel_peak {
            if let Some(mb) = status_mb("VmRSS:") {
                self.sampled = self.sampled.max(mb);
            }
        }
    }

    pub fn mb(&self) -> f64 {
        let kernel = self.kernel_peak.then(|| status_mb("VmHWM:")).flatten();
        kernel.unwrap_or(self.sampled)
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint of a set of runs. `load_start` was read before the
/// first run; a set is `noisy` when the host was already busier than its
/// core count then.
pub fn fingerprint(seed: u64, ops_scale: f64, load_start: f64) -> Json {
    let commit = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        ("commit", Json::str(commit)),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("load_1m_start", Json::Num(load_start)),
        ("load_1m_end", Json::Num(load_average())),
        ("noisy", Json::Bool(load_start > nproc() as f64)),
        ("ops_scale", Json::Num(ops_scale)),
        ("seed", Json::from(seed)),
    ])
}
