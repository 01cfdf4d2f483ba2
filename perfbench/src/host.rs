//! Host conditions read from `/proc`, recorded beside every run so host
//! drift can be told apart from a program change.
//!
//! On a host without `/proc` every reading is 0; the run itself is
//! unaffected.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` and `/proc/stat` (USER_HZ,
/// 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    /// Process user+system CPU time, seconds (all threads, reaped ones too).
    process_cpu_s: f64,
    /// Main thread on-CPU time and run-queue wait, seconds
    /// (`/proc/thread-self/schedstat`).
    main_oncpu_s: f64,
    main_runq_wait_s: f64,
    /// Machine-wide steal time, seconds summed over CPUs.
    steal_s: f64,
}

impl HostSample {
    /// Reads the counters now.
    pub fn now() -> Self {
        let (main_oncpu_s, main_runq_wait_s) = schedstat();
        Self {
            at: Instant::now(),
            process_cpu_s: process_cpu(),
            main_oncpu_s,
            main_runq_wait_s,
            steal_s: steal(),
        }
    }

    /// The conditions between `self` and `later`, as one JSON object.
    pub fn json_until(&self, later: &HostSample) -> String {
        format!(
            "{{\"wall_s\": {:.3}, \"process_cpu_s\": {:.2}, \"main_oncpu_s\": {:.3}, \
             \"main_runq_wait_s\": {:.4}, \"steal_s\": {:.2}, \"nproc\": {}}}",
            later.at.duration_since(self.at).as_secs_f64(),
            later.process_cpu_s - self.process_cpu_s,
            later.main_oncpu_s - self.main_oncpu_s,
            later.main_runq_wait_s - self.main_runq_wait_s,
            later.steal_s - self.steal_s,
            nproc()
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn schedstat() -> (f64, f64) {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0));
    let oncpu = fields.next().unwrap_or(0.0);
    let wait = fields.next().unwrap_or(0.0);
    (oncpu / 1e9, wait / 1e9)
}

fn process_cpu() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0))
        .collect();
    if fields.len() < 13 {
        return 0.0;
    }
    (fields[11] + fields[12]) / TICKS_PER_S
}

fn steal() -> f64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}
