//! Process and host facts read from Linux `/proc`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 in the Linux ABI on every architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .expect("utime/stime in /proc/self/stat") as f64
    };
    // utime and stime are fields 14 and 15.
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// The CPU model name, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
