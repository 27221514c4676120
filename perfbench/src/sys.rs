//! Host facts and `/proc` readers: CPU time per process and per thread,
//! peak resident memory, and the host record printed with every result.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on
/// every architecture the kernel ships.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` of one `/proc/.../stat` line, in milliseconds, and the
/// command name between the parentheses.
fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) * 1000.0 / TICKS_PER_SEC))
}

/// CPU time the whole process has used so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, ms)| ms)
}

/// CPU time of every live thread of this process, as `(tid, name, ms)`.
/// Taken from the scheduler's nanosecond count (`schedstat`) where the
/// kernel keeps one, else from the 10 ms ticks of `stat`.
fn thread_cpu_ms() -> Vec<(u32, String, f64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Some((name, ticks_ms)) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        let ms = fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(ticks_ms, |ns| ns / 1e6);
        out.push((tid, name, ms));
    }
    out
}

/// CPU time of this process's live threads together, in milliseconds.
/// Unlike [`process_cpu_ms`] it leaves out threads that have exited, and
/// it resolves nanoseconds where the kernel keeps `schedstat`.
pub fn live_threads_cpu_ms() -> f64 {
    thread_cpu_ms().iter().map(|&(_, _, ms)| ms).sum()
}

/// CPU time of the threads named `name`, in milliseconds (0 when
/// absent). The kernel keeps the first 15 bytes of a thread name.
pub fn named_thread_cpu_ms(name: &str) -> f64 {
    let kept = &name[..name.len().min(15)];
    thread_cpu_ms()
        .into_iter()
        .filter(|(_, n, _)| n == kept)
        .fold(0.0, |sum, (_, _, ms)| sum + ms)
}

/// CPU time of the process's main thread, in milliseconds.
pub fn main_thread_cpu_ms() -> f64 {
    let pid = std::process::id();
    thread_cpu_ms()
        .into_iter()
        .find(|(tid, _, _)| *tid == pid)
        .map_or(0.0, |(_, _, ms)| ms)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// RSS, so the next [`peak_rss_mib`] covers only what runs after it.
/// Returns `false` where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

/// The compiler that built this binary (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_handles_spaces_in_the_command_name() {
        let line = "4242 (ff reactor) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        let (comm, ms) = parse_stat(line).expect("well-formed stat line");
        assert_eq!(comm, "ff reactor");
        assert_eq!(ms, 3000.0);
    }

    #[test]
    fn this_process_is_visible() {
        assert!(peak_rss_mib() > 0.0);
        let grown = vec![1u8; 64 << 20];
        std::hint::black_box(&grown);
        let peak = peak_rss_mib();
        drop(grown);
        if reset_peak_rss() {
            assert!(
                peak_rss_mib() < peak,
                "the reset lowers the high-water mark"
            );
        }
        assert!(thread_cpu_ms()
            .iter()
            .any(|(tid, _, _)| *tid == std::process::id()));
    }
}
