//! The view from outside the program: what `/proc` says about this process.
//! Every reader returns 0 where the file or field is missing (non-Linux,
//! restricted `/proc`), so a metric reads 0 instead of the run failing.

use std::time::Instant;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. It is
/// 100 on every Linux ABI, and std has no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

fn status_field(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_field(&s, field))
        .unwrap_or(0)
}

fn parse_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// OS threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// `(user, system)` CPU seconds of the whole process, exited threads included.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after ") ".
    let mut fields = stat
        .rsplit_once(") ")
        .map(|(_, rest)| rest.split_whitespace())
        .into_iter()
        .flatten()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / TICKS_PER_S);
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// Voluntary context switches summed over the threads alive right now (the
/// kernel keeps no process-wide total, and an exited thread's count is gone —
/// take deltas only across a window in which the threads of interest live).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

/// TCP segments sent, host-wide (`/proc/net/snmp` `Tcp: OutSegs`).
pub fn tcp_out_segs() -> u64 {
    let snmp = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// One reading of every outside counter, for deltas across a window.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub at: Instant,
    pub user_s: f64,
    pub sys_s: f64,
    pub vol_ctx: u64,
    pub tcp_out_segs: u64,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let (user_s, sys_s) = cpu_seconds();
        Snapshot {
            at: Instant::now(),
            user_s,
            sys_s,
            vol_ctx: voluntary_ctx_switches(),
            tcp_out_segs: tcp_out_segs(),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let text = "Name:\tx\nVmHWM:\t    1784 kB\nThreads:\t3\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(parse_field(text, "VmHWM"), Some(1784));
        assert_eq!(parse_field(text, "Threads"), Some(3));
        assert_eq!(parse_field(text, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(parse_field(text, "Missing"), None);
    }
}
