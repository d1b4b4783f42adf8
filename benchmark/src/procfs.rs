//! CPU time and peak memory of a process, read from `/proc`.

use std::time::Duration;

/// Kernel clock ticks per second: `utime`/`stime` in `/proc/<pid>/stat`
/// are counted in these. Linux has reported 100 to user space on every
/// architecture since 2.6, whatever `CONFIG_HZ` is.
const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SECOND,
    ))
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// CPU time consumed so far by every thread of `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_cpu(&stat)
        .map(|d| d.as_secs_f64() * 1e3)
        .ok_or_else(|| format!("{path}: unparsable"))
}

/// Peak resident set of `pid` in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status_hwm_kib(&status)
        .map(|kib| kib as f64 * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        let stat = "4242 (pxf (bench) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    250 50 7 3 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_millis(3000)));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_is_found_among_other_lines() {
        let status =
            "Name:\tpxfbench\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(123_456));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        cpu_ms(pid).unwrap();
    }
}
