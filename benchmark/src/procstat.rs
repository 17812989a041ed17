//! What the kernel says about this process, read from `/proc/self`
//! (no `libc` crate exists in `vendor/`, so no `getrusage`).

use std::fs;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`.
/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux configuration this repo
/// targets; without `libc` it cannot be queried.
const CLK_TCK: f64 = 100.0;

/// CPU time and page faults of the whole process (all threads, joined
/// ones included) since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; zeros where `/proc` is absent.
    pub fn read() -> ProcStat {
        fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcStat::parse(&s))
            .unwrap_or_default()
    }

    /// Fields after the parenthesised command name (which may itself
    /// contain spaces and parentheses): state is the first, `minflt`
    /// the 8th, `utime` the 12th, `stime` the 13th.
    fn parse(stat: &str) -> Option<ProcStat> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        Some(ProcStat {
            minor_faults: f.get(7)?.parse().ok()?,
            user_s: f.get(11)?.parse::<f64>().ok()? / CLK_TCK,
            sys_s: f.get(12)?.parse::<f64>().ok()? / CLK_TCK,
        })
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// The resident-set high-water mark in MB (10^6 bytes); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    glap_profile::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_an_awkward_command_name() {
        let line =
            "4242 (a b) c) R 1 4242 4242 0 -1 4194304 1234 0 0 0 250 75 0 0 20 0 3 0 100 1 1";
        let p = ProcStat::parse(line).unwrap();
        assert_eq!(p.minor_faults, 1234);
        assert_eq!(p.user_s, 2.5);
        assert_eq!(p.sys_s, 0.75);
    }

    #[test]
    fn live_readout_is_monotone() {
        let a = ProcStat::read();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = ProcStat::read().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
