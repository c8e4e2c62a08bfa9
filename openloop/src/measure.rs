//! Process counters and order statistics.

use std::time::Duration;

/// Process CPU time (all threads, including exited ones), read from
/// `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user: Duration,
    pub sys: Duration,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks.
        let rest = &stat[stat.rfind(')').expect("stat format") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // Clock ticks; USER_HZ is 100 on every Linux ABI.
        let ticks = |i: usize| {
            Duration::from_millis(10 * fields[i].parse::<u64>().expect("stat tick field"))
        };
        Cpu {
            user: ticks(11),
            sys: ticks(12),
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    pub fn total(self) -> Duration {
        self.user + self.sys
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Quantile `q` of `sorted` (nearest rank); `sorted` must be ascending and
/// non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `v` ascending (total order; the inputs are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
