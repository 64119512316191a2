//! Small measurement helpers: percentiles, the point fingerprint, and the
//! `/proc` readers behind the CPU and memory metrics.

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a sample in place and return it, for [`percentile`].
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Order-sensitive bit fold of one served point: the same construction as
/// the serving bench's `suggest_fingerprint`, so equal point streams give
/// equal fingerprints.
pub fn fold_point(acc: u64, point: &[f64]) -> u64 {
    let mut h = rockpool::split_seed(acc, point.len() as u64);
    for x in point {
        h = rockpool::split_seed(h, x.to_bits());
    }
    h
}

/// Linux reports `/proc` CPU times in units of USER_HZ, fixed at 100.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime, in seconds, from a `/proc/.../stat` line.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name may hold spaces; the fields after it are fixed.
    let Some(tail) = text.rsplit_once(')').map(|(_, t)| t) else {
        return 0.0;
    };
    let fields: Vec<&str> = tail.split_whitespace().collect();
    // After the name: state is field 3, utime 14 and stime 15 (1-based).
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SEC
}

/// CPU seconds used so far by this whole process, every thread included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= thread_cpu_s());
    }
}
