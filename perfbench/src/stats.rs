//! Small statistics: percentiles under the "at least ten samples beyond"
//! rule, medians, process CPU time, and span self time.

use std::time::Duration;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based rank of the tail sample that `n` sorted samples support:
/// the 99th percentile by the nearest-rank rule, or a lower one when fewer
/// than ten samples would lie beyond it. `None` when even the median would
/// leave fewer than ten beyond it.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some(n - (n / 100).max(TAIL_SAMPLES))
}

/// Median and supported tail (p99 or lower, see `tail_rank`) of
/// `samples`; `None` without enough samples for a tail.
pub fn median_and_tail(samples: &mut [u64]) -> Option<(u64, u64)> {
    let n = samples.len();
    let rank = tail_rank(n)?;
    samples.sort_unstable();
    Some((samples[n.div_ceil(2) - 1], samples[rank - 1]))
}

/// Median of a few floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the better three quarters of `values`: the lowest when `lower`
/// is set, else the highest (at least one value).
pub fn better_mean(values: &[f64], lower: bool) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower {
        v.reverse();
    }
    let keep = (v.len() * 3).div_ceil(4);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Clock ticks per second of the `/proc` CPU counters.
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (clock ticks of 10 ms; threads that exited count).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum();
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// CPU time the hypervisor took from this machine's virtual CPUs so far
/// (the `steal` column of `/proc/stat`; zero on bare metal).
pub fn machine_steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that the union of its children's intervals covers. Children may nest,
/// overlap each other, or stick out of the parent.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        assert_eq!(tail_rank(19), None);
        assert_eq!(tail_rank(20), Some(10));
        assert_eq!(tail_rank(100), Some(90));
        assert_eq!(tail_rank(999), Some(989));
        assert_eq!(tail_rank(1000), Some(990));
        assert_eq!(tail_rank(150_000), Some(148_500));
        for n in 20..5000 {
            let rank = tail_rank(n).unwrap();
            if n >= 1000 {
                // The nearest-rank 99th percentile.
                assert_eq!(rank, (99 * n).div_ceil(100), "n={n}");
            } else {
                assert_eq!(n - rank, TAIL_SAMPLES, "n={n}");
            }
        }
    }

    #[test]
    fn median_and_tail_of_small_counts() {
        let mut few: Vec<u64> = (1..=19).collect();
        assert_eq!(median_and_tail(&mut few), None);
        let mut fifty: Vec<u64> = (1..=50).rev().collect();
        assert_eq!(median_and_tail(&mut fifty).unwrap(), (25, 40));
        let mut odd: Vec<u64> = (1..=21).collect();
        assert_eq!(median_and_tail(&mut odd).unwrap().0, 11);
        let mut many: Vec<u64> = (1..=2000).collect();
        assert_eq!(median_and_tail(&mut many).unwrap(), (1000, 1980));
    }

    #[test]
    fn medians_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(better_mean(&v, true), 3.5);
        assert_eq!(better_mean(&v, false), 5.5);
        assert_eq!(better_mean(&[5.0], true), 5.0);
        // Moves in proportion when the share of slow windows changes.
        let mix = |slow: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < slow { 10.0 } else { 1.0 })
                .collect()
        };
        assert_eq!(better_mean(&mix(70), true), (45.0 * 10.0 + 30.0) / 75.0);
        assert_eq!(better_mean(&mix(80), true), (55.0 * 10.0 + 20.0) / 75.0);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // A grandchild inside a child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Overlapping siblings count their union once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 70)]), 40);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Fully covered, and children outside the parent.
        assert_eq!(self_time(10, 20, &[(0, 30)]), 0);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
    }

    #[test]
    fn process_cpu_advances() {
        let before = process_cpu();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > before);
    }
}
