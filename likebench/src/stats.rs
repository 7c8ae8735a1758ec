//! The arithmetic behind the reported numbers: medians, percentiles with
//! their sample counts, and span self time and coverage.

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Nanoseconds of `parent` covered by the union of `children`, each child
/// clipped to the parent first. Overlapping children count once.
pub fn covered_ns(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time: the parent's duration minus the part its children cover.
pub fn self_ns(parent: Interval, children: &[Interval]) -> u64 {
    (parent.1 - parent.0) - covered_ns(parent, children)
}

/// Share of the parent's duration that its children cover (0 for an empty
/// parent).
pub fn coverage(parent: Interval, children: &[Interval]) -> f64 {
    let dur = parent.1 - parent.0;
    if dur == 0 {
        return 0.0;
    }
    covered_ns(parent, children) as f64 / dur as f64
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least `q` of the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// One-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `q` percentile's rank: a percentile is
/// trustworthy when at least ten samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A summary of latency-like samples: median, p99, and how many samples
/// stand behind each.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples beyond the p99 rank.
    pub beyond_p99: usize,
}

/// Summarize samples; all zeros for an empty set.
pub fn summary(values: &[f64]) -> Summary {
    Summary {
        n: values.len(),
        p50: median(values).unwrap_or(0.0),
        p99: percentile(values, 0.99).unwrap_or(0.0),
        beyond_p99: beyond(values.len(), 0.99),
    }
}

/// 64-bit FNV-1a, the digest the report checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = (100, 200);
        let children = [(110, 130), (150, 160)];
        assert_eq!(covered_ns(parent, &children), 30);
        assert_eq!(self_ns(parent, &children), 70);
        assert!((coverage(parent, &children) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let parent = (0, 100);
        // Nested and overlapping children (a worker span inside a child).
        let children = [(10, 50), (20, 30), (40, 60)];
        assert_eq!(covered_ns(parent, &children), 50);
        assert_eq!(self_ns(parent, &children), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = (100, 200);
        let children = [(50, 120), (190, 400), (300, 350)];
        assert_eq!(covered_ns(parent, &children), 30);
        assert_eq!(self_ns(parent, &children), 70);
    }

    #[test]
    fn no_children_is_all_self_time() {
        assert_eq!(self_ns((5, 25), &[]), 20);
        assert_eq!(coverage((5, 25), &[]), 0.0);
        assert_eq!(coverage((5, 5), &[(5, 5)]), 0.0);
    }

    #[test]
    fn full_cover_is_coverage_one() {
        let parent = (0, 10);
        assert_eq!(coverage(parent, &[(0, 4), (4, 10)]), 1.0);
        assert_eq!(self_ns(parent, &[(0, 4), (4, 10)]), 0);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 1.0), Some(1000.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.99), None);
    }

    #[test]
    fn samples_beyond_p99() {
        // p99 of 1000 samples has 10 beyond it: the smallest trustworthy set.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1, 0.99), 0);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn summary_reports_counts() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.5);
        assert_eq!(s.p99, 1980.0);
        assert_eq!(s.beyond_p99, 20);
        assert_eq!(summary(&[]).n, 0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
