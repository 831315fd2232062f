//! Order statistics for the benchmark's reports.
//!
//! End-to-end metrics are medians over the repetitions of one run. A
//! timing distribution (per-trial times, per-call times) is reported as
//! its median plus the highest percentile that still has at least ten
//! samples beyond it, together with the sample count ([`Dist`]).

/// Percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `xs` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; 50 (the median itself)
/// when even p90 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(50.0)
}

/// A timing distribution: median, tail percentile value, which
/// percentile the tail is, and how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        if xs.is_empty() {
            return Dist {
                p50: 0.0,
                tail: 0.0,
                tail_pct: 50.0,
                n: 0,
            };
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        let p50 = median(&v);
        Dist {
            p50,
            tail: if tail_pct > 50.0 {
                nearest_rank(&v, tail_pct)
            } else {
                p50
            },
            tail_pct,
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Fewer than 100 samples: even p90 has < 10 beyond it.
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000_000), 99.99);
    }

    #[test]
    fn dist_reports_the_rule_with_its_sample_count() {
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let d = Dist::of(&xs);
        assert_eq!(d.n, 1_000);
        assert_eq!(d.p50, 500.5);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(xs.iter().filter(|&&x| x > d.tail).count(), 10);

        let small = Dist::of(&[5.0, 1.0, 3.0]);
        assert_eq!((small.p50, small.tail, small.tail_pct), (3.0, 3.0, 50.0));
        assert_eq!(Dist::of(&[]).n, 0);
    }
}
