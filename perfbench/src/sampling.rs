//! Sampling discipline shared by every workload: one untimed warm-up
//! pass, then timed passes until the phase's time budget is spent, and a
//! metric is the median over passes. Generalised from the hand-rolled
//! loops in `crates/bench/benches/faults.rs`.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            median: quartile_sorted(&s, 2),
            q1: quartile_sorted(&s, 1),
            q3: quartile_sorted(&s, 3),
            min: s[0],
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// Quartile `k` (1, 2 or 3) of an ascending slice by the exclusive method,
/// the one Python's `statistics.quantiles(values, n=4)` uses — the driver
/// judges spreads with that, so the summaries printed here agree with it.
pub fn quartile_sorted(sorted: &[f64], k: usize) -> f64 {
    assert!(!sorted.is_empty() && (1..=3).contains(&k));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (k * m / 4).clamp(1, n - 1);
    let delta = (k * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even p75 has fewer (under 40 samples): a tail read off
/// fewer than ten points is one slow call, not a percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Value at percentile `p` by the nearest-rank rule on an unsorted slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Run `pass` once untimed, then repeatedly until `budget` is spent
/// (always at least `min_passes` times). `pass` receives the pass index —
/// 0 is the warm-up — and returns the samples it wants recorded; the
/// warm-up's are dropped. The budget covers the warm-up too, so a phase
/// costs what it was given; past the minimum, another pass runs only
/// while one of the usual length overruns the budget by less than half.
///
/// To compare two variants, run both in one pass (A then B) and return
/// the pair: drift in the machine then hits both alike.
pub fn timed_passes<T>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> T,
) -> Vec<T> {
    let t0 = Instant::now();
    let _ = pass(0);
    let mut out = Vec::new();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let usual = elapsed / (out.len() + 1) as f64;
        if out.len() >= min_passes && elapsed + 0.5 * usual > budget.as_secs_f64() {
            return out;
        }
        out.push(pass(out.len() + 1));
    }
}

/// Seconds per call of `f`, as the median of `samples` batches sized from
/// one untimed call to fill `budget` together. For layer unit costs.
pub fn unit_cost_secs(mut f: impl FnMut(), samples: usize, budget: Duration) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let per_sample =
        ((budget.as_secs_f64() / samples as f64 / once).floor() as u64).clamp(1, 1 << 24);
    let costs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            t.elapsed().as_secs_f64() / per_sample as f64
        })
        .collect();
    median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(300), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.5, 3.0, 4.5, 5.0)
        );
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        //   == [3.5, 24.0, 160.0]
        let xs: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 24.0, 160.0));
        assert_eq!(Summary::of(&[2.5]).spread(), 0.0);
    }

    #[test]
    fn timed_passes_drops_the_warm_up_and_honours_the_minimum() {
        let mut seen = Vec::new();
        let out = timed_passes(Duration::ZERO, 3, |i| {
            seen.push(i);
            i
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
