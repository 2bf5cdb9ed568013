//! Harness-side numerics: the seeded generator, the zipf sampler, and the
//! rule for which percentile a sample may report.
//!
//! The generator is the harness's own (splitmix64) rather than the
//! repository's vendored `rand`, so the request sequence drawn from a seed
//! cannot change when the program under test changes.

/// splitmix64: a full-period 64-bit generator; one `u64` of state.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the phases of
    /// one run draw independent sequences from the same `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// How a traffic phase picks the next page out of its page list.
#[derive(Clone)]
pub enum Picker {
    /// Every page equally likely: with a list larger than the program's
    /// cache, nearly every request misses.
    Uniform(usize),
    /// Rank `r` (0-based) with probability ∝ 1/(r+1)^s.
    Zipf(Vec<f64>),
}

impl Picker {
    pub fn zipf(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Picker::Zipf(cdf)
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        match self {
            Picker::Uniform(n) => rng.below(*n),
            Picker::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
            }
        }
    }
}

/// The value at quantile `q` of an ascending-sorted sample (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// The percentiles a timing may be reported at, highest first: quantile,
/// label, and the `k` for which one sample in `k` lies beyond it.
const TAILS: &[(f64, &str, usize)] = &[
    (0.9999, "p99.99", 10_000),
    (0.999, "p99.9", 1_000),
    (0.99, "p99", 100),
    (0.95, "p95", 20),
    (0.9, "p90", 10),
    (0.75, "p75", 4),
];

/// The highest percentile of a sample of `n` that still has at least ten
/// samples beyond it; `None` when even p75 has fewer.
pub fn supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .find(|(_, _, one_in)| n / one_in >= 10)
        .map(|(q, label, _)| (*q, *label))
}

/// A timing as the benchmark reports it: median, the highest supported
/// percentile, and the sample count.
#[derive(Clone, Debug)]
pub struct Summary {
    pub p50: f64,
    pub tail: Option<(&'static str, f64)>,
    pub n: usize,
}

pub fn summarize(samples: &mut [f64]) -> Summary {
    assert!(!samples.is_empty(), "a timing needs at least one sample");
    samples.sort_by(f64::total_cmp);
    Summary {
        p50: quantile(samples, 0.5),
        tail: supported_tail(samples.len()).map(|(q, label)| (label, quantile(samples, q))),
        n: samples.len(),
    }
}

/// The value a timing of an untraced run is reported at: the lower decile
/// of its samples in quiet moments. The samples, in the order they were
/// taken, are cut into windows of `window` consecutive ones (1 for an
/// operation of milliseconds or more, a hundred for requests, so that a
/// window is some 50 ms of traffic); each window gives its median; the
/// lower decile of those is reported.
///
/// The shared reference host slows down often and only ever down, for
/// parts of a second at a time: a bare arithmetic loop of 30 ms, run once a
/// second for seven minutes, had over windows of twenty samples a median
/// that spread by 0.31 (28 to 43 ms), a lower quartile that spread by 0.10,
/// a lower decile by 0.04 and a minimum by 0.02. The minimum would follow a
/// single lucky sample; a decile leaves one sample in ten below it.
pub fn quiet(samples: &[f64], window: usize) -> f64 {
    assert!(!samples.is_empty(), "a timing needs at least one sample");
    let mut medians: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| median(&mut w.to_vec()))
        .collect();
    if medians.is_empty() {
        medians.push(median(&mut samples.to_vec()));
    }
    medians.sort_by(f64::total_cmp);
    medians[(medians.len() - 1) / 10]
}

/// Interquartile range over the median, as the acceptance rule computes it
/// (`statistics.quantiles(values, n=4)`, exclusive method). `None` below
/// two samples.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // CPython: j = i*(n+1) // 4 clamped to 1..n-1, delta taken from the
        // clamped j, so the ends extrapolate.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = cut(2);
    (med != 0.0).then(|| (cut(3) - cut(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40).unwrap().1, "p75");
        assert_eq!(supported_tail(999).unwrap().1, "p95");
        assert_eq!(supported_tail(1000).unwrap().1, "p99");
        assert_eq!(supported_tail(9_999).unwrap().1, "p99");
        assert_eq!(supported_tail(10_000).unwrap().1, "p99.9");
        assert_eq!(supported_tail(100_000).unwrap().1, "p99.99");
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some(("p99", 990.0)));
        assert_eq!(s.n, 1000);
        let s = summarize(&mut [3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.n), (2.0, None, 3));
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Picker::zipf(512, 1.1);
        let draw = |seed| {
            let mut r = Rng::new(seed, 7);
            (0..2000).map(|_| z.pick(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let d = draw(1);
        assert!(d.iter().all(|&i| i < 512));
        let head = d.iter().filter(|&&i| i < 8).count();
        let tail = d.iter().filter(|&&i| i >= 256).count();
        assert!(
            head > 3 * tail,
            "rank 0-7 drew {head}, rank 256+ drew {tail}"
        );
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(5, 0).next_u64(), Rng::new(5, 1).next_u64());
        let picks = Rng::new(9, 3).distinct(64, 100);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!((picks.len(), unique.len()), (64, 64));
    }

    #[test]
    fn quiet_is_a_low_decile_of_window_medians() {
        // Up to ten samples: the fastest one.
        assert_eq!(quiet(&[9.0, 5.0, 7.0, 1.0, 8.0, 6.0, 4.0, 3.0], 1), 1.0);
        assert_eq!(quiet(&[2.0], 1), 2.0);
        // Twenty-one: two of them lie below the value.
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(quiet(&v, 1), 3.0);
        // Windows of three: a spike inside a window does not reach its
        // median, a disturbed window is left above the decile, and the
        // samples after the last whole window are not a window.
        let v = [10.0, 500.0, 11.0, 30.0, 31.0, 32.0, 12.0, 12.0, 900.0, 1.0];
        assert_eq!(quiet(&v, 3), 11.0);
        // Fewer samples than one window: their median.
        assert_eq!(quiet(&[3.0, 1.0, 2.0], 100), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(iqr_over_median(&[4.0]), None);
    }
}
