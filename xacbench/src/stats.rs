//! Order statistics over latency samples.

/// A bag of samples in one unit (microseconds unless stated).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated quantile (`q` in 0..=1); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of the usual percentiles (p99.9, p99, p95, p90, p75)
    /// that leaves at least ten samples beyond it, as `(percentile,
    /// value)`; `None` when even p75 has fewer than ten beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        // Percentiles in tenths, so that the support test is exact.
        [999, 990, 950, 900, 750]
            .into_iter()
            .find(|&p| self.0.len() * (1000 - p) / 1000 >= 10)
            .map(|p| (p as f64 / 10.0, self.quantile(p as f64 / 1000.0)))
    }
}

/// Median of a small set of repeated measurements.
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for v in 0..100 {
            s.push(v as f64);
        }
        assert_eq!(s.tail().map(|t| t.0), Some(90.0));
        s.0.truncate(99);
        assert_eq!(s.tail().map(|t| t.0), Some(75.0));
    }
}
