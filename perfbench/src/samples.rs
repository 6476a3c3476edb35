//! Exact latency samples of one job, in nanoseconds.
//!
//! Each job keeps every operation's latency and reports exact
//! interpolated quantiles; end-to-end latencies are medians of these
//! per-job quantiles, which a bucketed histogram would round to bucket
//! edges.

use std::time::Duration;

use crate::report::quantile;

#[derive(Clone, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// Record one latency; anything past `u32::MAX` ns (4.3 s, beyond
    /// every deadline) is clamped.
    pub fn record(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.0.iter().map(|&ns| f64::from(ns)).collect();
        quantile(&v, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact() {
        let mut s = Samples::default();
        for us in [4u64, 1, 3, 2] {
            s.record(Duration::from_micros(us));
        }
        assert_eq!(s.quantile_ns(0.5), 2500.0);
        assert_eq!(s.quantile_ns(1.0), 4000.0);
        assert_eq!(Samples::default().quantile_ns(0.5), 0.0);
    }
}
