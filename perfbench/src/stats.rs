//! Percentiles, sample discipline and the metric report.

use std::fmt::Write as _;

/// Below this count a tail with ten samples beyond it would sit under
/// p75; such a sample reports its maximum instead.
const MIN_TAIL_SAMPLES: usize = 40;

/// Stretches of a run whose p90s are reduced to their median.
const P90_WINDOWS: usize = 6;

/// A sorted sample of one quantity.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(|a, b| a.total_cmp(b));
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`; 0 for an empty sample.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// The highest percentile, at most p99, that has at least ten samples
    /// beyond it: `(percentile in %, value)`. `None` below
    /// [`MIN_TAIL_SAMPLES`].
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        if n < MIN_TAIL_SAMPLES {
            return None;
        }
        let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        let rank = p99_rank.min(n - 10);
        Some((100.0 * rank as f64 / n as f64, self.sorted[rank - 1]))
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value rests on (1 for a single measurement).
    pub samples: usize,
    /// Which percentile a tail metric is, or any other qualifier.
    pub note: String,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.add_noted(name, value, unit, samples, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// Median of `values` (in seconds or any unit), scaled by `scale`.
    pub fn add_median(&mut self, name: &str, values: &[f64], scale: f64, unit: &'static str) {
        let d = Dist::new(values.to_vec());
        self.add(name, d.median() * scale, unit, d.len());
    }

    /// The median and the supported tail of a latency sample.
    pub fn add_latency(
        &mut self,
        p50_name: &str,
        tail_name: &str,
        d: &Dist,
        scale: f64,
        unit: &'static str,
    ) {
        self.add(p50_name, d.median() * scale, unit, d.len());
        let note = match d.tail() {
            Some((pct, value)) => (format!("p{pct:.1}"), value),
            None => ("max".to_string(), d.quantile(1.0)),
        };
        self.add_noted(tail_name, note.1 * scale, unit, d.len(), note.0);
    }

    /// `harness.<class>_p90_us` and the supported tail,
    /// `harness.<class>_tail_us`, of `(time, seconds)` latency samples
    /// over `[0, span)`.
    ///
    /// The p90 is the median over [`P90_WINDOWS`] equal stretches of the
    /// run of each stretch's p90: the tail of a typical stretch, so one
    /// stall of the shared host moves it no more than any other stretch.
    pub fn add_tails(&mut self, class: &str, samples: &[(f64, f64)], span: f64) {
        let d = Dist::new(samples.iter().map(|s| s.1).collect());
        let n = P90_WINDOWS as f64;
        let p90s: Vec<f64> = (0..P90_WINDOWS)
            .map(|w| {
                let stretch = |t: f64| t * n >= span * w as f64 && t * n < span * (w + 1) as f64;
                Dist::new(
                    samples
                        .iter()
                        .filter(|s| stretch(s.0))
                        .map(|s| s.1)
                        .collect(),
                )
            })
            .filter(|d| d.len() > 0)
            .map(|d| d.quantile(0.9))
            .collect();
        self.add_noted(
            &format!("harness.{class}_p90_us"),
            Dist::new(p90s).median() * 1e6,
            "us",
            d.len(),
            format!("median of {P90_WINDOWS} stretches"),
        );
        let (name, value) = match d.tail() {
            Some((pct, value)) => (format!("p{pct:.1}"), value),
            None => ("max".to_string(), d.quantile(1.0)),
        };
        self.add_noted(
            &format!("harness.{class}_tail_us"),
            value * 1e6,
            "us",
            d.len(),
            name,
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: name, value, unit, sample count.
    pub fn print(&self, prefix: &str) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" {}", m.note)
            };
            println!(
                "{prefix}{:<40} {:>16.6} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let d = Dist::new((1..=2000).map(f64::from).collect());
        assert_eq!(d.tail(), Some((99.0, 1980.0)));
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.tail(), Some((90.0, 90.0)));
        assert!(Dist::new(vec![1.0; 39]).tail().is_none());
    }

    #[test]
    fn median_and_quantile() {
        let d = Dist::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.median(), 2.5);
        assert_eq!(d.quantile(0.5), 2.0);
        assert_eq!(d.quantile(1.0), 4.0);
    }
}
