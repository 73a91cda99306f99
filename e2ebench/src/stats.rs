//! Order statistics over latency samples, and the small JSON writer the
//! result lines use (the benchmark has no serde to lean on).

/// Linear-interpolated quantile of ascending `sorted` (`q` in `[0, 1]`).
/// `NaN` on an empty slice. Between two equal samples (two failed,
/// infinitely late requests included) the quantile is that sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
            if lo == hi {
                lo
            } else {
                lo + (hi - lo) * pos.fract()
            }
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency distribution: the samples of one arm of a closed loop.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, ascending.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    pub fn p50(&self) -> f64 {
        self.q(0.5)
    }

    pub fn p90(&self) -> f64 {
        self.q(0.9)
    }

    /// The highest of p90, p99, p99.9 and p99.99 that still has at least
    /// ten samples beyond it, as `(percentile, value, samples beyond)`.
    pub fn tail(&self) -> Option<(f64, f64, usize)> {
        let n = self.sorted.len();
        [99.99, 99.9, 99.0, 90.0].into_iter().find_map(|p| {
            let beyond = (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
            (beyond >= 10).then(|| (p, self.q(p / 100.0), beyond))
        })
    }
}

/// A named metric value with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `v`, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let d = Dist::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.q(0.0), 1.0);
        assert_eq!(d.q(1.0), 4.0);
        assert_eq!(d.p50(), 2.5);
    }

    #[test]
    fn failed_requests_make_the_tail_infinite() {
        let inf = f64::INFINITY;
        let d = Dist::new(vec![1.0, 2.0, inf, inf, inf]);
        assert_eq!(d.p90(), inf);
        assert_eq!(d.q(0.4), inf);
        assert_eq!(d.p50(), inf);
        assert_eq!(Dist::new(vec![1.0, 3.0, inf]).q(0.25), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(Dist::new((0..99).map(f64::from).collect()).tail().is_none());
        let (p, _, beyond) = Dist::new((0..100).map(f64::from).collect()).tail().unwrap();
        assert_eq!((p, beyond), (90.0, 10));
        let (p, _, beyond) = Dist::new((0..1000).map(f64::from).collect()).tail().unwrap();
        assert_eq!((p, beyond), (99.0, 10));
    }

    #[test]
    fn json_escapes_and_nulls() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.5), "0.5");
    }
}
