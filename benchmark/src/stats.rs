//! Order statistics over a run's samples, matching Python's
//! `statistics.median` and `statistics.quantiles(method="exclusive")`.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `i`-th of the `parts - 1` cut points dividing the samples into
/// `parts` equal groups (exclusive method). With a single sample every cut
/// point is that sample.
pub fn quantile(samples: &[f64], i: usize, parts: usize) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        1 => v[0],
        _ => {
            let m = n + 1;
            let j = (i * m / parts).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
        }
    }
}

pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (quantile(samples, 1, 4), quantile(samples, 3, 4))
}

pub fn p95(samples: &[f64]) -> f64 {
    quantile(samples, 95, 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
