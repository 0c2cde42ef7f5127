//! Summary statistics over `f64` samples.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0 for fewer than two samples.
pub(crate) fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson correlation coefficient of paired samples; 0 when either side
/// has no variance or fewer than two pairs.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs paired samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Normal-approximation 95% confidence interval of the mean:
/// `mean ± 1.96 · s/√n`, `s` the sample standard deviation (divisor
/// `n − 1`). Returns `(mean, half_width)`; half-width 0 for fewer than two
/// samples.
pub fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    let m = mean(xs);
    if xs.len() < 2 {
        return (m, 0.0);
    }
    let n = xs.len() as f64;
    // Bessel's correction turns the population SD into the sample SD.
    let s = stddev(xs) * (n / (n - 1.0)).sqrt();
    (m, 1.96 * s / n.sqrt())
}

/// Ratio of the maximum sample to the mean — used to detect the Figure 1
/// interference spikes. 0 for an empty slice.
pub fn peak_to_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    xs.iter().cloned().fold(f64::MIN, f64::max) / m
}
