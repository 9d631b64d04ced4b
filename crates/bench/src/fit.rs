//! Scaling-shape fits: does a measured series grow like a claimed bound?
//!
//! The reproduction is not expected to match the paper's absolute
//! constants, but the *shape* (who wins, what order of growth) must hold.
//! [`power_fit`] reports the measured growth order of a sweep.

/// Least-squares exponent fit: assuming `y ≈ a · x^b`, returns `(a, b)`
/// from a log-log regression. Useful for reporting the measured growth
/// order of a sweep (e.g. `b ≈ 2` for a Θ(n²) claim).
///
/// # Panics
///
/// Panics on series shorter than 2 points or non-positive values.
#[must_use]
pub fn power_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    assert!(xs.iter().chain(ys).all(|&v| v > 0.0), "power fit requires positive values");
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let sx: f64 = lx.iter().sum();
    let sy: f64 = ly.iter().sum();
    let sxx: f64 = lx.iter().map(|x| x * x).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let b = if denom.abs() < 1e-12 { 0.0 } else { (n * sxy - sx * sy) / denom };
    let a = ((sy - b * sx) / n).exp();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_fit_recovers_exponent() {
        let xs = [4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let (a, b) = power_fit(&xs, &ys);
        assert!((b - 2.0).abs() < 1e-9, "exponent {b}");
        assert!((a - 3.0).abs() < 1e-6, "constant {a}");
    }

    #[test]
    fn power_fit_linear() {
        let xs = [2.0, 4.0, 8.0];
        let ys = [10.0, 20.0, 40.0];
        let (_, b) = power_fit(&xs, &ys);
        assert!((b - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let _ = power_fit(&[1.0], &[1.0, 2.0]);
    }
}
