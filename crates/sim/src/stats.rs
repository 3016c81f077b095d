//! Statistics and rendering helpers for the experiment harness.

/// Arithmetic mean (0 for empty input).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (Bessel-corrected; 0 for fewer than 2 points).
pub(crate) fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Two-sided 97.5 % Student-t critical values for df = 1..=30; beyond the
/// table a first-order Cornish–Fisher expansion around the normal quantile
/// (`z + (z³+z)/(4·df)`) stays within 0.2 % of the true value.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Half-width of the 95 % confidence interval on the mean of `xs`
/// (Student-t with `n − 1` degrees of freedom; 0 for fewer than 2 points).
///
/// This is what the experiment registry reports next to every replicated
/// metric: `mean ± ci95_half_width`. The paper's gains are statistical
/// claims; the interval says how many replicates back a headline number.
pub(crate) fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let df = xs.len() - 1;
    let t = if df <= T_975.len() {
        T_975[df - 1]
    } else {
        // Cornish–Fisher around z = Φ⁻¹(0.975): continuous in df and
        // monotone down to the table's last entry (2.042 at df = 30).
        const Z: f64 = 1.959_964;
        Z + (Z * Z * Z + Z) / (4.0 * df as f64)
    };
    t * std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Empirical CDF: sorted `(value, fraction ≤ value)` points.
pub(crate) fn cdf_points(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Quantile by linear interpolation on the sorted sample, `q ∈ [0,1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    assert!(!xs.is_empty(), "quantile of empty sample");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Five-number-ish summary used by the figure reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise a sample (must be nonempty).
    pub(crate) fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        Self {
            mean: mean(xs),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            p25: quantile(xs, 0.25),
            median: quantile(xs, 0.5),
            p75: quantile(xs, 0.75),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.2} | min {:.2} | p25 {:.2} | median {:.2} | p75 {:.2} | max {:.2}",
            self.mean, self.min, self.p25, self.median, self.p75, self.max
        )
    }
}

/// Render an ASCII scatter plot (x vs y) with the Gain=1 and Gain=2
/// reference diagonals the paper draws in Figs. 12–14.
pub(crate) fn render_scatter(
    points: &[(f64, f64)],
    width: usize,
    height: usize,
    title: &str,
) -> String {
    if points.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let xmax = points.iter().map(|p| p.0).fold(0.0, f64::max) * 1.05;
    let ymax = points.iter().map(|p| p.1).fold(0.0, f64::max) * 1.05;
    let mut canvas = vec![vec![' '; width]; height];
    let place = |x: f64, y: f64| -> Option<(usize, usize)> {
        if x < 0.0 || y < 0.0 || x > xmax || y > ymax {
            return None;
        }
        let col = ((x / xmax) * (width - 1) as f64).round() as usize;
        let row = height - 1 - ((y / ymax) * (height - 1) as f64).round() as usize;
        Some((row, col))
    };
    // Reference diagonals.
    for k in 0..width * 4 {
        let x = xmax * k as f64 / (width * 4) as f64;
        if let Some((r, c)) = place(x, x) {
            canvas[r][c] = '.';
        }
        if let Some((r, c)) = place(x, 2.0 * x) {
            canvas[r][c] = ':';
        }
    }
    for &(x, y) in points {
        if let Some((r, c)) = place(x, y) {
            canvas[r][c] = 'o';
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for row in canvas {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "x: 0..{xmax:.1} (802.11-MIMO rate b/s/Hz)   y: 0..{ymax:.1} (IAC rate)   '.'=Gain 1  ':'=Gain 2\n"
    ));
    out
}

/// Render an ASCII CDF for several named series.
pub(crate) fn render_cdfs(series: &[(&str, &[f64])], width: usize, title: &str) -> String {
    let mut out = format!("{title}\n");
    let xmax = series
        .iter()
        .flat_map(|(_, xs)| xs.iter())
        .cloned()
        .fold(0.0, f64::max)
        * 1.05;
    for (name, xs) in series {
        let cdf = cdf_points(xs);
        out.push_str(&format!("  {name:<14}"));
        let mut line = String::new();
        for k in 0..width {
            let x = xmax * k as f64 / width as f64;
            let frac = cdf
                .iter()
                .take_while(|(v, _)| *v <= x)
                .last()
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            line.push(match (frac * 8.0).round() as usize {
                0 => ' ',
                1 => '.',
                2 => ':',
                3 => '-',
                4 => '=',
                5 => '+',
                6 => '*',
                7 => '#',
                _ => '@',
            });
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "  x: 0..{xmax:.1} (per-client gain), glyph density = CDF height\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn std_dev_and_ci() {
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(ci95_half_width(&[5.0]), 0.0);
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = std_dev(&xs);
        assert!((s - 2.138).abs() < 1e-3, "std dev {s}");
        // df = 7 → t = 2.365; half-width = t·s/√8.
        let hw = ci95_half_width(&xs);
        assert!((hw - 2.365 * s / 8f64.sqrt()).abs() < 1e-12, "ci {hw}");
        // Beyond the table the Cornish–Fisher expansion takes over: for
        // df = 99 the true t is 1.9842; the expansion must land within
        // 0.2 % and stay above the plain normal quantile.
        let big: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let hw_big = ci95_half_width(&big);
        let t_big = hw_big / (std_dev(&big) / 10.0);
        assert!((t_big - 1.9842).abs() < 0.004, "t(99) approx {t_big}");
        // Continuity at the table boundary: t(31) just below t(30).
        let t31 = {
            let xs: Vec<f64> = (0..32).map(|i| i as f64).collect();
            ci95_half_width(&xs) / (std_dev(&xs) / 32f64.sqrt())
        };
        assert!((t31 - 2.0395).abs() < 0.005, "t(31) approx {t31}");
        assert!(t31 < 2.042 && t31 > 1.96);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let xs = [3.0, 1.0, 2.0, 2.0];
        let cdf = cdf_points(&xs);
        assert_eq!(cdf.len(), 4);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn summary_ordering() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let s = Summary::of(&xs);
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.max);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn scatter_renders_points() {
        let plot = render_scatter(&[(5.0, 7.5), (8.0, 12.0)], 40, 12, "test");
        assert!(plot.contains('o'));
        assert!(plot.contains("Gain 1"));
    }

    #[test]
    fn cdf_render_has_all_series() {
        let a = [1.0, 2.0];
        let b = [1.5, 2.5];
        let out = render_cdfs(&[("fifo", &a), ("brute", &b)], 30, "cdfs");
        assert!(out.contains("fifo"));
        assert!(out.contains("brute"));
    }
}
