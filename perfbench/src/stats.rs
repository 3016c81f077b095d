//! Order statistics for the reported timings.

/// Each operation's fastest time over repeated passes of the same
/// operation list. Shared hosts slow down in bursts that can cover most of
/// a run (pass medians of one seed moved by half between runs); an
/// operation's best time needs only one quiet moment, while a change to
/// the program moves every one of its times.
///
/// # Panics
/// Panics if the passes differ in length.
pub fn best_of<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Option<Vec<f64>> = None;
    for pass in passes {
        match &mut best {
            None => best = Some(pass.to_vec()),
            Some(b) => {
                assert_eq!(
                    b.len(),
                    pass.len(),
                    "passes must repeat the same operations"
                );
                for (b, &t) in b.iter_mut().zip(pass) {
                    *b = b.min(t);
                }
            }
        }
    }
    best.unwrap_or_default()
}

/// The smallest of `values`; infinite when empty.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The tail latency the benchmark reports as `latency_p99_ms`: the 99th
/// percentile when at least ten samples lie beyond it, otherwise the
/// highest nearest-rank percentile that still leaves ten samples beyond it.
/// Returns `(percentile, value)`, or `None` with fewer than 11 samples,
/// where no percentile has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let v = sorted(values);
    let n = v.len();
    if n <= BEYOND {
        return None;
    }
    // Nearest rank: the p-th percentile is v[ceil(p·n) − 1]; rank k leaves
    // n − 1 − k samples beyond it.
    let p99_rank = (99 * n).div_ceil(100) - 1;
    let k = p99_rank.min(n - 1 - BEYOND);
    let pct = if k == p99_rank {
        99.0
    } else {
        100.0 * (k + 1) as f64 / n as f64
    };
    Some((pct, v[k]))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_takes_each_operations_fastest_pass() {
        let passes = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 1.5, 4.5],
        ];
        assert_eq!(
            best_of(passes.iter().map(Vec::as_slice)),
            vec![2.0, 1.0, 4.5]
        );
        assert_eq!(best_of(std::iter::empty()), Vec::<f64>::new());
    }


    #[test]
    fn tail_always_leaves_ten_samples_beyond() {
        for n in 0..3000usize {
            // Distinct values in scrambled order, so "beyond" is exact.
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n.max(1)) as f64).collect();
            match tail(&values) {
                None => assert!(n <= 10, "n = {n} has a percentile with 10 beyond"),
                Some((p, v)) => {
                    let beyond = values.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= 10, "n = {n}: only {beyond} samples beyond p{p}");
                    assert!(p <= 99.0, "n = {n}: p{p} above p99");
                    // Nearest rank: at least p % of the samples are ≤ v.
                    let below_or_at = values.iter().filter(|&&x| x <= v).count();
                    assert!(100.0 * below_or_at as f64 / n as f64 >= p - 1e-9, "n = {n}");
                }
            }
        }
    }

    #[test]
    fn tail_is_p99_once_there_are_enough_samples() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&values), Some((99.0, 1980.0)));
        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&few).map(|(_, v)| v), Some(1.0));
    }
}
