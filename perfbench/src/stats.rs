//! Order statistics over measured samples.

/// The `q`-quantile (`0.0 ..= 1.0`) by linear interpolation between closest ranks;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Equal time slices of the measured window that [`sliced`] takes medians over.
pub const SLICES: usize = 5;

/// Ops per second, p50 and p90 latency of `ops` — `(start offset in s, latency in
/// ms)` over a window of `window` seconds — each the median over [`SLICES`] equal
/// time slices, so a burst of host noise confined to a minority of the slices does
/// not move them.
pub fn sliced(ops: &[(f64, f64)], window: f64) -> (f64, f64, f64) {
    let width = window / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for &(start, ms) in ops {
        slices[((start / width) as usize).min(SLICES - 1)].push(ms);
    }
    let across = |f: fn(&[f64]) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
    (
        median(
            &slices
                .iter()
                .map(|s| s.len() as f64 / width)
                .collect::<Vec<_>>(),
        ),
        across(median),
        across(|s| quantile(s, 0.9)),
    )
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
