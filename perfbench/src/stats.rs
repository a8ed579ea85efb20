//! Exact order statistics over raw samples (no histogram buckets: a
//! bucketed quantile moves in steps as wide as the bucket, which is
//! wider than a run-to-run bound).

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between the two nearest order statistics. Sorts in place; 0 for an
/// empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] + (samples[hi] - samples[lo]) * frac
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fewest samples in a [`chunked_quantile`] chunk: a p99 over 1,000
/// samples has 10 beyond it.
pub const CHUNK: usize = 1000;

/// The `q`-quantile of `samples` (in time order) as the median, over
/// consecutive chunks, of each chunk's exact quantile. A chunk is the
/// fewest whole passes of `pass` samples (a pass being one round over
/// the workload's jobs) that hold [`CHUNK`] samples, so every chunk
/// covers the same job mix; the last chunk takes the remainder, and
/// there is one chunk when there are fewer samples. A burst of delayed
/// requests sits in one chunk and cannot set the run's tail on its
/// own, while a tail that every chunk shares does.
pub fn chunked_quantile(samples: &[f64], q: f64, pass: usize) -> f64 {
    let pass = pass.max(1);
    let size = CHUNK.div_ceil(pass) * pass;
    let chunks = (samples.len() / size).max(1);
    let mut per: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                samples.len()
            } else {
                (c + 1) * size
            };
            quantile(&mut samples[c * size..end].to_vec(), q)
        })
        .collect();
    median(&mut per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_exactly() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut s, 0.0), 1.0);
        assert_eq!(quantile(&mut s, 1.0), 4.0);
        assert_eq!(median(&mut s), 2.5);
        let mut one = vec![7.0];
        assert_eq!(quantile(&mut one, 0.99), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn chunked_quantile_ignores_one_delayed_burst() {
        let mut s = vec![5.0; 3000];
        for x in &mut s[..100] {
            *x = 1e6;
        }
        assert_eq!(chunked_quantile(&s, 0.99, 1), 5.0);
        assert_eq!(quantile(&mut s, 0.99), 1e6);
        assert_eq!(chunked_quantile(&[1.0, 2.0, 3.0], 0.5, 7), 2.0);
    }

    #[test]
    fn chunks_are_whole_passes() {
        // Passes of 600 samples whose last sample is slow: chunks of
        // two passes each hold the same share of slow samples.
        let s: Vec<f64> = (0..6000)
            .map(|k| if k % 600 == 599 { 100.0 } else { 1.0 })
            .collect();
        assert_eq!(chunked_quantile(&s, 0.9995, 600), 100.0);
        assert_eq!(chunked_quantile(&s, 0.99, 600), 1.0);
    }
}
