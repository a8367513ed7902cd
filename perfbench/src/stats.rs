//! Order statistics over measured samples.

/// The median (mean of the two middle samples for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `pct` of the samples; 0 for no samples.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (f64::from(pct) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile, at most 99, that leaves at least ten
/// samples above it (0 when there are ten samples or fewer).
pub fn tail_percentile(count: usize) -> u32 {
    if count <= 10 {
        return 0;
    }
    let pct = 100.0 * (1.0 - 10.0 / count as f64);
    (pct.floor() as u32).min(99)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Index of the sample at the median rank (the lower middle for an even
/// count): the operation whose parts a decomposition reports.
pub fn median_index(samples: &[f64]) -> Option<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order.get((samples.len().max(1) - 1) / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50), 50.0);
        assert_eq!(percentile(&hundred, 99), 99.0);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(10), 0);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), Some(2));
        assert_eq!(median_index(&[]), None);
    }
}
