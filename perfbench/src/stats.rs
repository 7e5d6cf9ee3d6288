//! Order statistics and process measurements shared by the workloads.

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail latency: the highest percentile, up to the [`TAIL_PCT`]th,
/// that still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile it represents.
    pub pct: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile reported. The 99th of a ~17 ms routed request
/// moves with the host's CPU-steal bursts (its spread over ten seeds
/// exceeded the largest bound a metric may have); the 95th spreads half
/// as much.
pub const TAIL_PCT: usize = 95;

/// The [`TAIL_PCT`]th percentile when at least [`TAIL_BEYOND`] samples
/// lie beyond it, else the highest percentile that does; with too few
/// samples for any, the maximum (then `beyond` is 0).
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // nearest rank of the percentile, ceil(pct n / 100), in integers
    let rank_pct = ((TAIL_PCT * n).div_ceil(100)).max(1);
    let (rank, pct) = if n - rank_pct >= TAIL_BEYOND {
        (rank_pct, TAIL_PCT as f64)
    } else if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (rank, 100.0 * rank as f64 / n as f64)
    } else {
        (n, 100.0)
    };
    Tail {
        value: v[rank - 1],
        pct,
        beyond: n - rank,
        n,
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`; the benchmark runs on Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random samples (xorshift), with repeats.
    fn samples(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 10.0
            })
            .collect()
    }

    /// A nearest-rank quantile by its definition, by counting: the
    /// smallest sample x with at least `need` samples at or below it.
    fn quantile_oracle(v: &[f64], need: usize) -> f64 {
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        *sorted
            .iter()
            .find(|&&x| v.iter().filter(|&&y| y <= x).count() >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn tail_matches_sorted_vector_oracle() {
        for n in 1..1500 {
            let v = samples(n, n as u64 * 7919);
            let t = tail(&v);
            // the percentile needs ceil(pct n / 100) samples at or below it
            let rank = (TAIL_PCT * n).div_ceil(100);
            let want = if n - rank >= TAIL_BEYOND {
                quantile_oracle(&v, rank)
            } else if n > TAIL_BEYOND {
                quantile_oracle(&v, n - TAIL_BEYOND)
            } else {
                quantile_oracle(&v, n)
            };
            assert_eq!(t.value, want, "n={n}");
        }
    }

    #[test]
    fn median_matches_sorted_vector_oracle() {
        for n in 1..60 {
            let v = samples(n, n as u64 + 3);
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let want = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            assert_eq!(median(&v), want, "n={n}");
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in 1..3000 {
            let v: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&v);
            assert_eq!(t.n, n);
            if n > TAIL_BEYOND {
                assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
                assert!(t.pct <= TAIL_PCT as f64 + 1e-9, "n={n}: {t:?}");
                // exactly `beyond` samples rank above the reported one
                assert_eq!(v.iter().filter(|&&x| x > t.value).count(), t.beyond);
            } else {
                assert_eq!(t.value, (n - 1) as f64, "too few samples: the maximum");
            }
        }
        // with enough samples it is the plain percentile
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).value, 20.0 * TAIL_PCT as f64);
        assert_eq!(tail(&v).beyond, 20 * (100 - TAIL_PCT));
    }
}
