//! Percentile math, daemon-histogram deltas, and response digests.

use serde::Value;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it. `p` is a
/// whole percent so the rank is exact integer arithmetic.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p <= 100, "percentile {p} out of range");
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile_of(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of an unsorted sample (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50)
}

/// Mean of a sample; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A daemon histogram as `/v1/metrics` renders it: exact count and sum,
/// plus `(lower bound, count)` buckets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl Hist {
    /// Parse the `{count, sum, buckets: [[lo, n], ..]}` shape.
    pub fn from_value(v: &Value) -> Option<Hist> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64).map(|f| f as u64);
        let Some(Value::Array(raw)) = v.get("buckets") else {
            return None;
        };
        let mut buckets = Vec::with_capacity(raw.len());
        for pair in raw {
            let Value::Array(kv) = pair else { return None };
            let lo = kv.first()?.as_f64()? as u64;
            let n = kv.get(1)?.as_f64()? as u64;
            buckets.push((lo, n));
        }
        Some(Hist {
            count: num("count")?,
            sum: num("sum")?,
            buckets,
        })
    }

    /// Observations recorded after `before` (both cumulative snapshots
    /// of the same histogram).
    pub fn since(&self, before: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|&(lo, n)| {
                let old = before
                    .buckets
                    .iter()
                    .find(|(l, _)| *l == lo)
                    .map_or(0, |(_, c)| *c);
                (lo, n.saturating_sub(old))
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        Hist {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            buckets,
        }
    }

    /// Nearest-rank percentile read as the lower bound of the bucket
    /// holding that rank (the daemon's own readout rule); 0 when empty.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p as u64 * self.count).div_ceil(100).clamp(1, self.count);
        let mut seen = 0;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lo;
            }
        }
        self.buckets.last().map_or(0, |b| b.0)
    }

    /// Exact mean from the sum; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 32-bit response digest kept in `digests.txt`: FNV-1a 64 folded.
pub fn digest32(body: &[u8]) -> u32 {
    let h = fnv64(body);
    (h ^ (h >> 32)) as u32
}

/// splitmix64: the benchmark's only source of seeded randomness.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 99), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&v, 10), 1.0);
        assert_eq!(percentile(&v, 11), 2.0);
        // Rank is ceil(p * n / 100): n = 7 puts p50 on the 4th value.
        let w: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile(&w, 50), 4.0);
        assert_eq!(percentile(&[3.5], 90), 3.5);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn histogram_delta_keeps_only_the_window() {
        let before = Hist {
            count: 3,
            sum: 300,
            buckets: vec![(10, 1), (100, 2)],
        };
        let after = Hist {
            count: 7,
            sum: 1700,
            buckets: vec![(10, 1), (100, 4), (500, 2)],
        };
        let d = after.since(&before);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 1400);
        assert_eq!(d.buckets, vec![(100, 2), (500, 2)]);
        assert_eq!(d.percentile(50), 100);
        assert_eq!(d.percentile(51), 500);
        assert_eq!(d.mean(), 350.0);
        assert_eq!(Hist::default().percentile(50), 0);
    }

    #[test]
    fn histogram_parses_the_daemon_shape() {
        let v: Value =
            serde_json::from_str(r#"{"count":2,"sum":30,"p50":10,"buckets":[[10,1],[20,1]]}"#)
                .expect("valid json");
        let h = Hist::from_value(&v).expect("histogram shape");
        assert_eq!(h.count, 2);
        assert_eq!(h.percentile(100), 20);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, (0..50).collect::<Vec<_>>());
    }
}
