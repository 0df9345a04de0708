//! Small measurement helpers: FNV-1a digests, medians and the tail
//! percentile rule, peak RSS, and the work-counter bookkeeping every
//! workload reports beside its timings.

/// FNV-1a, 64 bit — the same digest the repository's golden tests use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile ladder the tail rule climbs, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// A tail percentile chosen by the "at least ten samples beyond" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when no ladder rung qualifies).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples it was taken from.
    pub n: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, by nearest rank. Falls back to the median when no rung has
/// ten samples beyond it (fewer than 40 samples); `beyond` then tells the
/// reader how thin it is.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |pct: f64| ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    for pct in TAIL_LADDER {
        let r = rank(pct);
        if n >= r + 10 {
            return Tail {
                pct,
                value: v[r - 1],
                n,
                beyond: n - r,
            };
        }
    }
    let r = rank(50.0);
    Tail {
        pct: 50.0,
        value: if n == 0 { 0.0 } else { median(&v) },
        n,
        beyond: n.saturating_sub(r),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic work counters of one workload pass, in report order.
/// Every pass of a run must produce the same counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: u64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += v,
            None => self.0.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_and_reports_its_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.n, t.beyond), (99.0, 1000, 10));
        assert_eq!(t.value, 990.0);

        // 200 samples: p99 has only 2 beyond, p95 has exactly 10.
        let t = tail(&v[..200]);
        assert_eq!((t.pct, t.n, t.beyond), (95.0, 200, 10));

        // 100 samples: p90 is the highest rung with 10 beyond.
        let t = tail(&v[..100]);
        assert_eq!((t.pct, t.beyond), (90.0, 10));

        // Too few samples for any rung: the median, flagged by `beyond`.
        let t = tail(&v[..12]);
        assert_eq!((t.pct, t.n), (50.0, 12));
        assert!(t.beyond < 10);
        assert_eq!(t.value, 6.5);
    }

    #[test]
    fn median_and_fnv_are_stable() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // FNV-1a reference value for "a".
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
