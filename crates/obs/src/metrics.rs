//! Mergeable metrics: counters, gauges, log-bucketed histograms.
//!
//! Every merge is **associative and commutative**, so per-rank or
//! per-thread registries can be folded together in any order (and any
//! grouping) with identical results:
//!
//! - counters add with saturating `u64` arithmetic,
//! - gauges keep the maximum finite value seen,
//! - histograms store integer observations (callers convert seconds to
//!   nanoseconds via [`Histogram::record_secs`]) and merge bucket-wise.
//!
//! Keeping histogram state integral is what makes the merge *exactly*
//! associative — an `f64` running sum would accumulate rounding that
//! depends on fold order and break the byte-stable trace guarantee.

use std::collections::BTreeMap;

/// Number of log₂ buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `0`, `1`, `2..=3`, `4..=7`, ... up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Message/byte counters maintained by the executors.
///
/// Historically `tempered_runtime::stats::NetworkStats`; it now lives in
/// the observability crate (the runtime re-exports it for compatibility)
/// and can be folded into a [`MetricsRegistry`] with
/// [`MetricsRegistry::record_network`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

impl NetworkStats {
    /// Record one message of `bytes` payload.
    #[inline]
    pub fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Merge counters from another executor (e.g. per-thread stats).
    /// Associative and commutative, like every merge in this module.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.messages = self.messages.saturating_add(other.messages);
        self.bytes = self.bytes.saturating_add(other.bytes);
    }
}

/// Log₂-bucketed histogram over `u64` observations.
///
/// All state is integral (`count`, `sum`, `min`, `max`, bucket counts),
/// so [`Histogram::merge`] is exactly associative and commutative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (`0` when empty).
    pub max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for `value`: its bit length (0 for 0).
    #[inline]
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Record a duration given in seconds, stored as whole nanoseconds.
    /// Negative or non-finite inputs record as 0.
    #[inline]
    pub fn record_secs(&mut self, seconds: f64) {
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9) as u64
        } else {
            0
        };
        self.record(ns);
    }

    /// Fold another histogram in (associative + commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Mean observation, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (clamped to
    /// `[0, 1]`); `0` when empty. Resolution is the log₂ bucket width.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket i covers [2^(i-1), 2^i - 1]; bucket 0 is {0}.
                return if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let ub = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                (ub, n)
            })
            .collect()
    }
}

/// Named counters, gauges, and histograms with order-independent merge.
///
/// Names are stored in `BTreeMap`s so iteration (and therefore every
/// exporter) is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `delta` to counter `name` (created at 0 on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Raise gauge `name` to `value` if larger (max-merge semantics keep
    /// the registry merge commutative). Non-finite values are ignored.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let slot = self
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Fold `net` in under `prefix` (`<prefix>.messages`, `<prefix>.bytes`).
    pub fn record_network(&mut self, prefix: &str, net: &NetworkStats) {
        self.counter_add(&format!("{prefix}.messages"), net.messages);
        self.counter_add(&format!("{prefix}.bytes"), net.bytes);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Heap bytes held, estimated: each map as full B-tree leaves of
    /// eleven entries behind a 16-byte header, plus every name's buffer.
    pub fn heap_bytes(&self) -> usize {
        fn map<V>(m: &BTreeMap<String, V>) -> usize {
            let entry = std::mem::size_of::<String>() + std::mem::size_of::<V>();
            m.len().div_ceil(11) * (16 + 11 * entry) + m.keys().map(String::capacity).sum::<usize>()
        }
        map(&self.counters) + map(&self.gauges) + map(&self.histograms)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry in. Associative and commutative: counters
    /// add, gauges max, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            self.counter_add(name, v);
        }
        for (name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_record_and_merge() {
        let mut a = NetworkStats::default();
        a.record(10);
        a.record(30);
        assert_eq!(a.messages, 2);
        assert_eq!(a.bytes, 40);
        let mut b = NetworkStats::default();
        b.record(60);
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 100);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
        assert_eq!(h.quantile_upper_bound(0.5), 3);
        assert_eq!(h.quantile_upper_bound(1.0), 1023);
    }

    #[test]
    fn registry_merge_matches_pointwise() {
        let mut a = MetricsRegistry::default();
        a.counter_add("c", 2);
        a.gauge_max("g", 1.5);
        a.observe("h", 7);
        let mut b = MetricsRegistry::default();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_max("g", 0.5);
        b.observe("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(1.5));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
    }

    #[test]
    fn gauge_ignores_nan() {
        let mut r = MetricsRegistry::default();
        r.gauge_max("g", f64::NAN);
        assert!(r.gauge("g").is_none());
        r.gauge_max("g", 2.0);
        r.gauge_max("g", f64::INFINITY);
        assert_eq!(r.gauge("g"), Some(2.0));
    }

    #[test]
    fn record_secs_converts_to_ns() {
        let mut h = Histogram::default();
        h.record_secs(1.5e-6);
        assert_eq!(h.sum, 1500);
        h.record_secs(-1.0);
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0);
    }
}
