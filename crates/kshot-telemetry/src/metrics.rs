//! Counters, gauges, and mergeable quantile sketches.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::sketch::QuantileSketch;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    sketches: BTreeMap<&'static str, QuantileSketch>,
}

/// A point-in-time copy of every metric, name-sorted for deterministic
/// export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, i64)>,
    pub sketches: Vec<(&'static str, QuantileSketch)>,
}

impl MetricsSnapshot {
    /// Value of a counter, zero when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Quantile sketch by name, if any observations were recorded.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }
}

/// The metrics store attached to a [`Recorder`](crate::Recorder).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Set the named gauge.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        self.inner.lock().unwrap().gauges.insert(name, value);
    }

    /// Record one observation in the named [`QuantileSketch`] —
    /// mergeable in any order with byte-identical results, and
    /// queryable at arbitrary per-mille quantiles.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.inner
            .lock()
            .unwrap()
            .sketches
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Fold every metric of `other` into this registry: counters add,
    /// gauges take `other`'s value (last writer wins, as with
    /// [`MetricsRegistry::gauge_set`]), sketches merge bucket-wise.
    ///
    /// This is how a fleet campaign folds per-machine registries into
    /// one report; `other` is left untouched.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        // Two locks are held briefly, always in (self, other) order at
        // this single call site shape; merging a registry into itself
        // would deadlock, so reject it.
        assert!(
            !std::ptr::eq(self, other),
            "cannot merge a registry into itself"
        );
        let mut mine = self.inner.lock().unwrap();
        let theirs = other.inner.lock().unwrap();
        for (name, v) in &theirs.counters {
            let slot = mine.counters.entry(*name).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &theirs.gauges {
            mine.gauges.insert(*name, *v);
        }
        for (name, s) in &theirs.sketches {
            mine.sketches.entry(*name).or_default().merge_from(s);
        }
    }

    /// Append every metric's JSON line to `out`, name-sorted, counters
    /// first: the lines [`crate::export::metrics_json_lines`] renders
    /// from a snapshot, rendered here under the registry's lock instead
    /// of from a copy.
    pub fn append_json_lines(&self, out: &mut String) {
        let inner = self.inner.lock().unwrap();
        crate::export::append_metric_lines(
            out,
            inner.counters.iter().map(|(&name, &v)| (name, v)),
            inner.gauges.iter().map(|(&name, &v)| (name, v)),
            inner.sketches.iter().map(|(&name, s)| (name, s)),
        );
    }

    /// Copy out every metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            sketches: inner
                .sketches
                .iter()
                .map(|(k, s)| (*k, s.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn counters_accumulate_and_saturate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 2);
        reg.counter_add("c", 3);
        reg.counter_add("lim", u64::MAX);
        reg.counter_add("lim", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("lim"), u64::MAX);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().gauge("g"), None);
        reg.gauge_set("g", 7);
        reg.gauge_set("g", -3);
        assert_eq!(reg.snapshot().gauge("g"), Some(-3));
    }

    #[test]
    fn merge_from_folds_counters_gauges_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        b.counter_add("only_b", 7);
        a.gauge_set("g", 1);
        b.gauge_set("g", 9);
        a.observe("h", 1_500);
        b.observe("h", 3_000);
        b.observe("h2", 50);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c"), 3);
        assert_eq!(snap.counter("only_b"), 7);
        assert_eq!(snap.gauge("g"), Some(9));
        let h = snap.sketch("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4_500);
        assert_eq!(h.min(), 1_500);
        assert_eq!(h.max(), 3_000);
        assert_eq!(snap.sketch("h2").unwrap().count(), 1);
        // Buckets merged: the two samples sit an octave apart.
        assert_eq!(h.bucket_len(), 2);
    }

    /// A sketch's `(zeros, bucket counts)` as serialized — the state
    /// its accessors do not expose.
    fn zeros_and_buckets(s: &QuantileSketch) -> (u64, Vec<u64>) {
        let v = json::parse(&s.to_json_line("s")).unwrap();
        let Some(Value::Array(counts)) = v.get("counts") else {
            panic!("sketch line without counts: {v:?}");
        };
        (
            v.get("zeros").and_then(Value::as_u64).unwrap(),
            counts.iter().map(|n| n.as_u64().unwrap()).collect(),
        )
    }

    /// Companion to the `SimTime` saturating-arithmetic fixes: a fleet
    /// merge tree can fold arbitrarily many shards, so every sketch
    /// aggregate must pin at `u64::MAX` instead of wrapping (release)
    /// or panicking (debug).
    #[test]
    fn sketch_merge_saturates_at_u64_boundaries() {
        // `sum` saturation: near-MAX observations merged together.
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.observe("h", u64::MAX - 10);
        a.observe("h", 0);
        b.observe("h", u64::MAX);
        a.observe("top", u64::MAX - 10);
        b.observe("top", u64::MAX);
        a.merge_from(&b);
        let s = a.snapshot().sketch("h").cloned().unwrap();
        assert_eq!(s.sum(), u64::MAX);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), u64::MAX);

        // `count`, `zeros` and bucket-count saturation: ping-pong
        // merging doubles the counts each round, crossing the u64
        // boundary in < 130 rounds. Exercised on snapshots (the same
        // merge the shard re-aggregation path uses).
        let mut x = s.clone();
        let mut y = s;
        for _ in 0..130 {
            x.merge_from(&y);
            y.merge_from(&x);
        }
        for s in [&x, &y] {
            assert_eq!(s.count(), u64::MAX);
            assert_eq!(s.sum(), u64::MAX);
            let (zeros, buckets) = zeros_and_buckets(s);
            assert_eq!(zeros, u64::MAX);
            assert!(buckets.iter().all(|&n| n == u64::MAX), "{buckets:?}");
        }
        // Quantiles on a saturated sketch stay defined: every rank
        // lands in the pinned zero bucket.
        for q in [1, 500, 950, 990, 1000] {
            assert_eq!(x.quantile_per_mille(q), 0, "q={q}");
        }
        // Merging an empty sketch changes nothing.
        let before = x.clone();
        x.merge_from(&QuantileSketch::new());
        assert_eq!(x, before);

        // And the registry-level merge agrees: merging the saturated
        // registry into a fresh one keeps the pinned values.
        let c = MetricsRegistry::new();
        c.observe("h", 1);
        for _ in 0..130 {
            a.merge_from(&b);
            b.merge_from(&a);
        }
        c.merge_from(&a);
        let snap = c.snapshot();
        let merged = snap.sketch("h").unwrap();
        assert_eq!(merged.count(), u64::MAX);
        assert_eq!(merged.sum(), u64::MAX);
        assert_eq!(zeros_and_buckets(merged).0, u64::MAX);
        assert_eq!(merged.min(), 0);
        assert_eq!(merged.max(), u64::MAX);
        // Without zeros, the ranked walk crosses the pinned top bucket.
        let top = snap.sketch("top").unwrap();
        assert_eq!(top.count(), u64::MAX);
        assert_eq!(zeros_and_buckets(top), (0, vec![u64::MAX]));
        for q in [1, 500, 1000] {
            assert_eq!(top.quantile_per_mille(q), u64::MAX, "q={q}");
        }
    }

    #[test]
    fn sketches_observe_merge_and_snapshot() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.observe("s", 1_000);
        a.observe("s", 3_000);
        b.observe("s", 2_000);
        b.observe("only_b", 7);
        a.merge_from(&b);
        let snap = a.snapshot();
        let s = snap.sketch("s").unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 6_000);
        assert_eq!(s.min(), 1_000);
        assert_eq!(s.max(), 3_000);
        assert_eq!(snap.sketch("only_b").unwrap().count(), 1);
        assert!(snap.sketch("missing").is_none());
        // Merge equals direct observation of the union, regardless of
        // which registry each sample passed through.
        let direct = MetricsRegistry::new();
        for v in [1_000, 3_000, 2_000] {
            direct.observe("s", v);
        }
        assert_eq!(direct.snapshot().sketch("s"), Some(s));
    }
}
