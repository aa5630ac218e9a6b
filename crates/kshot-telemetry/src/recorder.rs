//! The bounded ring-buffer recorder.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::record::Record;

/// Default ring capacity: enough for several thousand live-patch runs'
/// worth of spans without unbounded growth in long soak tests.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Ring {
    records: VecDeque<Record>,
    dropped: u64,
}

/// Collects spans, events, and metrics for one observation session.
///
/// Records land in a bounded ring (oldest evicted first, with a drop
/// counter); a fleet worker renders a sealed machine's retained records
/// into its shard (see [`crate::StreamSink`]). Install one globally with
/// [`crate::install`] to switch the instrumentation on.
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Arc<Recorder> {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` records. The ring starts
    /// empty and grows on demand: a fleet keeps one recorder per machine,
    /// most of which hold a few dozen records.
    pub fn with_capacity(capacity: usize) -> Arc<Recorder> {
        assert!(capacity > 0, "recorder capacity must be non-zero");
        Arc::new(Recorder {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                records: VecDeque::new(),
                dropped: 0,
            }),
            metrics: MetricsRegistry::new(),
        })
    }

    /// Nanoseconds of wall clock since this recorder was created.
    pub fn wall_ns_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append one record to the ring, evicting the oldest when full.
    pub fn append(&self, record: Record) {
        let mut ring = self.ring.lock().unwrap();
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// Snapshot the retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        self.ring.lock().unwrap().records.iter().cloned().collect()
    }

    /// Append every retained record's JSON line to `out`, oldest first
    /// (see [`crate::export::append_record_line`]). The lines are
    /// rendered under the ring's lock, so no record is copied out.
    pub fn append_record_lines(&self, out: &mut String) {
        let ring = self.ring.lock().unwrap();
        for record in &ring.records {
            crate::export::append_record_line(out, record);
        }
    }

    /// How many records the ring has evicted so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().records.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metrics store.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Fold another recorder's retained records and metrics into this
    /// one. Records are appended in `other`'s retained order (subject
    /// to this ring's capacity); metrics merge per [`MetricsRegistry::merge_from`],
    /// and `other`'s ring-overflow drop count accumulates into this
    /// recorder's, so loss that already happened on a shard is never
    /// silently erased by the merge. `other` is left untouched, so a
    /// fleet campaign can both keep per-machine recorders and publish
    /// one merged report.
    ///
    /// Wall timestamps inside the copied records remain relative to
    /// `other`'s epoch.
    pub fn merge_from(&self, other: &Recorder) {
        assert!(
            !std::ptr::eq(self, other),
            "cannot merge a recorder into itself"
        );
        let other_dropped = other.dropped();
        for record in other.records() {
            self.append(record);
        }
        let mut ring = self.ring.lock().unwrap();
        ring.dropped = ring.dropped.saturating_add(other_dropped);
        drop(ring);
        self.metrics.merge_from(&other.metrics);
    }

    /// Snapshot of all metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Export retained records as JSON lines (see
    /// [`crate::export::json_lines`]).
    pub fn export_json_lines(&self) -> String {
        crate::export::json_lines(&self.records(), &self.metrics_snapshot())
    }

    /// Export retained records in Chrome `trace_event` format (see
    /// [`crate::export::chrome_trace`]).
    pub fn export_chrome_trace(&self) -> String {
        crate::export::chrome_trace(&self.records())
    }

    /// Export a plain-text summary table (see
    /// [`crate::export::summary`]).
    pub fn export_summary(&self) -> String {
        crate::export::summary(&self.records(), &self.metrics_snapshot())
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}
