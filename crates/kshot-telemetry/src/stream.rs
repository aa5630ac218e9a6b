//! Streaming JSON-lines sink: writes lines to a file (or any writer)
//! as they are produced, instead of holding them until export.
//!
//! This is the fleet-scale answer to the "one merged in-memory blob"
//! problem: each campaign worker owns one [`StreamSink`] on its own
//! `worker-<N>.jsonl` file and writes every machine it drives into it
//! as one parcel (the machine's records, rendered by
//! [`crate::export::append_record_line`], its SMI flight records, its
//! metrics block and its outcome line, appended into one buffer and
//! handed over by [`StreamSink::write_block`]), so the shard file
//! accumulates the full trace while
//! the merged campaign report keeps only summaries. [`crate::shard`]
//! reads the files back and re-aggregates them losslessly. The health
//! monitor owns the other sink, on `health.jsonl`.
//!
//! Properties:
//!
//! - **One owner, explicit flushes.** The owner flushes when its lines
//!   form a unit a reader may see: a worker after each parcel, the
//!   health monitor after each snapshot. The sink itself flushes only
//!   on drop.
//! - **Incremental.** Every line is handed to the writer as it is
//!   written; partial files from a crashed run are still line-by-line
//!   parseable.
//! - **Backpressure drops are counted, never blocking.** A write or
//!   flush error (disk full, closed pipe) increments a drop counter and
//!   the line is discarded; the writing thread is never stalled and
//!   never panicked. [`StreamSink::dropped`] exposes the loss, exactly
//!   like the ring's drop counter.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// One streaming destination and its line counters.
pub struct StreamSink {
    out: Mutex<Out>,
}

struct Out {
    writer: Box<dyn Write + Send>,
    /// Lines successfully handed to the writer.
    lines: u64,
    /// Lines discarded because the writer errored (backpressure /
    /// broken destination), plus failed flushes.
    dropped: u64,
}

impl StreamSink {
    /// A sink over any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> StreamSink {
        StreamSink {
            out: Mutex::new(Out {
                writer,
                lines: 0,
                dropped: 0,
            }),
        }
    }

    /// Create (truncate) `path` — parent directories included — and
    /// stream to it through a `BufWriter`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directories or the file.
    pub fn to_path(path: impl AsRef<Path>) -> std::io::Result<StreamSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(StreamSink::new(Box::new(BufWriter::new(file))))
    }

    /// Lines successfully written so far (records + metric/raw lines).
    pub fn lines_written(&self) -> u64 {
        self.out().lines
    }

    /// Lines discarded because the destination errored.
    pub fn dropped(&self) -> u64 {
        self.out().dropped
    }

    /// Write one pre-formatted JSON object as a line. The caller is
    /// responsible for it being a single well-formed JSON object with no
    /// embedded newline — this is how higher layers (e.g. a fleet
    /// campaign's per-machine summary lines) extend the shard format.
    pub fn write_raw_line(&self, line: &str) {
        debug_assert!(!line.contains('\n'), "raw shard lines must be single-line");
        self.out().write_line(line);
    }

    /// Write a block of whole lines, each ending in a newline, with one
    /// write: how a fleet worker hands over a machine's parcel. Every
    /// line of the block counts as written, or on a write error as
    /// dropped.
    pub fn write_block(&self, block: &str) {
        debug_assert!(
            block.is_empty() || block.ends_with('\n'),
            "a block holds whole lines"
        );
        // Counted in chunks with byte-wide sums, which vectorise: a
        // parcel's newlines cost a tenth of a byte-at-a-time count.
        let lines: u64 = block
            .as_bytes()
            .chunks(255)
            .map(|chunk| u64::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum();
        let mut out = self.out();
        if out.writer.write_all(block.as_bytes()).is_ok() {
            out.lines += lines;
        } else {
            out.dropped += lines;
        }
    }

    /// Push buffered lines to the destination. An error counts one drop
    /// (the buffer content's fate is the writer's; we only promise the
    /// loss is observable).
    pub fn flush(&self) {
        let mut out = self.out();
        if out.writer.flush().is_err() {
            out.dropped += 1;
        }
    }

    fn out(&self) -> MutexGuard<'_, Out> {
        self.out
            .lock()
            .expect("no write panics while holding the destination")
    }
}

impl Out {
    fn write_line(&mut self, line: &str) {
        let ok = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .is_ok();
        if ok {
            self.lines += 1;
        } else {
            self.dropped += 1;
        }
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        // Push whatever is still buffered. Errors are unobservable here;
        // the explicit flush path counts them.
        if let Ok(out) = self.out.get_mut() {
            let _ = out.writer.flush();
        }
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("lines", &self.lines_written())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::record_json_line;
    use crate::record::{EventRecord, Record};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A writer that shares its bytes and can be told to start failing.
    #[derive(Clone)]
    struct SharedBuf {
        data: Arc<Mutex<Vec<u8>>>,
        fail: Arc<AtomicBool>,
    }

    impl SharedBuf {
        fn new() -> SharedBuf {
            SharedBuf {
                data: Arc::new(Mutex::new(Vec::new())),
                fail: Arc::new(AtomicBool::new(false)),
            }
        }

        fn contents(&self) -> String {
            String::from_utf8(self.data.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(std::io::Error::other("backpressure"));
            }
            self.data.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An event record's line, as a worker renders it into its shard.
    fn event(name: &'static str) -> String {
        record_json_line(&Record::Event(EventRecord {
            parent: None,
            name,
            thread: 0,
            wall_ns: 5,
            sim_ns: Some(10),
            fields: Vec::new(),
        }))
    }

    #[test]
    fn streams_records_as_parseable_lines() {
        let buf = SharedBuf::new();
        let sink = StreamSink::new(Box::new(buf.clone()));
        sink.write_raw_line(&event("a"));
        sink.write_raw_line(&event("b"));
        sink.write_raw_line(r#"{"type":"machine","v":1,"machine":0}"#);
        assert_eq!(sink.lines_written(), 3);
        assert_eq!(sink.dropped(), 0);
        let text = buf.contents();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("every streamed line parses");
            assert_eq!(
                v.get("v").and_then(crate::json::Value::as_u64),
                Some(u64::from(crate::SCHEMA_VERSION))
            );
        }
    }

    #[test]
    fn backpressure_counts_drops_without_blocking() {
        let buf = SharedBuf::new();
        let sink = StreamSink::new(Box::new(buf.clone()));
        sink.write_raw_line(&event("ok"));
        buf.fail.store(true, Ordering::Relaxed);
        sink.write_raw_line(&event("lost1"));
        sink.write_raw_line(&event("lost2"));
        buf.fail.store(false, Ordering::Relaxed);
        sink.write_raw_line(&event("ok2"));
        assert_eq!(sink.lines_written(), 2);
        assert_eq!(sink.dropped(), 2);
        let text = buf.contents();
        assert!(text.contains("\"ok\""));
        assert!(text.contains("\"ok2\""));
        assert!(!text.contains("lost1"));
    }

    /// A block of whole lines goes out in one write: each of its lines
    /// counts as written, or on a write error as dropped.
    #[test]
    fn write_block_counts_each_of_its_lines() {
        let buf = SharedBuf::new();
        let sink = StreamSink::new(Box::new(buf.clone()));
        let block = format!("{}\n{}\n", event("a"), event("b"));
        sink.write_block(&block);
        assert_eq!((sink.lines_written(), sink.dropped()), (2, 0));
        buf.fail.store(true, Ordering::Relaxed);
        sink.write_block(&block);
        assert_eq!((sink.lines_written(), sink.dropped()), (2, 2));
        assert_eq!(buf.contents(), block);
    }

    /// The owner decides when a reader may see lines: through a
    /// `BufWriter` nothing reaches the destination until the owner's
    /// flush, however many lines are written, and dropping the sink
    /// pushes what is left.
    #[test]
    fn flush_policy_pushes_buffered_lines() {
        let buf = SharedBuf::new();
        let sink = StreamSink::new(Box::new(BufWriter::with_capacity(1 << 20, buf.clone())));
        for _ in 0..100 {
            sink.write_raw_line(&event("a"));
        }
        assert_eq!(buf.contents(), "", "lines stay buffered until a flush");
        sink.flush();
        assert_eq!(buf.contents().lines().count(), 100, "explicit flush");
        sink.write_raw_line(&event("b"));
        assert_eq!(buf.contents().lines().count(), 100, "next line buffered");
        drop(sink);
        assert_eq!(buf.contents().lines().count(), 101, "drop flushes");
    }

    #[test]
    fn to_path_creates_parents_and_writes() {
        let dir = std::env::temp_dir().join(format!("kshot-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/worker-0.jsonl");
        {
            let sink = StreamSink::to_path(&path).expect("create stream file");
            sink.write_raw_line(&event("x"));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
