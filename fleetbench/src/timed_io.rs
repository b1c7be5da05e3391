//! A timing adapter around the store's real-filesystem I/O.
//!
//! The store takes its I/O through the public `StoreIo` trait, so wrapping
//! `FsIo` here attributes journal appends, fsyncs, snapshot writes and
//! recovery reads without any instrumentation inside the program.

use decos::store::{FsIo, StoreIo, SNAP_DIR};
use std::io;
use std::time::Instant;

/// Time and volume spent in each kind of store I/O call.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoStats {
    pub read_ns: u64,
    pub append_ns: u64,
    pub appends: u64,
    pub append_bytes: u64,
    pub sync_ns: u64,
    pub syncs: u64,
    pub snapshot_ns: u64,
    pub snapshots: u64,
    /// Manifest writes, truncation, existence and directory probes.
    pub other_ns: u64,
}

impl IoStats {
    /// Time spent in every I/O call.
    pub fn total_ns(&self) -> u64 {
        self.read_ns + self.append_ns + self.sync_ns + self.snapshot_ns + self.other_ns
    }

    pub fn add(&mut self, o: &IoStats) {
        self.read_ns += o.read_ns;
        self.append_ns += o.append_ns;
        self.appends += o.appends;
        self.append_bytes += o.append_bytes;
        self.sync_ns += o.sync_ns;
        self.syncs += o.syncs;
        self.snapshot_ns += o.snapshot_ns;
        self.snapshots += o.snapshots;
        self.other_ns += o.other_ns;
    }
}

/// `FsIo` with every call timed into [`IoStats`].
#[derive(Debug)]
pub struct TimedIo {
    inner: FsIo,
    pub stats: IoStats,
}

impl TimedIo {
    pub fn new(inner: FsIo) -> Self {
        TimedIo { inner, stats: IoStats::default() }
    }

    /// Returns the counts so far and starts afresh.
    pub fn take(&mut self) -> IoStats {
        std::mem::take(&mut self.stats)
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl StoreIo for TimedIo {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read(path);
        self.stats.read_ns += ns_since(t);
        r
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.append(path, bytes);
        self.stats.append_ns += ns_since(t);
        self.stats.appends += 1;
        if let Ok(n) = r {
            self.stats.append_bytes += n as u64;
        }
        r
    }

    fn sync(&mut self, path: &str) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync(path);
        self.stats.sync_ns += ns_since(t);
        self.stats.syncs += 1;
        r
    }

    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.truncate(path, len);
        self.stats.other_ns += ns_since(t);
        r
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_atomic(path, bytes);
        let ns = ns_since(t);
        if path.starts_with(SNAP_DIR) {
            self.stats.snapshot_ns += ns;
            self.stats.snapshots += 1;
        } else {
            self.stats.other_ns += ns;
        }
        r
    }

    fn exists(&mut self, path: &str) -> bool {
        let t = Instant::now();
        let r = self.inner.exists(path);
        self.stats.other_ns += ns_since(t);
        r
    }

    fn len(&mut self, path: &str) -> io::Result<u64> {
        let t = Instant::now();
        let r = self.inner.len(path);
        self.stats.other_ns += ns_since(t);
        r
    }

    fn list(&mut self, dir: &str) -> io::Result<Vec<String>> {
        let t = Instant::now();
        let r = self.inner.list(dir);
        self.stats.other_ns += ns_since(t);
        r
    }
}
