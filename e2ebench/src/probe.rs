//! Tracing from outside the program: spans around store API calls, and a
//! counting, timing wrapper around the Env the store is opened on.
//!
//! Counting is always on (the byte counts feed `space_amp`, `write_amp`
//! and the property check against `DiskStats::env_bytes_written`);
//! spans are recorded only while a [`Tracer`] is armed. An Env span made
//! on a client thread is the child of that thread's open store span; one
//! made on an engine background thread is a root (parent 0).

use std::cell::Cell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flodb_storage::env::{RandomAccessFile, WritableFile};
use flodb_storage::{Env, Result};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Wal,
    Sst,
    Manifest,
    Other,
}

impl FileKind {
    pub fn of(name: &str) -> Self {
        let base = name.rsplit('/').next().unwrap_or(name);
        if base.ends_with(".log") {
            FileKind::Wal
        } else if base.ends_with(".sst") {
            FileKind::Sst
        } else if base.starts_with("MANIFEST-") {
            FileKind::Manifest
        } else {
            FileKind::Other
        }
    }

    fn name(self) -> &'static str {
        match self {
            FileKind::Wal => "wal",
            FileKind::Sst => "sst",
            FileKind::Manifest => "manifest",
            FileKind::Other => "other",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// Store API calls and Env calls a span can stand for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open,
    Put,
    Get,
    Scan,
    FlushAll,
    Create,
    Append,
    Sync,
    Finish,
    OpenFile,
    Read,
    Delete,
    SyncDir,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Put => "put",
            Op::Get => "get",
            Op::Scan => "scan_with",
            Op::FlushAll => "flush_all",
            Op::Create => "env.create",
            Op::Append => "env.append",
            Op::Sync => "env.sync",
            Op::Finish => "env.finish",
            Op::OpenFile => "env.open",
            Op::Read => "env.read",
            Op::Delete => "env.delete",
            Op::SyncDir => "env.sync_dir",
        }
    }

    pub fn is_client(self) -> bool {
        matches!(self, Op::Open | Op::Put | Op::Get | Op::Scan | Op::FlushAll)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing store span on the same thread; 0 for a root.
    pub parent: u64,
    pub thread: u32,
    pub op: Op,
    pub kind: FileKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The store span this thread is inside, 0 outside any.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Span sink, kept in memory until the run writes it out.
pub struct Tracer {
    armed: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            armed: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }

    /// Runs a store call as a span; Env spans it causes on this thread
    /// become its children.
    pub fn store_call<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.armed() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CURRENT.with(|c| c.set(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set(0));
        self.push(Span {
            id,
            parent: 0,
            thread: THREAD.with(|t| *t),
            op,
            kind: FileKind::Other,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            bytes: 0,
        });
        out
    }

    fn env_call<R>(&self, op: Op, kind: FileKind, bytes: u64, f: impl FnOnce() -> R) -> R {
        if !self.armed() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: CURRENT.with(Cell::get),
            thread: THREAD.with(|t| *t),
            op,
            kind,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            bytes,
        });
        out
    }
}

/// Writes spans as tab-separated lines with a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tthread\tname\tfile\tstart_ns\tend_ns\tbytes"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.thread,
            s.op.name(),
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.bytes
        )?;
    }
    out.flush()
}

/// Env-call counts, kept apart from the engine's own.
#[derive(Debug, Default)]
pub struct EnvCounts {
    written: [AtomicU64; 4],
    syncs: AtomicU64,
    reads: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvTotals {
    pub written_wal: u64,
    pub written_sst: u64,
    pub written_manifest: u64,
    pub written_other: u64,
    pub syncs: u64,
    pub reads: u64,
}

impl EnvTotals {
    pub fn written(&self) -> u64 {
        self.written_wal + self.written_sst + self.written_manifest + self.written_other
    }

    pub fn since(&self, earlier: &EnvTotals) -> EnvTotals {
        EnvTotals {
            written_wal: self.written_wal - earlier.written_wal,
            written_sst: self.written_sst - earlier.written_sst,
            written_manifest: self.written_manifest - earlier.written_manifest,
            written_other: self.written_other - earlier.written_other,
            syncs: self.syncs - earlier.syncs,
            reads: self.reads - earlier.reads,
        }
    }
}

impl EnvCounts {
    pub fn totals(&self) -> EnvTotals {
        let w = |k: FileKind| self.written[k.slot()].load(Ordering::SeqCst);
        EnvTotals {
            written_wal: w(FileKind::Wal),
            written_sst: w(FileKind::Sst),
            written_manifest: w(FileKind::Manifest),
            written_other: w(FileKind::Other),
            syncs: self.syncs.load(Ordering::SeqCst),
            reads: self.reads.load(Ordering::SeqCst),
        }
    }
}

/// The counting and timing wrapper passed to the store as its Env.
pub struct ProbeEnv {
    inner: Arc<dyn Env>,
    counts: Arc<EnvCounts>,
    tracer: Arc<Tracer>,
}

impl ProbeEnv {
    pub fn new(inner: Arc<dyn Env>, counts: Arc<EnvCounts>, tracer: Arc<Tracer>) -> Self {
        ProbeEnv {
            inner,
            counts,
            tracer,
        }
    }
}

struct ProbeWritable {
    inner: Box<dyn WritableFile>,
    kind: FileKind,
    counts: Arc<EnvCounts>,
    tracer: Arc<Tracer>,
}

impl WritableFile for ProbeWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let len = data.len() as u64;
        self.tracer
            .env_call(Op::Append, self.kind, len, || self.inner.append(data))?;
        self.counts.written[self.kind.slot()].fetch_add(len, Ordering::SeqCst);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .env_call(Op::Sync, self.kind, 0, || self.inner.sync())
    }

    fn finish(&mut self) -> Result<()> {
        self.tracer
            .env_call(Op::Finish, self.kind, 0, || self.inner.finish())
    }
}

struct ProbeRandom {
    inner: Arc<dyn RandomAccessFile>,
    kind: FileKind,
    counts: Arc<EnvCounts>,
    tracer: Arc<Tracer>,
}

impl RandomAccessFile for ProbeRandom {
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.tracer.env_call(Op::Read, self.kind, len as u64, || {
            self.inner.read_at(off, len)
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for ProbeEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        let kind = FileKind::of(name);
        let inner = self
            .tracer
            .env_call(Op::Create, kind, 0, || self.inner.new_writable(name))?;
        Ok(Box::new(ProbeWritable {
            inner,
            kind,
            counts: Arc::clone(&self.counts),
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let kind = FileKind::of(name);
        let inner = self
            .tracer
            .env_call(Op::OpenFile, kind, 0, || self.inner.open_random(name))?;
        Ok(Arc::new(ProbeRandom {
            inner,
            kind,
            counts: Arc::clone(&self.counts),
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.tracer.env_call(Op::Delete, FileKind::of(name), 0, || {
            self.inner.delete(name)
        })
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn sync_dir(&self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .env_call(Op::SyncDir, FileKind::Other, 0, || self.inner.sync_dir())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flodb_storage::MemEnv;

    #[test]
    fn env_spans_nest_under_the_open_store_span() {
        let tracer = Arc::new(Tracer::new());
        let counts = Arc::new(EnvCounts::default());
        let env = ProbeEnv::new(
            Arc::new(MemEnv::new(None)),
            Arc::clone(&counts),
            Arc::clone(&tracer),
        );
        tracer.arm(true);
        tracer.store_call(Op::Put, || {
            let mut f = env.new_writable("000001.log").unwrap();
            f.append(b"abc").unwrap();
            f.sync().unwrap();
        });
        let mut f = env.new_writable("000002.sst").unwrap();
        f.append(b"de").unwrap();
        let spans = tracer.take();
        let put = spans.iter().find(|s| s.op == Op::Put).unwrap();
        let wal_append = spans
            .iter()
            .find(|s| s.op == Op::Append && s.kind == FileKind::Wal)
            .unwrap();
        assert_eq!(wal_append.parent, put.id);
        let sst_append = spans
            .iter()
            .find(|s| s.op == Op::Append && s.kind == FileKind::Sst)
            .unwrap();
        assert_eq!(sst_append.parent, 0);
        let t = counts.totals();
        assert_eq!((t.written_wal, t.written_sst, t.syncs), (3, 2, 1));
        assert_eq!(t.written(), env.bytes_written());
    }
}
