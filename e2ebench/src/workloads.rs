//! The three workloads, each a round of fixed work on a fresh store on
//! real files: a set-up that builds a non-trivial starting store, a
//! measured phase of closed-loop clients (at most two), and checks of
//! every output against the model.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use flodb_core::{
    FloDb, FloDbOptions, KvStore, StoreStats, TelemetryLevel, TelemetrySnapshot, WalMode,
    WriteBatch,
};
use flodb_storage::{DiskStats, FsEnv};

use crate::cells::{self, CellFigures};
use crate::keys::{encode_value, Rng, Version, ENTRY_BYTES, VALUE_BYTES};
use crate::metrics::{percentile, ratio, Figures};
use crate::model::{Model, PRELOAD};
use crate::probe::{EnvCounts, EnvTotals, FileKind, Op, ProbeEnv, Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    DurableMixed,
    ReadScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::DurableMixed, Workload::ReadScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::DurableMixed => "durable_mixed",
            Workload::ReadScan => "read_scan",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::Ingest => "sustained uniform puts into a store 4x its memory component, WAL unsynced: Membuffer, drain, WAL append, flush, compaction, stalls",
            Workload::DurableMixed => "two clients, 50% fsynced puts and 50% gets on an in-memory dataset, then WAL replay: group commit, fsync, recovery",
            Workload::ReadScan => "gets (half absent) and 10% puts beside a second client's fixed number of 100-key scans on a flushed store 4x memory: SST read path, bloom, scan protocol",
        }
    }
}

/// What one round works on.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub memory_bytes: usize,
    /// Keys preloaded in set-up (the whole key space).
    pub keys: u64,
    /// Measured operations: ingest puts, durable_mixed ops per client,
    /// read_scan ops of the get/put client.
    pub ops: u64,
    /// read_scan: 100-key scans of the scan client.
    pub scans: u64,
}

impl Size {
    pub fn of(w: Workload, small: bool) -> Size {
        const MB: usize = 1 << 20;
        match (w, small) {
            (Workload::Ingest, false) => Size {
                memory_bytes: 8 * MB,
                keys: 131_072,
                ops: 262_144,
                scans: 0,
            },
            (Workload::DurableMixed, false) => Size {
                memory_bytes: 128 * MB,
                keys: 65_536,
                ops: 40_000,
                scans: 0,
            },
            (Workload::ReadScan, false) => Size {
                memory_bytes: 16 * MB,
                keys: 262_144,
                ops: 200_000,
                scans: 1_800,
            },
            (Workload::Ingest, true) => Size {
                memory_bytes: 256 * 1024,
                keys: 4_096,
                ops: 8_192,
                scans: 0,
            },
            (Workload::DurableMixed, true) => Size {
                memory_bytes: 4 * MB,
                keys: 2_048,
                ops: 2_000,
                scans: 0,
            },
            (Workload::ReadScan, true) => Size {
                memory_bytes: 512 * 1024,
                keys: 8_192,
                ops: 2_000,
                scans: 40,
            },
        }
    }
}

/// Client ids: 1 and 2 (0 is the preload writer and the benchmark's own
/// reads).
const CLIENT_A: u32 = 1;
const CLIENT_B: u32 = 2;
const PRELOAD_BATCH: u64 = 1_000;
const SCAN_KEYS: u64 = 100;
/// `durable_mixed` times its clients in windows of this many operations.
const WINDOW_OPS: usize = 1_000;

pub struct RoundResult {
    pub figures: Figures,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Everything one round needs.
pub struct Round<'a> {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    pub trace: bool,
    pub dir: &'a Path,
    pub model: &'a Model,
}

/// Counters read at both ends of the measured phase.
pub(crate) struct Snap {
    pub(crate) stats: StoreStats,
    pub(crate) telemetry: TelemetrySnapshot,
    pub(crate) disk: DiskStats,
    pub(crate) env: EnvTotals,
    pub(crate) membuffer_writes: u64,
    pub(crate) memtable_writes: u64,
    pub(crate) drained_entries: u64,
    pub(crate) drain_batches: u64,
    pub(crate) writer_helps: u64,
    pub(crate) piggyback_scans: u64,
    pub(crate) master_scans: u64,
    pub(crate) write_stalls: u64,
}

impl Snap {
    fn take(db: &FloDb, counts: &EnvCounts) -> Snap {
        let f = db.flodb_stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);
        Snap {
            stats: db.stats(),
            telemetry: db.telemetry(),
            disk: db.disk_stats(),
            env: counts.totals(),
            membuffer_writes: load(&f.membuffer_writes),
            memtable_writes: load(&f.memtable_writes),
            drained_entries: load(&f.drained_entries),
            drain_batches: load(&f.drain_batches),
            writer_helps: load(&f.writer_drain_helps),
            piggyback_scans: load(&f.piggyback_scans),
            master_scans: load(&f.master_scans),
            write_stalls: load(&f.write_stalls),
        }
    }
}

/// Caller-side latencies and counts of one measured phase.
#[derive(Default)]
pub(crate) struct Client {
    pub(crate) put_ns: Vec<u64>,
    pub(crate) get_ns: Vec<u64>,
    pub(crate) scan_ns: Vec<u64>,
    pub(crate) scanned_keys: u64,
    /// Nanoseconds each window of `WINDOW_OPS` consecutive operations took
    /// (`durable_mixed`).
    pub(crate) window_ns: Vec<u64>,
    pub(crate) failed: u64,
    pub(crate) first_error: Option<String>,
}

impl Client {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    fn merge(&mut self, other: Client) {
        self.put_ns.extend(other.put_ns);
        self.get_ns.extend(other.get_ns);
        self.scan_ns.extend(other.scan_ns);
        self.scanned_keys += other.scanned_keys;
        self.window_ns.extend(other.window_ns);
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn attempted(&self) -> u64 {
        (self.put_ns.len() + self.get_ns.len() + self.scan_ns.len()) as u64
    }
}

struct Store {
    db: FloDb,
    counts: Arc<EnvCounts>,
}

fn options(r: &Round<'_>, env: Arc<ProbeEnv>) -> FloDbOptions {
    let mut o = FloDbOptions::default_in_memory();
    o.memory_bytes = r.size.memory_bytes;
    o.env = env;
    o.wal = match r.workload {
        Workload::Ingest => WalMode::Enabled { sync: false },
        Workload::DurableMixed => WalMode::Enabled { sync: true },
        Workload::ReadScan => WalMode::Disabled,
    };
    if r.trace {
        o.telemetry = TelemetryLevel::Full;
    }
    o
}

fn open(r: &Round<'_>, tracer: &Arc<Tracer>) -> Result<Store, String> {
    let fs = FsEnv::new(r.dir).map_err(|e| format!("FsEnv at {}: {e}", r.dir.display()))?;
    let counts = Arc::new(EnvCounts::default());
    let env = Arc::new(ProbeEnv::new(
        Arc::new(fs),
        Arc::clone(&counts),
        Arc::clone(tracer),
    ));
    let db = tracer
        .store_call(Op::Open, || FloDb::open(options(r, env)))
        .map_err(|e| format!("open: {e}"))?;
    Ok(Store { db, counts })
}

/// The benchmark's cell options for this round (same sizes as the store).
fn cell_options(r: &Round<'_>) -> FloDbOptions {
    let mut o = FloDbOptions::default_in_memory();
    o.memory_bytes = r.size.memory_bytes;
    o
}

fn value(model: &Model, index: u64, v: Version) -> ([u8; 8], [u8; VALUE_BYTES]) {
    let key = model.ks.key(index);
    let mut buf = [0u8; VALUE_BYTES];
    encode_value(&key, v, &mut buf);
    (key, buf)
}

fn preload(db: &FloDb, model: &Model) -> Result<(), String> {
    let mut batch = WriteBatch::new();
    for i in 0..model.keys {
        let (key, val) = value(model, i, PRELOAD);
        batch.put(&key, &val);
        if batch.len() as u64 == PRELOAD_BATCH || i + 1 == model.keys {
            db.write(&batch).map_err(|e| format!("preload: {e}"))?;
            batch.clear();
        }
    }
    Ok(())
}

/// Bytes of every file under `dir`, walked with `std::fs`.
pub fn dir_bytes(dir: &Path, only: Option<FileKind>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let Ok(meta) = e.metadata() else { return 0 };
            if meta.is_dir() {
                dir_bytes(&e.path(), only)
            } else if only.is_none_or(|k| k == FileKind::of(&e.file_name().to_string_lossy())) {
                meta.len()
            } else {
                0
            }
        })
        .sum()
}

pub(crate) fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

pub(crate) fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn put(tracer: &Tracer, db: &FloDb, model: &Model, writer: u32, index: u64, client: &mut Client) {
    let v = model.issue(writer);
    let (key, val) = value(model, index, v);
    let t = Instant::now();
    let res = tracer.store_call(Op::Put, || db.put(&key, &val));
    client.put_ns.push(t.elapsed().as_nanos() as u64);
    match res {
        Ok(()) => model.acknowledge(index, v),
        Err(e) => client.fail(format!("put: {e}")),
    }
}

fn get(tracer: &Tracer, db: &FloDb, model: &Model, reader: u32, index: u64, client: &mut Client) {
    let key = model.ks.key(index);
    let before = if index < model.keys {
        model.acked(index)
    } else {
        PRELOAD
    };
    let t = Instant::now();
    let got = tracer.store_call(Op::Get, || db.get(&key));
    client.get_ns.push(t.elapsed().as_nanos() as u64);
    if let Err(e) = model.check(index, &key, got.as_deref(), before, reader) {
        client.fail(format!("get: {e}"));
    }
}

/// A 100-key scan starting at sorted position `start`: keys ascend, stay
/// inside the range, and are exactly the 100 keys the range holds, each
/// with a value the model allows.
fn scan(
    tracer: &Tracer,
    db: &FloDb,
    model: &Model,
    reader: u32,
    start: usize,
    client: &mut Client,
) {
    let expected = &model.sorted[start..start + SCAN_KEYS as usize];
    let before: Vec<Version> = expected
        .iter()
        .map(|&i| model.acked(u64::from(i)))
        .collect();
    let low = model.ks.key(u64::from(expected[0]));
    let high = model.ks.key(u64::from(expected[expected.len() - 1]));
    let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(expected.len());
    let t = Instant::now();
    tracer.store_call(Op::Scan, || {
        db.scan_with(&low, &high, &mut |k, v| {
            got.push((k.to_vec(), v.to_vec()));
            ControlFlow::Continue(())
        })
    });
    client.scan_ns.push(t.elapsed().as_nanos() as u64);
    client.scanned_keys += got.len() as u64;
    let mut ok = got.len() == expected.len();
    let mut why = format!(
        "scan returned {} keys, expected {}",
        got.len(),
        expected.len()
    );
    for (n, (k, v)) in got.iter().enumerate() {
        if k.as_slice() < low.as_slice() || k.as_slice() > high.as_slice() {
            ok = false;
            why = "scan key outside [low, high]".into();
            break;
        }
        if n > 0 && got[n - 1].0 >= *k {
            ok = false;
            why = "scan keys do not ascend".into();
            break;
        }
        let Some(index) = model.ks.index(k).filter(|&i| i < model.keys) else {
            ok = false;
            why = "scan returned a key the benchmark never wrote".into();
            break;
        };
        let Some(pos) = expected.get(n).filter(|&&e| u64::from(e) == index) else {
            ok = false;
            why = format!("scan entry {n} is key {index}, not the expected key");
            break;
        };
        if let Err(e) = model.check(index, k, Some(v), before[n], reader) {
            ok = false;
            why = format!("scan: {e} (position {pos})");
            break;
        }
    }
    if !ok {
        client.fail(why);
    }
}

/// Compares the client's own op counts with the store's counters over
/// the phase; returns failed checks.
fn count_checks(client: &Client, d: &StoreStats) -> Vec<String> {
    let mut bad = Vec::new();
    let pairs = [
        ("puts", client.put_ns.len() as u64, d.puts),
        ("gets", client.get_ns.len() as u64, d.gets),
        ("scans", client.scan_ns.len() as u64, d.scans),
        ("scanned keys", client.scanned_keys, d.scanned_keys),
    ];
    for (what, ours, theirs) in pairs {
        if ours != theirs {
            bad.push(format!(
                "{what}: client counted {ours}, store counted {theirs}"
            ));
        }
    }
    bad
}

fn stats_delta(a: &StoreStats, b: &StoreStats) -> StoreStats {
    StoreStats {
        puts: b.puts - a.puts,
        gets: b.gets - a.gets,
        scans: b.scans - a.scans,
        scanned_keys: b.scanned_keys - a.scanned_keys,
        ..StoreStats::default()
    }
}

/// The wrapper's byte count must equal the engine's
/// `DiskStats::env_bytes_written`. The two are read one after the other,
/// so an append landing between the reads is retried past.
fn env_count_check(store: &Store) -> Option<String> {
    let mut last = (0, 0);
    for _ in 0..100 {
        let ours = store.counts.totals().written();
        let engine = store.db.disk_stats().env_bytes_written;
        if ours == engine && store.counts.totals().written() == ours {
            return None;
        }
        last = (ours, engine);
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(format!(
        "env bytes: wrapper counted {}, DiskStats::env_bytes_written {}",
        last.0, last.1
    ))
}

/// Runs one round. `setup_s` covers open, preload and the settling that
/// follows; the measured phase is timed on its own.
pub fn run_round(r: &Round<'_>, cells_out: &mut Option<CellFigures>) -> RoundResult {
    let tracer = Arc::new(Tracer::new());
    let model = r.model;
    model.reset();
    let mut checks: Vec<String> = Vec::new();
    let mut figures = Figures::new();

    let t_setup = Instant::now();
    let store = match open(r, &tracer) {
        Ok(s) => s,
        Err(e) => return failed_round(e),
    };
    if let Err(e) = preload(&store.db, model) {
        return failed_round(e);
    }
    if r.workload != Workload::DurableMixed {
        store.db.flush_all();
    }
    store.db.quiesce();
    figures.insert("setup_s", t_setup.elapsed().as_secs_f64());

    let mut rng = Rng::new(r.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5);
    let before = Snap::take(&store.db, &store.counts);
    tracer.arm(r.trace);
    let (client, phase_s, put_stream) = match r.workload {
        Workload::Ingest => ingest_phase(r, &tracer, &store.db, &mut rng),
        Workload::DurableMixed => mixed_phase(r, &tracer, &store.db, &mut rng),
        Workload::ReadScan => read_scan_phase(r, &tracer, &store.db, &mut rng),
    };
    if r.workload != Workload::DurableMixed {
        store.db.quiesce();
    }
    tracer.arm(false);
    let after = Snap::take(&store.db, &store.counts);
    let mut spans = tracer.take();
    checks.extend(count_checks(
        &client,
        &stats_delta(&before.stats, &after.stats),
    ));
    checks.extend(env_count_check(&store));

    let ops = client.attempted();
    let puts = client.put_ns.len() as u64;
    let put_ns = sorted(client.put_ns.clone());
    let get_ns = sorted(client.get_ns.clone());
    let scan_ns = sorted(client.scan_ns.clone());
    let env_delta = after.env.since(&before.env);
    let user_bytes = puts * ENTRY_BYTES;
    let live_bytes = (model.keys * ENTRY_BYTES) as f64;
    let ops_per_s = match r.workload {
        // Two closed-loop clients: twice the median window's rate. The
        // median keeps out the disk's rare fsync stalls, which on a shared
        // virtual disk come and go from minute to minute.
        Workload::DurableMixed => {
            let window_ns = sorted(client.window_ns.clone());
            2.0 * ratio(WINDOW_OPS as f64 * 1e9, percentile(&window_ns, 50.0) as f64)
        }
        _ => ratio(ops as f64, phase_s),
    };
    figures.insert("ops_per_s", ops_per_s);
    figures.insert("put_p50_us", us(percentile(&put_ns, 50.0) as f64));
    match r.workload {
        Workload::Ingest => {
            figures.insert("put_p99_us", us(percentile(&put_ns, 99.0) as f64));
            figures.insert(
                "write_amp",
                ratio(env_delta.written() as f64, user_bytes as f64),
            );
        }
        Workload::DurableMixed => {
            figures.insert("get_p50_us", us(percentile(&get_ns, 50.0) as f64));
        }
        Workload::ReadScan => {
            figures.insert("get_p50_us", us(percentile(&get_ns, 50.0) as f64));
            figures.insert("scan_p50_us", us(percentile(&scan_ns, 50.0) as f64));
            let scan_s = client.scan_ns.iter().sum::<u64>() as f64 / 1e9;
            figures.insert("scan_keys_per_s", ratio(client.scanned_keys as f64, scan_s));
        }
    }

    let mut attempted = ops;
    let mut failed = client.failed;
    if let Some(e) = &client.first_error {
        eprintln!(
            "{}: {} failed operations, first: {e}",
            r.workload.name(),
            client.failed
        );
    }

    let mut recover_s = None;
    let mut wal_bytes = 0;
    let phase_spans = spans.len();
    if r.workload == Workload::DurableMixed {
        // Drop without a flush: the reopen replays the WAL.
        drop(store);
        wal_bytes = dir_bytes(r.dir, Some(FileKind::Wal));
        tracer.arm(r.trace);
        let t = Instant::now();
        let reopened = open(r, &tracer);
        let secs = t.elapsed().as_secs_f64();
        tracer.arm(false);
        match reopened {
            Ok(s) => {
                recover_s = Some(secs);
                figures.insert("recover_s", secs);
                s.db.quiesce();
                finish_store(r, &s, &mut figures, &mut checks, &mut attempted, live_bytes);
            }
            Err(e) => checks.push(e),
        }
    } else {
        finish_store(
            r,
            &store,
            &mut figures,
            &mut checks,
            &mut attempted,
            live_bytes,
        );
        drop(store);
    }

    // The reopen's spans go to the span file, not into the phase's
    // layer figures.
    spans.extend(tracer.take());
    if r.trace {
        if cells_out.is_none() {
            *cells_out = Some(cells::run(
                &cell_options(r),
                &model.ks,
                &put_stream,
                model.keys,
            ));
        }
        let cells = cells_out.as_ref().expect("cells ran above");
        crate::layers::figures(
            &mut figures,
            &before,
            &after,
            &spans[..phase_spans],
            &client,
            cells,
            user_bytes,
            env_delta,
        );
        if let Some(secs) = recover_s {
            figures.insert("client.recover_s", secs);
            figures.insert("recovery.wal_mb", wal_bytes as f64 / 1e6);
            figures.insert(
                "recovery.replay_mb_per_s",
                ratio(wal_bytes as f64 / 1e6, secs),
            );
        }
    }
    for c in &checks {
        eprintln!("{}: check failed: {c}", r.workload.name());
    }
    failed += checks.len() as u64;
    attempted += checks.len() as u64;
    RoundResult {
        figures,
        attempted,
        failed,
        spans,
    }
}

/// Full comparison against the model, then `space_amp` from the
/// directory walk.
fn finish_store(
    r: &Round<'_>,
    store: &Store,
    figures: &mut Figures,
    checks: &mut Vec<String>,
    attempted: &mut u64,
    live_bytes: f64,
) {
    let (checked, failures) = r.model.compare_store(&store.db);
    *attempted += checked;
    for _ in 0..failures {
        checks.push("full comparison with the model".into());
    }
    figures.insert("space_amp", dir_bytes(r.dir, None) as f64 / live_bytes);
}

fn failed_round(e: String) -> RoundResult {
    eprintln!("round failed: {e}");
    RoundResult {
        figures: Figures::new(),
        attempted: 1,
        failed: 1,
        spans: Vec::new(),
    }
}

/// One client puts `ops` uniform keys; the phase ends when `flush_all`
/// returns.
fn ingest_phase(
    r: &Round<'_>,
    tracer: &Tracer,
    db: &FloDb,
    rng: &mut Rng,
) -> (Client, f64, Vec<u64>) {
    let model = r.model;
    let stream: Vec<u64> = (0..r.size.ops).map(|_| rng.below(model.keys)).collect();
    let mut client = Client::default();
    client.put_ns.reserve(stream.len());
    let t = Instant::now();
    for &i in &stream {
        put(tracer, db, model, CLIENT_A, i, &mut client);
    }
    tracer.store_call(Op::FlushAll, || db.flush_all());
    (client, t.elapsed().as_secs_f64(), stream)
}

/// Two clients, each 50% puts to its own half of the keys and 50% gets
/// over all keys.
fn mixed_phase(
    r: &Round<'_>,
    tracer: &Tracer,
    db: &FloDb,
    rng: &mut Rng,
) -> (Client, f64, Vec<u64>) {
    let model = r.model;
    let half = model.keys / 2;
    let streams: Vec<Vec<(bool, u64)>> = [0, half]
        .into_iter()
        .map(|lo| {
            (0..r.size.ops)
                .map(|_| {
                    if rng.below(2) == 0 {
                        (true, lo + rng.below(half))
                    } else {
                        (false, rng.below(model.keys))
                    }
                })
                .collect()
        })
        .collect();
    let put_stream: Vec<u64> = streams[0]
        .iter()
        .filter(|(p, _)| *p)
        .map(|&(_, i)| i)
        .collect();
    let barrier = Barrier::new(2);
    let t = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip([CLIENT_A, CLIENT_B])
            .map(|(stream, id)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = Client::default();
                    barrier.wait();
                    for window in stream.chunks(WINDOW_OPS) {
                        let t = Instant::now();
                        for &(is_put, i) in window {
                            if is_put {
                                put(tracer, db, model, id, i, &mut client);
                            } else {
                                get(tracer, db, model, id, i, &mut client);
                            }
                        }
                        if window.len() == WINDOW_OPS {
                            client.window_ns.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let mut all = Client::default();
    for c in clients {
        all.merge(c);
    }
    (all, secs, put_stream)
}

/// Client A: `ops` operations, 10% puts and 90% gets, half of the gets
/// for absent keys. Client B: `scans` 100-key scans. Both run to the end
/// of their fixed work; the phase ends when the later one finishes, so
/// slower scans lengthen it.
fn read_scan_phase(
    r: &Round<'_>,
    tracer: &Tracer,
    db: &FloDb,
    rng: &mut Rng,
) -> (Client, f64, Vec<u64>) {
    let model = r.model;
    let keys = model.keys;
    let stream: Vec<(bool, u64)> = (0..r.size.ops)
        .map(|n| {
            if n % 10 == 0 {
                (true, rng.below(keys))
            } else if rng.below(2) == 0 {
                (false, rng.below(keys))
            } else {
                (false, keys + rng.below(keys))
            }
        })
        .collect();
    let scans: Vec<usize> = (0..r.size.scans)
        .map(|_| rng.below(keys - SCAN_KEYS + 1) as usize)
        .collect();
    let put_stream: Vec<u64> = stream.iter().filter(|(p, _)| *p).map(|&(_, i)| i).collect();
    let barrier = Barrier::new(3);
    let (a, b, secs) = std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            let mut client = Client::default();
            barrier.wait();
            for &start in &scans {
                scan(tracer, db, model, CLIENT_B, start, &mut client);
            }
            client
        });
        let getter = s.spawn(|| {
            let mut client = Client::default();
            barrier.wait();
            for &(is_put, i) in &stream {
                if is_put {
                    put(tracer, db, model, CLIENT_A, i, &mut client);
                } else {
                    get(tracer, db, model, CLIENT_A, i, &mut client);
                }
            }
            client
        });
        barrier.wait();
        let t = Instant::now();
        let a = getter.join().expect("get/put thread panicked");
        let b = scanner.join().expect("scan thread panicked");
        (a, b, t.elapsed().as_secs_f64())
    });
    let mut all = a;
    all.merge(b);
    (all, secs, put_stream)
}

/// A fresh per-round store directory under `root`.
pub fn round_dir(root: &Path, workload: Workload, round: usize) -> PathBuf {
    root.join(format!("{}-r{round}", workload.name()))
}
