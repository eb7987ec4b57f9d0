//! Per-layer figures of the traced run, from the deltas of the engine's
//! public counters and telemetry over the measured phase, the Env and
//! store spans, and the standalone cells.

use std::collections::HashSet;

use flodb_core::telemetry::{Histogram, StageClass};

use crate::cells::CellFigures;
use crate::metrics::{percentile, ratio, Figures};
use crate::probe::{EnvTotals, FileKind, Op, Span};
use crate::workloads::{sorted, us, Client, Snap};

fn hist_sum_s(h: &Histogram) -> f64 {
    h.mean_ns() * h.count() as f64 / 1e9
}

fn hist_us(h: &Histogram, p: f64) -> f64 {
    us(h.percentile_ns(p) as f64)
}

/// Flush and compaction output bytes, told apart on each background
/// thread: the SST appends between two manifest appends are one
/// compaction when that thread read SSTs in between (merging inputs), a
/// flush otherwise.
fn persist_bytes(spans: &[Span]) -> (u64, u64) {
    let mut bg: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && !s.op.is_client())
        .collect();
    bg.sort_by_key(|s| (s.thread, s.start_ns));
    let (mut flush, mut compaction) = (0, 0);
    let mut thread = u32::MAX;
    let (mut pending, mut read) = (0u64, false);
    let mut settle = |pending: &mut u64, read: &mut bool| {
        if *read {
            compaction += *pending;
        } else {
            flush += *pending;
        }
        *pending = 0;
        *read = false;
    };
    for s in bg {
        if s.thread != thread {
            settle(&mut pending, &mut read);
            thread = s.thread;
        }
        match (s.op, s.kind) {
            (Op::Read, FileKind::Sst) => read = true,
            (Op::Append, FileKind::Sst) => pending += s.bytes,
            (Op::Append, FileKind::Manifest) if pending > 0 => settle(&mut pending, &mut read),
            _ => {}
        }
    }
    settle(&mut pending, &mut read);
    (flush, compaction)
}

fn span_p50_us(spans: &[Span], op: Op) -> f64 {
    let durs = sorted(
        spans
            .iter()
            .filter(|s| s.op == op)
            .map(Span::dur_ns)
            .collect(),
    );
    us(percentile(&durs, 50.0) as f64)
}

#[allow(clippy::too_many_arguments)]
pub fn figures(
    f: &mut Figures,
    a: &Snap,
    b: &Snap,
    spans: &[Span],
    client: &Client,
    cells: &CellFigures,
    user_bytes: u64,
    env: EnvTotals,
) {
    let tel = b.telemetry.delta_since(&a.telemetry);
    let stage = |s: StageClass| tel.stage(s);
    let d = |x: u64, y: u64| (y - x) as f64;
    let puts = client.put_ns.len() as f64;
    let gets = client.get_ns.len() as f64;

    f.insert(
        "client.put_p99_us",
        us(percentile(&sorted(client.put_ns.clone()), 99.0) as f64),
    );
    for (from, to) in [
        ("get_p50_us", "client.get_p50_us"),
        ("scan_p50_us", "client.scan_p50_us"),
        ("scan_keys_per_s", "client.scan_keys_per_s"),
    ] {
        f.insert(to, f.get(from).copied().unwrap_or(0.0));
    }
    f.insert(
        "client.write_amp",
        ratio(env.written() as f64, user_bytes as f64),
    );
    f.insert("client.recover_s", 0.0);
    f.insert("recovery.wal_mb", 0.0);
    f.insert("recovery.replay_mb_per_s", 0.0);

    f.insert("membuffer.add_ns", cells.membuffer_add_ns);
    f.insert("membuffer.get_ns", cells.membuffer_get_ns);
    f.insert(
        "membuffer.write_share",
        ratio(d(a.membuffer_writes, b.membuffer_writes), puts),
    );
    f.insert(
        "memtable.multi_insert_ns_per_key",
        cells.multi_insert_ns_per_key,
    );
    f.insert("memtable.get_ns", cells.memtable_get_ns);

    f.insert(
        "drain.entries_per_batch",
        ratio(
            d(a.drained_entries, b.drained_entries),
            d(a.drain_batches, b.drain_batches),
        ),
    );
    f.insert("drain.writer_helps", d(a.writer_helps, b.writer_helps));
    let stall_s = d(a.stats.write_stall_ns, b.stats.write_stall_ns) / 1e9;
    f.insert("stall.count", d(a.write_stalls, b.write_stalls));
    f.insert("stall.s", stall_s);
    f.insert("stall.s_per_mput", ratio(stall_s, puts / 1e6));

    f.insert(
        "wal.records_per_group",
        ratio(
            d(a.stats.wal_group_records, b.stats.wal_group_records),
            d(a.stats.wal_groups, b.stats.wal_groups),
        ),
    );
    f.insert(
        "wal.commit_wait_p50_us",
        hist_us(stage(StageClass::CommitWait), 50.0),
    );
    f.insert(
        "wal.write_p50_us",
        hist_us(stage(StageClass::WalWrite), 50.0),
    );
    f.insert(
        "wal.fsync_p50_us",
        hist_us(stage(StageClass::WalFsync), 50.0),
    );
    f.insert(
        "wal.rotations",
        d(a.stats.wal_rotations, b.stats.wal_rotations),
    );
    f.insert(
        "wal.rotation_p99_us",
        hist_us(stage(StageClass::WalRotation), 99.0),
    );

    let (flush_bytes, compaction_bytes) = persist_bytes(spans);
    let flush_s = hist_sum_s(stage(StageClass::MemtableFlush));
    f.insert("flush.count", d(a.disk.flushes, b.disk.flushes));
    f.insert("flush.busy_s", flush_s);
    f.insert("flush.mb_per_s", ratio(flush_bytes as f64 / 1e6, flush_s));
    f.insert(
        "compaction.count",
        d(a.disk.compactions, b.disk.compactions),
    );
    f.insert(
        "compaction.busy_s",
        hist_sum_s(stage(StageClass::Compaction)),
    );
    f.insert("compaction.mb_written", compaction_bytes as f64 / 1e6);

    let get_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.op == Op::Get)
        .map(|s| s.id)
        .collect();
    let get_reads: Vec<&Span> = spans
        .iter()
        .filter(|s| s.op == Op::Read && s.kind == FileKind::Sst && get_ids.contains(&s.parent))
        .collect();
    f.insert("sst.reads_per_get", ratio(get_reads.len() as f64, gets));
    f.insert(
        "sst.read_kb_per_get",
        ratio(
            get_reads.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1024.0,
            gets,
        ),
    );
    f.insert(
        "table_cache.miss_ratio",
        ratio(
            d(a.disk.cache_misses, b.disk.cache_misses),
            d(
                a.disk.cache_hits + a.disk.cache_misses,
                b.disk.cache_hits + b.disk.cache_misses,
            ),
        ),
    );
    f.insert(
        "disk.l0_files",
        a.disk.files_per_level.first().copied().unwrap_or(0) as f64,
    );

    let store_scans = d(a.stats.scans, b.stats.scans);
    f.insert(
        "scan.freeze_drain_p50_us",
        hist_us(stage(StageClass::FreezeDrain), 50.0),
    );
    f.insert(
        "scan.master_share",
        ratio(d(a.master_scans, b.master_scans), store_scans),
    );
    f.insert(
        "scan.piggyback_share",
        ratio(d(a.piggyback_scans, b.piggyback_scans), store_scans),
    );
    f.insert(
        "scan.restarts_per_scan",
        ratio(d(a.stats.scan_restarts, b.stats.scan_restarts), store_scans),
    );
    f.insert(
        "scan.fallbacks",
        d(a.stats.fallback_scans, b.stats.fallback_scans),
    );

    f.insert("env.mb_written.wal", env.written_wal as f64 / 1e6);
    f.insert("env.mb_written.sst", env.written_sst as f64 / 1e6);
    f.insert("env.mb_written.manifest", env.written_manifest as f64 / 1e6);
    f.insert("env.syncs", env.syncs as f64);
    f.insert("env.sync_p50_us", span_p50_us(spans, Op::Sync));
    f.insert("env.read_calls", env.reads as f64);
    f.insert("env.read_p50_us", span_p50_us(spans, Op::Read));

    // Share of the clients' time in store calls that the named layers
    // explain: Membuffer adds and Memtable inserts (cell cost per write
    // that took each path), group-commit wait, WAL write and fsync,
    // stalls, the Membuffer and Memtable probes of every get (cell cost),
    // the Env reads under client calls, and — when clients scanned — the
    // scan masters' freeze-drains (otherwise the only freeze-drains are
    // the persist thread's, off the clients' path).
    let client_spans: HashSet<u64> = spans
        .iter()
        .filter(|s| matches!(s.op, Op::Put | Op::Get | Op::Scan))
        .map(|s| s.id)
        .collect();
    let client_ns: u64 = spans
        .iter()
        .filter(|s| client_spans.contains(&s.id))
        .map(Span::dur_ns)
        .sum();
    let reads_under_clients: u64 = spans
        .iter()
        .filter(|s| s.op == Op::Read && client_spans.contains(&s.parent))
        .map(Span::dur_ns)
        .sum();
    let mut stages = vec![
        StageClass::CommitWait,
        StageClass::WalWrite,
        StageClass::WalFsync,
        StageClass::WriteStall,
    ];
    if !client.scan_ns.is_empty() {
        stages.push(StageClass::FreezeDrain);
    }
    let stage_ns: f64 = stages.into_iter().map(|s| hist_sum_s(stage(s)) * 1e9).sum();
    let explained_ns = d(a.membuffer_writes, b.membuffer_writes) * cells.membuffer_add_ns
        + d(a.memtable_writes, b.memtable_writes) * cells.multi_insert_ns_per_key
        + gets * (cells.membuffer_get_ns + cells.memtable_get_ns)
        + stage_ns
        + reads_under_clients as f64;
    f.insert(
        "trace.explained_share",
        ratio(explained_ns, client_ns as f64),
    );
}
