//! The metric catalogue (the single source of `BENCHMARK.json`'s metric
//! lists) and the order statistics the benchmark reports.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload produces each of them from its own
/// operations, so every untraced run reports all of them.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("space_amp", "ratio", Lower, 0.1),
];

/// Figures only some workloads produce. An untraced run prints the ones
/// its workload produces as report lines (never in the result object);
/// the traced run carries them as the `client.*` per-layer metrics.
pub const WORKLOAD_FIGURES: &[(&str, &str)] = &[
    ("put_p99_us", "us"),
    ("get_p50_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_keys_per_s", "1/s"),
    ("write_amp", "ratio"),
    ("recover_s", "s"),
];

/// Per-layer metrics of the traced run. Each names the end-to-end figure
/// it should move in the README's table.
pub const PER_LAYER: &[Metric] = &[
    // Client view (the store API spans of the traced run).
    layer("client.put_p99_us", "us", Lower),
    layer("client.get_p50_us", "us", Lower),
    layer("client.scan_p50_us", "us", Lower),
    layer("client.scan_keys_per_s", "1/s", Higher),
    layer("client.write_amp", "ratio", Lower),
    layer("client.recover_s", "s", Lower),
    layer("trace.explained_share", "ratio", Higher),
    // flodb-membuffer
    layer("membuffer.add_ns", "ns", Lower),
    layer("membuffer.get_ns", "ns", Lower),
    layer("membuffer.write_share", "ratio", Higher),
    // flodb-memtable
    layer("memtable.multi_insert_ns_per_key", "ns", Lower),
    layer("memtable.get_ns", "ns", Lower),
    // core::drain and the write stall
    layer("drain.entries_per_batch", "count", Higher),
    layer("drain.writer_helps", "count", Lower),
    layer("stall.count", "count", Lower),
    layer("stall.s", "s", Lower),
    layer("stall.s_per_mput", "s", Lower),
    // flodb-sync group commit and flodb-storage::wal
    layer("wal.records_per_group", "count", Higher),
    layer("wal.commit_wait_p50_us", "us", Lower),
    layer("wal.write_p50_us", "us", Lower),
    layer("wal.fsync_p50_us", "us", Lower),
    layer("wal.rotations", "count", Lower),
    layer("wal.rotation_p99_us", "us", Lower),
    // Persist (memtable flush) and flodb-storage::compaction
    layer("flush.count", "count", Lower),
    layer("flush.busy_s", "s", Lower),
    layer("flush.mb_per_s", "MB/s", Higher),
    layer("compaction.count", "count", Lower),
    layer("compaction.busy_s", "s", Lower),
    layer("compaction.mb_written", "MB", Lower),
    // SST read path: sstable, bloom, table_cache
    layer("sst.reads_per_get", "count", Lower),
    layer("sst.read_kb_per_get", "KB", Lower),
    layer("table_cache.miss_ratio", "ratio", Lower),
    layer("disk.l0_files", "count", Lower),
    // core::scan
    layer("scan.freeze_drain_p50_us", "us", Lower),
    layer("scan.master_share", "ratio", Lower),
    layer("scan.piggyback_share", "ratio", Higher),
    layer("scan.restarts_per_scan", "count", Lower),
    layer("scan.fallbacks", "count", Lower),
    // Env (the device, through the counting wrapper)
    layer("env.mb_written.wal", "MB", Lower),
    layer("env.mb_written.sst", "MB", Lower),
    layer("env.mb_written.manifest", "MB", Lower),
    layer("env.syncs", "count", Lower),
    layer("env.sync_p50_us", "us", Lower),
    layer("env.read_calls", "count", Lower),
    layer("env.read_p50_us", "us", Lower),
    // Recovery
    layer("recovery.wal_mb", "MB", Lower),
    layer("recovery.replay_mb_per_s", "MB/s", Higher),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One round's (or one run's) figures by metric name.
pub type Figures = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when nothing was measured (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `p`-th percentile (0..=100) of `sorted` by nearest rank; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method); needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let at = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (at(1), at(3))
}

/// Per-metric medians over rounds: every key present in any round.
pub fn median_figures(rounds: &[Figures]) -> Figures {
    let mut names: Vec<&'static str> = rounds.iter().flat_map(|r| r.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            (name, median(&values))
        })
        .collect()
}

fn json_string(s: &str) -> String {
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, generated from the catalogue above.
pub fn benchmark_json(run_seconds: u64, workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"e2ebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(name),
                json_string(why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.name()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.name())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = find("setup_s").and_then(|m| m.bound).unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup && setup <= 0.25));
    }
}
