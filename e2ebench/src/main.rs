//! End-to-end FloDB benchmark on real files.
//!
//! ```text
//! e2ebench --workload <ingest|durable_mixed|read_scan> --seed N --seconds S --trace 0|1
//!          [--repeat N] [--memory-mb M] [--small]
//! e2ebench --benchmark-json
//! ```
//!
//! A run repeats whole rounds of its workload (set-up, measured phase,
//! checks) until `--seconds` have passed and reports each metric's
//! median over the rounds. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`).
//! `--repeat N` is the steadiness mode: N runs with seeds `seed..seed+N`
//! per workload (`--workload all` for every one), printing each metric's
//! median, quartiles and spread against its bound. Stores live under
//! `.e2ebench/` in the working directory and are removed after each round;
//! a traced run leaves its first round's spans there.

mod cells;
mod keys;
mod layers;
mod metrics;
mod model;
mod probe;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use keys::KeySpace;
use metrics::{
    find, median, median_figures, quartiles, Figures, END_TO_END, PER_LAYER, WORKLOAD_FIGURES,
};
use model::Model;
use workloads::{round_dir, run_round, Round, Size, Workload};

/// The run length `BENCHMARK.json` declares (and the default `--seconds`).
const RUN_SECONDS: u64 = 25;
const WORK_DIR: &str = ".e2ebench";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    memory_mb: Option<usize>,
    small: bool,
    benchmark_json: bool,
}

const USAGE: &str = "usage: e2ebench --workload <ingest|durable_mixed|read_scan> --seed N --seconds S --trace 0|1 [--repeat N] [--memory-mb M] [--small] | --benchmark-json";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: None,
        memory_mb: None,
        small: false,
        benchmark_json: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |s: String, name: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|_| format!("{name}: not a whole number: {s}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => out.seed = number(value("--seed")?, "--seed")?,
            "--seconds" => out.seconds = number(value("--seconds")?, "--seconds")?,
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => out.repeat = Some(number(value("--repeat")?, "--repeat")? as usize),
            "--memory-mb" => {
                out.memory_mb = Some(number(value("--memory-mb")?, "--memory-mb")? as usize)
            }
            "--small" => out.small = true,
            "--benchmark-json" => out.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !out.benchmark_json && out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// One run: rounds of one workload until the time is up.
struct RunResult {
    figures: Figures,
    rounds: usize,
    attempted: u64,
    failed: u64,
}

fn run(w: Workload, args: &Args, seed: u64, root: &Path) -> RunResult {
    let mut size = Size::of(w, args.small);
    if let Some(mb) = args.memory_mb {
        size.memory_bytes = mb << 20;
    }
    let owners = match w {
        Workload::DurableMixed => [1, 2],
        _ => [1, 1],
    };
    let model = Model::new(KeySpace::new(seed), size.keys, owners);
    let work = root.join(format!("run-{}-{}-{seed}", std::process::id(), w.name()));
    let mut rounds: Vec<Figures> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut cells = None;
    let mut first_spans = None;
    let start = Instant::now();
    loop {
        let dir = round_dir(&work, w, rounds.len());
        let _ = std::fs::remove_dir_all(&dir);
        let result = run_round(
            &Round {
                workload: w,
                size,
                seed,
                trace: args.trace,
                dir: &dir,
                model: &model,
            },
            &mut cells,
        );
        let _ = std::fs::remove_dir_all(&dir);
        attempted += result.attempted;
        failed += result.failed;
        let line: Vec<String> = result
            .figures
            .iter()
            .filter(|(k, _)| !k.contains('.'))
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        println!(
            "{} seed {seed} round {}: {}",
            w.name(),
            rounds.len(),
            line.join(" ")
        );
        if args.trace && first_spans.is_none() {
            first_spans = Some(result.spans);
        }
        rounds.push(result.figures);
        if start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    if let Some(spans) = first_spans {
        let path = root.join(format!("spans-{}-seed{seed}.tsv", w.name()));
        match probe::write_spans(&path, &spans) {
            Ok(()) => println!(
                "{} spans of round 0 written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    RunResult {
        figures: median_figures(&rounds),
        rounds: rounds.len(),
        attempted,
        failed,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object: end-to-end metrics untraced, per-layer traced.
fn result_json(r: &RunResult, trace: bool) -> String {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = r.figures.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn print_workload_figures(w: Workload, r: &RunResult) {
    for (name, unit) in WORKLOAD_FIGURES {
        if let Some(v) = r.figures.get(name) {
            println!(
                "{}/{name} = {v:.4} {unit} (median of {} rounds)",
                w.name(),
                r.rounds
            );
        }
    }
}

/// Steadiness mode: `repeat` runs per workload, one seed each.
fn steadiness(workloads: &[Workload], args: &Args, repeat: usize, root: &Path) {
    for &w in workloads {
        let runs: Vec<RunResult> = (0..repeat as u64)
            .map(|k| run(w, args, args.seed + k, root))
            .collect();
        let shares: Vec<String> = runs
            .iter()
            .map(|r| format!("{}/{}", r.failed, r.attempted))
            .collect();
        println!(
            "== {} over {repeat} seeds from {}: failed/attempted {}",
            w.name(),
            args.seed,
            shares.join(" ")
        );
        let mut names: Vec<&'static str> = runs
            .iter()
            .flat_map(|r| r.figures.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.figures.get(name).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let med = median(&values);
            let (q1, q3) = quartiles(&values);
            let spread = metrics::ratio(q3 - q1, med.abs());
            let bound = find(name).and_then(|m| m.bound);
            let verdict = match bound {
                Some(b) if spread > b => "OUTSIDE BOUND",
                Some(b) if spread > b / 3.0 => "within bound, above a third",
                Some(_) => "steady",
                None => "",
            };
            println!(
                "{:<34} median {:>12.4}  q1 {:>12.4}  q3 {:>12.4}  spread {:>6.3}  bound {:<5}  {verdict}",
                format!("{}/{name}", w.name()),
                med,
                q1,
                q3,
                spread,
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.benchmark_json {
        let workloads: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        print!("{}", metrics::benchmark_json(RUN_SECONDS, &workloads));
        return;
    }
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {}\n{USAGE}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let root = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("cannot create {WORK_DIR}: {e}");
        std::process::exit(1);
    }
    if let Some(repeat) = args.repeat {
        steadiness(&workloads, &args, repeat, &root);
        return;
    }
    let [w] = workloads[..] else {
        eprintln!("one workload per run; `all` needs --repeat\n{USAGE}");
        std::process::exit(2);
    };
    let result = run(w, &args, args.seed, &root);
    print_workload_figures(w, &result);
    println!("{}", result_json(&result, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_args(trace: bool) -> Args {
        parse_args(
            [
                "--workload",
                "ingest",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                if trace { "1" } else { "0" },
                "--small",
            ]
            .map(String::from),
        )
        .unwrap()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e2ebench-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every workload at the small size, untraced and traced: no failed
    /// operation or check, and every metric of the result object present
    /// and finite (end-to-end metrics also nonzero).
    #[test]
    fn every_workload_runs_clean_at_the_small_size() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let root = scratch(&format!("{}-{trace}", w.name()));
                let r = run(w, &small_args(trace), 3, &root);
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
                assert!(r.attempted > 0);
                let set = if trace { PER_LAYER } else { END_TO_END };
                for m in set {
                    let v = r.figures.get(m.name).copied();
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{}: {} missing",
                        w.name(),
                        m.name
                    );
                    if !trace {
                        assert!(v.unwrap() > 0.0, "{}: {} is 0", w.name(), m.name);
                    }
                }
                let json = result_json(&r, trace);
                assert!(json.starts_with("{\"correct\": true"));
                std::fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalogue() {
        let workloads: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        assert_eq!(committed, metrics::benchmark_json(RUN_SECONDS, &workloads));
        assert!(workloads.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn arguments_are_checked() {
        assert!(parse_args(["--workload", "x", "--trace", "2"].map(String::from)).is_err());
        assert!(parse_args(["--seed", "-1", "--workload", "x"].map(String::from)).is_err());
        assert!(parse_args(["--bogus"].map(String::from)).is_err());
        assert!(parse_args(Vec::<String>::new()).is_err());
    }
}
