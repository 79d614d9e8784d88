//! The repository's benchmark: end-to-end metrics of the soft-scheduling
//! flow and its service on three seeded workloads, and a separate
//! traced run giving per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow-cold|flow-large|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). Each run also leaves a record
//! of its metrics and corpus fingerprint, and with `--trace 1` the
//! Chrome trace of its spans, under `perfbench/out/`.

mod corpus;
mod flows;
mod layers;
mod replica;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_owned(name.to_string(), value, unit);
    }

    pub fn push_owned(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result of one run.
pub struct Outcome {
    pub metrics: Metrics,
    /// Printed with the metrics but outside the result: figures the
    /// benchmark reports without a regression bound.
    pub info: Metrics,
    pub attempted: u64,
    /// Failed or refused operations, including oracle mismatches.
    pub failed: u64,
    /// Oracle mismatches and errors; any one makes the run incorrect.
    pub problems: Vec<String>,
    /// Fingerprint of the generated inputs.
    pub corpus_hash: u64,
    /// The per-operation latencies, for the sample-count report.
    pub samples: Vec<f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(corpus_hash: u64) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            info: Metrics::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            corpus_hash,
            samples: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a wrong or missing output.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Writes the spans as Chrome trace JSON, after checking it with
    /// the observability crate's strict validator.
    pub fn write_trace(&mut self, tr: &trace::Tracer, path: &Path) {
        let json = tr.chrome_json();
        if let Err(at) = hls_obs::export::validate_json(&json) {
            self.fail(format!("trace JSON invalid at byte {at}"));
            return;
        }
        if let Err(e) = std::fs::write(path, json) {
            self.fail(format!("cannot write {}: {e}", path.display()));
        }
        self.notes.push(format!(
            "trace: {} spans, valid Chrome JSON, written to {}",
            tr.spans.len(),
            path.display()
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["flow-cold", "flow-large", "serve-mix"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(val.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// A JSON number for `v`: non-finite values (a percentile over failed
/// requests) are written as a large finite sentinel.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e9".into()
    }
}

fn run(a: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let trace_path = out_dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
    match (a.workload.as_str(), a.trace) {
        ("flow-cold", false) => flows::timed(a.seed, a.seconds, false),
        ("flow-large", false) => flows::timed(a.seed, a.seconds, true),
        ("flow-cold", true) => flows::traced(a.seed, false, &trace_path),
        ("flow-large", true) => flows::traced(a.seed, true, &trace_path),
        ("serve-mix", false) => serve::timed(a.seed, a.seconds, out_dir),
        ("serve-mix", true) => serve::traced(a.seed, a.seconds, out_dir, &trace_path),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let o = match run(&args, &out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} trace {}: corpus fingerprint {:016x}",
        args.workload, args.seed, args.trace as u8, o.corpus_hash
    );
    for note in &o.notes {
        println!("  {note}");
    }
    if !o.samples.is_empty() {
        let s = &o.samples;
        println!(
            "  {} latency samples; beyond p90: {}, beyond p99: {}",
            s.len(),
            stats::beyond(s, 90.0),
            stats::beyond(s, 99.0)
        );
    }
    for (name, value, unit) in &o.metrics.0 {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for (name, value, unit) in &o.info.0 {
        println!("  {name:<32} {value:>14.4} {unit}  (no bound: see perfbench/README.md)");
    }
    for p in o.problems.iter().take(20) {
        println!("  FAILED CHECK: {p}");
    }
    let correct = o.problems.is_empty();
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    let info: Vec<String> = o
        .info
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"corpus_fingerprint\": \"{:016x}\", \"result\": {result}, \"unbounded\": {{{}}}}}\n",
        args.workload,
        args.seed,
        args.trace as u8,
        o.corpus_hash,
        info.join(", ")
    );
    let record_path = out_dir.join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
