//! The polychrony benchmark: end-to-end time to verdict on three
//! workloads, and a traced run that breaks it down by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload case_study_product|free_open|vopr_served \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Each run also writes its metrics with quartiles and sample counts, and
//! with `--trace 1` its spans, under `.bench_out/`. See `README.md` for
//! the definition of every metric.

mod case_study;
mod free_open;
mod stats;
mod trace;
mod vopr_served;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use polychrony_core::polyobs::json::escape;

/// Where runs leave their metrics, spans and sockets, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["case_study_product", "free_open", "vopr_served"];

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_p95_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

const PER_LAYER: [(&str, &str); 32] = [
    ("aadl.parse_s", "s"),
    ("aadl.instantiate_s", "s"),
    ("aadl.components", "count"),
    ("sched.schedule_s", "s"),
    ("sched.rejected", "count"),
    ("translate.translate_s", "s"),
    ("translate.equations", "count"),
    ("signal.analyze_s", "s"),
    ("signal.clocks", "count"),
    ("sim.simulate_s", "s"),
    ("sim.instants", "count"),
    ("verify.setup_s", "s"),
    ("verify.thread_s", "s"),
    ("verify.product_s", "s"),
    ("verify.states", "count"),
    ("verify.transitions", "count"),
    ("verify.peak_frontier", "count"),
    ("verify.ns_per_state", "ns"),
    ("verify.memo_hit_ratio", "ratio"),
    ("verify.speedup_2w", "ratio"),
    ("signal.eval_step_ns", "ns"),
    ("verify.monitor_step_ns", "ns"),
    ("verify.intern_ns", "ns"),
    ("verify.expand_residual_ns", "ns"),
    ("core.cache_miss", "count"),
    ("core.cache_frontend_hit", "count"),
    ("core.cache_simulated_hit", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("server.queue_wait_s", "s"),
    ("server.job_s", "s"),
    ("server.busy_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Operations checked against a known answer.
    pub attempted: u64,
    /// Operations whose answer contradicts the known answer.
    pub wrong: Vec<String>,
    /// Operations that errored out instead of answering.
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Time to verdict of the untraced repetitions (or jobs).
    pub verdict_s: Vec<f64>,
    pub jobs_per_s: Vec<f64>,
    /// Peak resident set size of each untraced repetition (or pass), each
    /// measured from a reset of the high-water mark.
    pub peak_rss_mb: Vec<f64>,
    /// Traced over untraced time to verdict, one sample per pair of
    /// repetitions (or passes) run back to back.
    pub overhead: Vec<f64>,
    /// Per-layer samples, one per traced repetition unless stated.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<trace::SpanRec>,
}

impl Measured {
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    pub fn error(&mut self, what: String) {
        self.errors.push(what);
    }

    fn failed(&self) -> u64 {
        (self.wrong.len() + self.errors.len()) as u64
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    /// Appends one sample of the self time of span `name`, reported as the
    /// metric `<name>_s`.
    pub fn push_s(&mut self, name: &str, value: f64) {
        self.push(seconds_metric(name), value);
    }

    pub fn layer(&mut self, name: &'static str, samples: Vec<f64>) {
        self.layers.entry(name).or_default().extend(samples);
    }

    pub fn layer_s(&mut self, name: &str, samples: Vec<f64>) {
        self.layer(seconds_metric(name), samples);
    }
}

fn seconds_metric(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix("_s") == Some(span))
        .unwrap_or_else(|| panic!("no per-layer metric for span {span}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

/// Resets this process's peak resident set size to its current size, so
/// that [`peak_rss_mb`] measures the repetition that follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs from, when it is a git
/// work tree; `unknown` otherwise.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A metric's summary: reported value, quartiles and sample count.
struct Summary {
    name: &'static str,
    unit: &'static str,
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
    /// The samples themselves, kept for the per-run record when few.
    samples: Vec<f64>,
}

impl Summary {
    fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        Self {
            name,
            unit,
            value: stats::median(samples),
            q1,
            q3,
            n: samples.len(),
            samples: if samples.len() <= 100 {
                samples.to_vec()
            } else {
                Vec::new()
            },
        }
    }

    fn with_value(mut self, value: f64) -> Self {
        self.value = value;
        self
    }
}

fn end_to_end(m: &Measured) -> Vec<Summary> {
    let success = (m.attempted - m.failed()) as f64 / m.attempted.max(1) as f64;
    END_TO_END
        .iter()
        .map(|&(name, unit)| match name {
            "setup_s" => Summary::of(name, unit, &m.setup_s),
            "verdict_s" => Summary::of(name, unit, &m.verdict_s),
            "verdict_p95_s" => {
                Summary::of(name, unit, &m.verdict_s).with_value(stats::p95(&m.verdict_s))
            }
            "jobs_per_s" => Summary::of(name, unit, &m.jobs_per_s),
            // The smallest per-repetition peak: memory the allocator keeps
            // from earlier repetitions inflates the later ones.
            "peak_rss_mb" => Summary::of(name, unit, &m.peak_rss_mb)
                .with_value(m.peak_rss_mb.iter().copied().fold(f64::INFINITY, f64::min)),
            "success_rate" => Summary::of(name, unit, &[success]),
            _ => unreachable!("every end-to-end metric is listed"),
        })
        .collect()
}

fn per_layer(m: &Measured) -> Vec<Summary> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| match name {
            "trace.overhead_ratio" => Summary::of(name, unit, &m.overhead),
            _ => Summary::of(
                name,
                unit,
                m.layers.get(name).map_or(&[][..], Vec::as_slice),
            ),
        })
        .collect()
}

/// Plain decimal rendering of a finite number (JSON has no NaN).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("polybench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("polybench: cannot create {OUT_DIR}: {err}");
        return ExitCode::from(1);
    }
    let measured = match args.workload.as_str() {
        "case_study_product" => case_study::run(args.seconds, args.trace),
        "free_open" => free_open::run(args.seconds, args.trace),
        _ => vopr_served::run(args.seed, args.seconds, args.trace),
    };
    let summaries = if args.trace {
        per_layer(&measured)
    } else {
        end_to_end(&measured)
    };

    let stamp = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":\"{}\",\"nproc\":{},\"profile\":\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_sha(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let mut detail = String::new();
    for s in &summaries {
        let _ = write!(
            detail,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
            if detail.is_empty() { "" } else { "," },
            s.name,
            num(s.value),
            s.unit,
            num(s.q1),
            num(s.q3),
            s.n,
            s.samples.iter().map(|v| num(*v)).collect::<Vec<_>>().join(",")
        );
    }
    let errors: Vec<String> = measured
        .wrong
        .iter()
        .map(|w| format!("wrong: {w}"))
        .chain(measured.errors.iter().map(|e| format!("error: {e}")))
        .collect();
    let base = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{{stamp},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{detail}}}}}\n",
        measured.attempted,
        measured.failed(),
        errors
            .iter()
            .map(|e| escape(e))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut written = std::fs::write(format!("{base}.json"), record);
    if args.trace {
        written = written.and_then(|()| {
            std::fs::write(
                format!("{base}.spans.jsonl"),
                trace::to_json_lines(&measured.spans),
            )
        });
    }
    if let Err(err) = written {
        eprintln!("polybench: cannot write {base}.*: {err}");
        return ExitCode::from(1);
    }

    println!("# {{{stamp}}}");
    for e in errors.iter().take(8) {
        println!("# {e}");
    }
    for s in &summaries {
        println!(
            "# {:<28} {:>14.6} {:<6} q1 {:>14.6}  q3 {:>14.6}  n {}",
            s.name, s.value, s.unit, s.q1, s.q3, s.n
        );
    }
    let metrics: Vec<String> = summaries
        .iter()
        .map(|s| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                s.name,
                num(s.value),
                s.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        measured.wrong.is_empty(),
        measured.attempted,
        measured.failed(),
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
