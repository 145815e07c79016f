//! `free_open`: free-input exploration of an open SIGNAL component, the
//! width-4 counter bank, at depth 12 on 2 workers.
//!
//! Each counter `c_i` counts up while its boolean input `d_i` is true and
//! drops to 0 otherwise, so after `k` instants it can hold any value in
//! `0..=k` independently of the others: the reachable states within depth
//! `D` are exactly `(D + 1)^W`, and the alarm (`c0 >= 1000`) is never
//! raised. That count is the known answer.

use std::time::{Duration, Instant};

use polychrony_core::polyverify::{InputSpace, Property, Verifier, VerifyOptions};
use polychrony_core::signal_moc::builder::ProcessBuilder;
use polychrony_core::signal_moc::expr::Expr;
use polychrony_core::signal_moc::process::Process;
use polychrony_core::signal_moc::value::{Value, ValueType};

use crate::trace::{self, Tracer};
use crate::Measured;

const WIDTH: usize = 4;
const DEPTH: usize = 12;
const WORKERS: usize = 2;
/// Set-up repetitions before every exploration: set-up takes microseconds,
/// so its median needs many samples, taken across the whole run.
const SETUP_REPS: usize = 50;

/// The counter bank (the `wide_watcher` model of the `state_space` bench).
fn counter_bank(width: usize) -> Process {
    let mut b = ProcessBuilder::new("wide");
    let mut sync_names = Vec::new();
    for i in 0..width {
        let d = format!("d{i}");
        let counter = format!("c{i}");
        b.input(&d, ValueType::Boolean);
        b.local(&counter, ValueType::Integer);
        let prev = Expr::delay(Expr::var(&counter), Value::Int(0));
        b.define(
            &counter,
            Expr::default(
                Expr::when(Expr::add(prev, Expr::int(1)), Expr::var(&d)),
                Expr::int(0),
            ),
        );
        sync_names.push(d);
        sync_names.push(counter);
    }
    b.output("Alarm", ValueType::Boolean);
    b.define("Alarm", Expr::ge(Expr::var("c0"), Expr::int(1_000)));
    let mut sync: Vec<&str> = sync_names.iter().map(String::as_str).collect();
    sync.push("Alarm");
    b.synchronize(&sync);
    b.build().expect("the counter bank is well formed")
}

fn setup(t: &Tracer, rep: u64, workers: usize) -> Verifier {
    let process = t.span("signal.build", rep, || counter_bank(WIDTH));
    t.span("verify.setup", rep, || {
        Verifier::new(
            &process,
            VerifyOptions::default()
                .with_workers(workers)
                .with_depth_bound(DEPTH),
        )
    })
    .expect("the counter bank has a verifier")
}

pub fn run(seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin);
    let untraced = Tracer::new(false, origin);
    let properties = [Property::NeverRaised("*Alarm*".into())];
    let expected_states = (DEPTH + 1).pow(WIDTH as u32);

    let explore = |t: &Tracer, rep: u32, workers: usize, m: &mut Measured| -> Option<f64> {
        m.attempted += 1;
        let verifier = setup(t, u64::from(rep), workers);
        let began = Instant::now();
        let outcome = t.span("verify.thread", u64::from(rep), || {
            verifier.verify(&InputSpace::Free, &properties)
        });
        let elapsed = began.elapsed().as_secs_f64();
        match outcome {
            Err(err) => m.error(err.to_string()),
            Ok(outcome) if outcome.stats.states != expected_states => m.wrong(format!(
                "{} states, expected {expected_states}",
                outcome.stats.states
            )),
            Ok(outcome) if !outcome.is_violation_free() => {
                m.wrong("the alarm was reported raised".to_string())
            }
            Ok(outcome) => {
                if t.enabled() {
                    let s = &outcome.stats;
                    m.push("verify.states", s.states as f64);
                    m.push("verify.transitions", s.transitions as f64);
                    m.push("verify.peak_frontier", s.peak_frontier as f64);
                }
                return Some(elapsed);
            }
        }
        None
    };

    let mut traced_reps = Vec::new();
    let mut speedups = Vec::new();
    let mut rep = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rep == 0 || Instant::now() < deadline {
        for _ in 0..SETUP_REPS {
            let began = Instant::now();
            std::hint::black_box(setup(&untraced, 0, WORKERS));
            m.setup_s.push(began.elapsed().as_secs_f64());
        }
        crate::reset_peak_rss();
        let plain = explore(&untraced, rep, WORKERS, &mut m);
        m.peak_rss_mb.push(crate::peak_rss_mb());
        m.verdict_s.extend(plain);
        if traced {
            tracer.set_rep(rep);
            if let Some(v) = explore(&tracer, rep, WORKERS, &mut m) {
                m.overhead.extend(plain.map(|p| v / p));
                traced_reps.push(rep);
            }
            if let (Some(one), Some(two)) = (explore(&untraced, rep, 1, &mut m), plain) {
                speedups.push(one / two);
            }
        }
        rep += 1;
    }
    m.jobs_per_s = vec![m.verdict_s.len() as f64 / m.verdict_s.iter().sum::<f64>()];

    if traced {
        let spans = tracer.into_spans();
        let by_rep = trace::self_seconds_by_rep(&spans);
        for name in ["verify.setup", "verify.thread"] {
            m.layer_s(name, trace::samples(&by_rep, &traced_reps, name));
        }
        let thread_s = trace::samples(&by_rep, &traced_reps, "verify.thread");
        let states = m.layers.get("verify.states").cloned().unwrap_or_default();
        m.layer(
            "verify.ns_per_state",
            thread_s
                .iter()
                .zip(&states)
                .map(|(s, n)| s * 1e9 / n)
                .collect(),
        );
        m.layer("verify.speedup_2w", speedups);
        m.spans = spans;
    }
    m
}
