//! `case_study_product`: the paper's ProducerConsumer model, parse through
//! product verdict, with the options of
//! `polychrony verify --product --hyperperiods 256`.
//!
//! The staged run calls the session's phase methods for the front end and
//! the verifiers directly for the engine, in the order and with the
//! options `Simulated::verify` uses, so that verifier construction and
//! exploration can be timed apart.

use std::hint::black_box;
use std::time::{Duration, Instant};

use polychrony_core::aadl::case_study::PRODUCER_CONSUMER_AADL;
use polychrony_core::polyverify::state::{KeyCodec, State, StateInterner};
use polychrony_core::polyverify::{
    DispatchFeasibility, InputSpace, ProductSystem, ProductVerifier, Property, Verdict,
    VerificationOutcome, Verifier, VerifyOptions,
};
use polychrony_core::signal_moc::eval::Evaluator;
use polychrony_core::{Session, Simulated, ToolChain, VerificationScope};

use crate::trace::{self, Tracer};
use crate::{stats, Measured};

const ROOT: &str = "sysProdCons.impl";
/// Verification window of the CLI's `--hyperperiods 256`.
const HYPERPERIODS: u64 = 256;
/// The CLI's default `--workers`.
const WORKERS: usize = 2;
/// Known answer: alarm freedom, deadlock freedom and one end-to-end
/// response bound per connection of Fig. 1 (six connections).
const PRODUCT_PROPERTIES: usize = 8;
/// Laps of the cost-model replay per thread.
const REPLAY_LAPS: usize = 200;

fn session(workers: usize) -> Session {
    // The CLI builds exactly this tool chain for `verify --product`.
    ToolChain::new()
        .with_hyperperiods(1)
        .with_verify_workers(workers)
        .with_verify_hyperperiods(HYPERPERIODS)
        .with_verify_scope(VerificationScope::Product)
        .session()
        .expect("the CLI's verify options are valid")
}

/// One staged run, parse through product verdict.
struct StagedRun {
    verdict: Duration,
    setup: Duration,
    thread_outcomes: Vec<VerificationOutcome>,
    product_outcome: VerificationOutcome,
    product_properties: Vec<Property>,
    product: ProductSystem,
    simulated: Simulated,
    counts: Counts,
}

struct Counts {
    components: usize,
    equations: usize,
    clocks: usize,
    instants: usize,
}

fn staged_run(t: &Tracer, rep: u64, session: &Session) -> Result<StagedRun, String> {
    let e = |err: &dyn std::fmt::Display| err.to_string();
    let started = Instant::now();
    let mut exploring = Duration::ZERO;

    let parsed = t
        .span("aadl.parse", rep, || session.parse(PRODUCER_CONSUMER_AADL))
        .map_err(|x| e(&x))?;
    let instantiated = t
        .span("aadl.instantiate", rep, || parsed.instantiate(ROOT))
        .map_err(|x| e(&x))?;
    let components = instantiated.instance.instance_count();
    let scheduled = t
        .span("sched.schedule", rep, || instantiated.schedule())
        .map_err(|x| e(&x))?;
    let translated = t
        .span("translate.translate", rep, || scheduled.translate())
        .map_err(|x| e(&x))?;
    let equations = translated.system.model.total_equations();
    let analyzed = t
        .span("signal.analyze", rep, || translated.analyze())
        .map_err(|x| e(&x))?;
    let clocks = analyzed.static_analysis.clock_count;
    let simulated = t
        .span("sim.simulate", rep, || analyzed.simulate())
        .map_err(|x| e(&x))?;
    let instants = simulated.simulations.values().map(|s| s.instants).sum();

    // Per-thread verification, as in `Simulated::verify`.
    let properties = vec![
        Property::NeverRaised("*Alarm*".to_string()),
        Property::DeadlockFree,
    ];
    let dispatch = t.span("sched.dispatch_feasibility", rep, || {
        simulated.affine.dispatch_feasibility()
    });
    let mut thread_outcomes = Vec::new();
    for unit in &simulated.thread_units {
        let inputs = t.span("translate.timing_trace", rep, || {
            unit.model.timing_trace(&simulated.schedule, 1)
        });
        let bound = inputs.len() * HYPERPERIODS as usize;
        let mut options = VerifyOptions::default()
            .with_workers(WORKERS)
            .with_depth_bound(bound);
        if let Some(relation) = dispatch.relation(&unit.model.thread_name) {
            let mut oracle = DispatchFeasibility::new();
            oracle.insert("Dispatch", *relation);
            options = options.with_oracle(oracle);
        }
        let verifier = t
            .span("verify.setup", rep, || {
                Verifier::new(&unit.model.flat, options)
            })
            .map_err(|x| e(&x))?;
        let space = InputSpace::Scheduled(inputs);
        let began = Instant::now();
        let outcome = t
            .span("verify.thread", rep, || {
                verifier.verify(&space, &properties)
            })
            .map_err(|x| e(&x))?;
        exploring += began.elapsed();
        thread_outcomes.push(outcome);
    }

    // Product verification, as in `Simulated::verify_product`.
    let (components_in, links, product_properties) = t.span("core.product_inputs", rep, || {
        let links = simulated.product_links();
        let properties = simulated.product_properties(&links);
        (simulated.product_components(), links, properties)
    });
    let product_properties = product_properties.map_err(|x| e(&x))?;
    let (product, verifier) = t
        .span("verify.setup", rep, || {
            let system = ProductSystem::new(components_in, links)?;
            let bound = system.horizon() * HYPERPERIODS as usize;
            let verifier = ProductVerifier::new(
                system.clone(),
                VerifyOptions::default()
                    .with_workers(WORKERS)
                    .with_depth_bound(bound),
            )?;
            Ok::<_, polychrony_core::polyverify::VerifyError>((system, verifier))
        })
        .map_err(|x| e(&x))?;
    let began = Instant::now();
    let product_outcome = t
        .span("verify.product", rep, || {
            verifier.verify(&product_properties)
        })
        .map_err(|x| e(&x))?;
    exploring += began.elapsed();
    let verdict = started.elapsed();
    Ok(StagedRun {
        verdict,
        setup: verdict - exploring,
        thread_outcomes,
        product_outcome,
        product_properties,
        product,
        simulated,
        counts: Counts {
            components,
            equations,
            clocks,
            instants,
        },
    })
}

/// Checks a staged run against the known answer: no property of the
/// product or of any thread is violated, and the product checks all
/// eight properties.
fn check(run: &StagedRun) -> Option<String> {
    let product = &run.product_outcome;
    if product.verdicts.len() != PRODUCT_PROPERTIES {
        return Some(format!(
            "product checked {} properties, expected {PRODUCT_PROPERTIES}",
            product.verdicts.len()
        ));
    }
    let all = run.thread_outcomes.iter().chain(std::iter::once(product));
    for verdict in all.flat_map(|o| &o.verdicts) {
        if !matches!(
            verdict.verdict,
            Verdict::Proved | Verdict::PassedBounded { .. }
        ) {
            return Some(format!("{} violated", verdict.property.name()));
        }
    }
    None
}

/// The two negative controls: a deadline overrun and a late connection,
/// each of which must be reported as a violation.
fn negative_controls(m: &mut Measured) {
    let deadline =
        polychrony_core::deadline_overrun_demo(1).and_then(|demo| demo.verify_and_replay(WORKERS));
    let latency = polychrony_core::connection_latency_demo(8)
        .and_then(|demo| demo.verify_and_replay(WORKERS));
    for (name, result) in [
        ("deadline_overrun_demo", deadline),
        ("connection_latency_demo", latency),
    ] {
        m.attempted += 1;
        match result {
            Ok((outcome, _)) if outcome.violations().next().is_some() => {}
            Ok(_) => m.wrong(format!("{name}: the injected fault was not reported")),
            Err(err) => m.error(format!("{name}: {err}")),
        }
    }
}

pub fn run(seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let origin = Instant::now();
    let session = session(WORKERS);
    let mut tracer = Tracer::new(true, origin);
    let untraced = Tracer::new(false, origin);
    negative_controls(&mut m);

    let mut last = None;
    let mut traced_reps = Vec::new();
    let mut speedups = Vec::new();
    let mut rep = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rep == 0 || Instant::now() < deadline {
        m.attempted += 1;
        // The traced run alternates untraced and traced repetitions, so the
        // tracing overhead is measured on the same machine state.
        let mut untraced_verdict = None;
        crate::reset_peak_rss();
        let plain = staged_run(&untraced, u64::from(rep), &session);
        m.peak_rss_mb.push(crate::peak_rss_mb());
        match plain {
            Ok(run) => {
                match check(&run) {
                    Some(wrong) => m.wrong(wrong),
                    None => {
                        untraced_verdict = Some(run.verdict.as_secs_f64());
                        m.verdict_s.push(run.verdict.as_secs_f64());
                        m.setup_s.push(run.setup.as_secs_f64());
                    }
                }
                last = Some(run);
            }
            Err(err) => m.error(err),
        }
        if traced {
            tracer.set_rep(rep);
            m.attempted += 1;
            match staged_run(&tracer, u64::from(rep), &session) {
                Ok(run) => {
                    match (check(&run), untraced_verdict) {
                        (Some(wrong), _) => m.wrong(wrong),
                        (None, Some(plain)) => m.overhead.push(run.verdict.as_secs_f64() / plain),
                        (None, None) => {}
                    }
                    record_counts(&mut m, &run);
                    speedups.push(one_worker_speedup(&run));
                    traced_reps.push(rep);
                    last = Some(run);
                }
                Err(err) => m.error(err),
            }
        }
        rep += 1;
    }
    m.jobs_per_s = vec![m.verdict_s.len() as f64 / m.verdict_s.iter().sum::<f64>()];

    if traced {
        let spans = tracer.into_spans();
        let by_rep = trace::self_seconds_by_rep(&spans);
        for name in [
            "aadl.parse",
            "aadl.instantiate",
            "sched.schedule",
            "translate.translate",
            "signal.analyze",
            "sim.simulate",
            "verify.setup",
            "verify.thread",
            "verify.product",
        ] {
            m.layer_s(name, trace::samples(&by_rep, &traced_reps, name));
        }
        let thread_s = trace::samples(&by_rep, &traced_reps, "verify.thread");
        let product_s = trace::samples(&by_rep, &traced_reps, "verify.product");
        let states = m.layers.get("verify.states").cloned().unwrap_or_default();
        m.layer(
            "verify.ns_per_state",
            thread_s
                .iter()
                .zip(&product_s)
                .zip(&states)
                .map(|((a, b), s)| (a + b) * 1e9 / s)
                .collect(),
        );
        m.layer("verify.speedup_2w", speedups);
        if let Some(run) = &last {
            // The product's state count does not change between repetitions.
            let states = run.product_outcome.stats.states as f64;
            let product_ns: Vec<f64> = product_s.iter().map(|s| s * 1e9 / states).collect();
            cost_model(&mut m, run, stats::median(&product_ns));
        }
        m.spans = spans;
    }
    m
}

fn record_counts(m: &mut Measured, run: &StagedRun) {
    let product = &run.product_outcome.stats;
    let threads = run.thread_outcomes.iter().map(|o| &o.stats);
    let states = product.states + threads.clone().map(|s| s.states).sum::<usize>();
    let transitions = product.transitions + threads.clone().map(|s| s.transitions).sum::<usize>();
    let peak = threads
        .map(|s| s.peak_frontier)
        .fold(product.peak_frontier, usize::max);
    let memo_attempts = product.memo_hits + product.memo_misses;
    let counts = &run.counts;
    m.push("aadl.components", counts.components as f64);
    m.push("translate.equations", counts.equations as f64);
    m.push("signal.clocks", counts.clocks as f64);
    m.push("sim.instants", counts.instants as f64);
    m.push("sched.rejected", 0.0);
    m.push("verify.states", states as f64);
    m.push("verify.transitions", transitions as f64);
    m.push("verify.peak_frontier", peak as f64);
    m.push(
        "verify.memo_hit_ratio",
        if memo_attempts == 0 {
            0.0
        } else {
            product.memo_hits as f64 / memo_attempts as f64
        },
    );
}

/// Product exploration time at one worker over its time at two, on the
/// product the traced repetition just built. The prediction is 1: the
/// case study's frontier is one state wide.
fn one_worker_speedup(run: &StagedRun) -> f64 {
    let time = |workers: usize| {
        let bound = run.product.horizon() * HYPERPERIODS as usize;
        let verifier = ProductVerifier::new(
            run.product.clone(),
            VerifyOptions::default()
                .with_workers(workers)
                .with_depth_bound(bound),
        )
        .expect("the product verified a moment ago");
        let began = Instant::now();
        black_box(
            verifier
                .verify(&run.product_properties)
                .expect("verified before"),
        );
        began.elapsed().as_secs_f64()
    };
    let one = time(1);
    let two = time(2);
    one / two
}

/// Replays the engine's per-state work from outside, on the scheduled
/// inputs of the case study's threads: evaluator step, monitor step, and
/// key encoding plus interning. What the replay does not cover of a
/// product state's cost is the expansion residual.
fn cost_model(m: &mut Measured, run: &StagedRun, product_ns_per_state: f64) {
    let simulated = &run.simulated;
    let monitors: Vec<_> = run
        .product_properties
        .iter()
        .filter_map(Property::monitor)
        .collect();
    let registers: usize = monitors.iter().map(|mon| mon.register_count()).sum();
    let (mut eval_ns, mut monitor_ns, mut intern_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut phase = 0u32;
    for unit in &simulated.thread_units {
        let inputs = unit.model.timing_trace(&simulated.schedule, 1);
        let steps: Vec<_> = inputs.iter().cloned().collect();
        let mut evaluator = Evaluator::new(&unit.model.flat).expect("flattened thread evaluates");
        let mut outputs = Vec::with_capacity(steps.len());
        let mut memories = Vec::with_capacity(steps.len());
        for (i, step) in steps.iter().enumerate() {
            outputs.push(evaluator.step(i, step).expect("scheduled step evaluates"));
            memories.push(evaluator.memory());
        }
        for _ in 0..REPLAY_LAPS {
            evaluator.reset();
            let began = Instant::now();
            for (i, step) in steps.iter().enumerate() {
                black_box(evaluator.step(i, black_box(step)).expect("evaluates"));
            }
            eval_ns.push(began.elapsed().as_nanos() as f64 / steps.len() as f64);

            let began = Instant::now();
            for monitor in &monitors {
                let mut regs = monitor.initial();
                for out in &outputs {
                    black_box(monitor.step(&mut regs, black_box(out)));
                }
            }
            let calls = (monitors.len() * outputs.len()).max(1);
            monitor_ns.push(began.elapsed().as_nanos() as f64 / calls as f64);

            // Every product state of the case study is fresh (its state
            // count grows linearly with the window), so the replay interns
            // fresh keys: the phase word keeps growing across laps.
            let interner: StateInterner<u32> = StateInterner::new(16, memories.len());
            let mut codec = KeyCodec::new();
            codec.seed_state(&State {
                memory: memories[0].clone(),
                phase,
                monitors: vec![0; registers],
            });
            let regs = vec![0u32; registers];
            let began = Instant::now();
            for (k, memory) in memories.iter().enumerate() {
                phase = phase.wrapping_add(1);
                let (hash, key) = codec.successor(memory, phase, &regs);
                black_box(interner.intern(hash, key, || k as u32));
            }
            intern_ns.push(began.elapsed().as_nanos() as f64 / memories.len() as f64);
        }
    }
    let components = run.product.components().len() as f64;
    let residual = product_ns_per_state
        - (components * stats::median(&eval_ns)
            + monitors.len() as f64 * stats::median(&monitor_ns)
            + stats::median(&intern_ns));
    m.layer("signal.eval_step_ns", eval_ns);
    m.layer("verify.monitor_step_ns", monitor_ns);
    m.layer("verify.intern_ns", intern_ns);
    m.layer("verify.expand_residual_ns", vec![residual]);
}
