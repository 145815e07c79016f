//! `vopr_served`: a corpus of seeded vopr systems served by an in-process
//! daemon over a unix socket, under a closed loop of two client
//! connections.
//!
//! Every system is submitted in three variants: its own options, the
//! verification window one hyper-period longer (the daemon's cache answers
//! with the simulated artifact) and the simulation one hyper-period longer
//! (the cache answers with the analysed front end). The known answer of a
//! job follows from the generated task set alone: the job is rejected by
//! the scheduler exactly when the utilisation `sum(wcet / period)` exceeds
//! 1, and passes every check otherwise.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use polychrony_client::{Client, Endpoint};
use polychrony_core::polyobs::ProgressUpdate;
use polychrony_server::{Daemon, DaemonConfig};
use polyvopr::gen::SystemSpec;
use polyvopr::scenario_seed;
use polywire::{JobSpec, WireReport};

use crate::trace::{self, SpanRec, Tracer};
use crate::Measured;

/// Systems per thread count, 1 to 8 threads: 200 systems of three jobs.
const SYSTEMS_PER_SIZE: usize = 25;
/// Largest generated thread count (the generator's own ceiling).
const MAX_THREADS: usize = 8;
/// A stream of the generator independent of `--seed`, on which the share
/// of overloaded systems of each size is estimated.
const REFERENCE_SEED: u64 = 0x5eed;
const REFERENCE_SYSTEMS: u64 = 20_000;
const CLIENTS: usize = 2;
const DAEMON_WORKERS: usize = 2;
/// Daemon start-ups measured before every pass.
const SETUP_REPS: usize = 4;

struct Job {
    /// Position in the corpus (system × 3 + variant): the request id of
    /// the job's spans, stable across runs of one seed.
    index: u64,
    spec: JobSpec,
    /// Known answer: the scheduler must reject the task set.
    rejected: bool,
}

/// FNV-1a of the generated source: identical sources share a client, so
/// every repeat of a source reaches the cache in the same order each run.
fn source_hash(source: &str) -> u64 {
    source.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether the system's utilisation `sum(wcet / period)` exceeds 1. Periods
/// are drawn from 4/8/16/32 ms, so `32 / period` is whole.
fn overloaded(system: &SystemSpec) -> bool {
    let load: u64 = system
        .threads
        .iter()
        .map(|t| t.wcet_ms * (32 / t.period_ms))
        .sum();
    load > 32
}

/// How many schedulable and how many overloaded systems of each size the
/// corpus holds: `SYSTEMS_PER_SIZE` per size the generator produces, split
/// by the generator's own share of overloaded systems, estimated on the
/// reference stream.
fn quota() -> Vec<[usize; 2]> {
    let (mut seen, mut over) = ([0usize; MAX_THREADS], [0usize; MAX_THREADS]);
    for index in 0..REFERENCE_SYSTEMS {
        let system = SystemSpec::generate(scenario_seed(REFERENCE_SEED, index), MAX_THREADS, None);
        let size = system.threads.len() - 1;
        seen[size] += 1;
        over[size] += usize::from(overloaded(&system));
    }
    seen.iter()
        .zip(over)
        .map(|(&seen, over)| {
            let overloaded_systems = (SYSTEMS_PER_SIZE * over + seen / 2) / seen.max(1);
            let total = if seen == 0 { 0 } else { SYSTEMS_PER_SIZE };
            [total - overloaded_systems, overloaded_systems]
        })
        .collect()
}

/// The corpus of `seed`, split into one job list per client: the first
/// systems of the seed's stream that fill [`quota`]. Overloaded systems are
/// rejected in a fraction of the time the others take, so a mix that
/// varied with the seed would move the median latency with it.
fn corpus(seed: u64) -> Vec<Vec<Job>> {
    let mut quota = quota();
    let mut groups: Vec<(u64, Vec<Job>)> = Vec::new();
    let mut position = 0u64;
    for index in 0.. {
        if quota.iter().flatten().all(|&left| left == 0) {
            break;
        }
        let scenario = scenario_seed(seed, index);
        let system = SystemSpec::generate(scenario, MAX_THREADS, None);
        let rejected = overloaded(&system);
        let left = &mut quota[system.threads.len() - 1][usize::from(rejected)];
        if *left == 0 {
            continue;
        }
        *left -= 1;
        let first_job = position * 3;
        position += 1;
        let source = system.to_aadl();
        let mut options = system.session_options();
        options.verify.workers = 1;
        let mut longer_verify = options.clone();
        longer_verify.verify.hyperperiods += 1;
        let mut longer_simulate = options.clone();
        longer_simulate.simulate.hyperperiods += 1;
        let hash = source_hash(&source);
        let jobs = [options, longer_verify, longer_simulate]
            .into_iter()
            .enumerate()
            .map(|(variant, options)| Job {
                index: first_job + variant as u64,
                spec: JobSpec {
                    name: format!("vopr-{scenario:016x}-v{variant}"),
                    source: Some(source.clone()),
                    root: "top.impl".to_string(),
                    options,
                },
                rejected,
            });
        match groups.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, group)) => group.extend(jobs),
            None => groups.push((hash, jobs.collect())),
        }
    }
    // Groups go, in order of first appearance, to the client with the
    // fewest jobs so far.
    let mut clients: Vec<Vec<Job>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (_, group) in groups {
        let lightest = clients
            .iter_mut()
            .min_by_key(|c| c.len())
            .expect("at least one client");
        lightest.extend(group);
    }
    clients
}

struct Served {
    daemon: Daemon,
    serve: std::thread::JoinHandle<()>,
    endpoint: Endpoint,
}

fn socket_path(tag: usize) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("vopr-{}-{tag}.sock", std::process::id()))
}

fn start(tag: usize) -> Served {
    let path = socket_path(tag);
    let daemon = Daemon::new(DaemonConfig {
        workers: DAEMON_WORKERS,
        ..DaemonConfig::default()
    })
    .expect("a two-worker daemon without a log starts");
    let serving = daemon.clone();
    let socket = path.clone();
    let serve = std::thread::spawn(move || {
        serving
            .serve_unix(&socket)
            .expect("the benchmark's socket path binds");
    });
    Served {
        daemon,
        serve,
        endpoint: Endpoint::Unix(path),
    }
}

/// Connects, retrying while the serve thread has not bound the socket yet.
fn connect(endpoint: &Endpoint) -> Client {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match endpoint.connect() {
            Ok(client) => return client,
            Err(err) if Instant::now() > give_up => panic!("daemon never listened: {err}"),
            Err(_) => std::thread::yield_now(),
        }
    }
}

fn stop(served: Served) {
    served.daemon.request_shutdown();
    served
        .serve
        .join()
        .expect("the serve loop exits on shutdown");
    served.daemon.join();
}

/// Daemon start until the first job is accepted.
fn setup_once(first: &JobSpec, tag: usize) -> f64 {
    let began = Instant::now();
    let served = start(tag);
    let mut client = connect(&served.endpoint);
    client
        .submit(first, true)
        .expect("the first job is accepted");
    let setup = began.elapsed().as_secs_f64();
    client.wait(|_, _| {}).expect("the first job completes");
    drop(client);
    stop(served);
    setup
}

fn phase_span(name: &str) -> &'static str {
    match name {
        "parse" => "aadl.parse",
        "instantiate" => "aadl.instantiate",
        "schedule" => "sched.schedule",
        "translate" => "translate.translate",
        "analyze" => "signal.analyze",
        "simulate" => "sim.simulate",
        "verify" => "verify.thread",
        "verify.product" => "verify.product",
        _ => "daemon.other",
    }
}

struct Answered {
    latency: f64,
    report: WireReport,
    rejected: bool,
}

/// One closed-loop client: submits its jobs one after another, each after
/// the previous one's result arrived. Pipeline phases inside the daemon
/// are observed from the progress frames: a phase lasts from its frame to
/// the next phase's frame or the result.
fn client_loop(endpoint: &Endpoint, jobs: &[Job], t: &Tracer) -> Vec<Answered> {
    let mut client = connect(endpoint);
    let mut answered = Vec::with_capacity(jobs.len());
    for job in jobs {
        let began = Instant::now();
        let id = job.index;
        let report = t.span("client.job", id, || {
            t.span("client.submit", id, || client.submit(&job.spec, true))
                .expect("the daemon accepts every valid job");
            t.span("client.wait", id, || {
                let mut open: Option<(&'static str, Instant)> = None;
                let (_, report) = client
                    .wait(|_, update| {
                        if let ProgressUpdate::Phase { name } = update {
                            let now = Instant::now();
                            if let Some((phase, since)) = open.replace((phase_span(name), now)) {
                                t.record(phase, id, since, now);
                            }
                        }
                    })
                    .expect("the daemon answers every job");
                if let Some((phase, since)) = open {
                    t.record(phase, id, since, Instant::now());
                }
                report
            })
        });
        answered.push(Answered {
            latency: began.elapsed().as_secs_f64(),
            report,
            rejected: job.rejected,
        });
    }
    answered
}

struct Pass {
    elapsed: f64,
    answered: Vec<Answered>,
    spans: Vec<SpanRec>,
}

fn pass(clients: &[Vec<Job>], traced: bool, origin: Instant, rep: u32, tag: usize) -> Pass {
    let served = start(tag);
    let began = Instant::now();
    let parts: Vec<(Vec<Answered>, Vec<SpanRec>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|jobs| {
                let endpoint = &served.endpoint;
                scope.spawn(move || {
                    let mut t = Tracer::new(traced, origin);
                    t.set_rep(rep);
                    let answered = client_loop(endpoint, jobs, &t);
                    (answered, t.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finishes"))
            .collect()
    });
    let elapsed = began.elapsed().as_secs_f64();
    stop(served);
    let (answered, spans): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    Pass {
        elapsed,
        answered: answered.into_iter().flatten().collect(),
        spans: trace::merge(spans),
    }
}

fn scheduler_rejected(report: &WireReport) -> bool {
    report
        .error
        .as_deref()
        .is_some_and(|e| e.starts_with("scheduler synthesis"))
}

/// Scores each answer against its known answer.
fn check(m: &mut Measured, answered: &[Answered]) {
    for a in answered {
        m.attempted += 1;
        let report = &a.report;
        match (scheduler_rejected(report), a.rejected, &report.error) {
            (true, true, _) => {}
            (true, false, _) => {
                m.wrong("the scheduler rejected a task set of utilisation at most 1".to_string())
            }
            (false, _, Some(error)) => m.error(error.clone()),
            (false, true, None) => {
                m.wrong("a task set of utilisation above 1 was accepted".to_string())
            }
            (false, false, None) if !report.passed => {
                m.wrong("a schedulable system failed its checks".to_string())
            }
            (false, false, None) => {}
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let origin = Instant::now();
    std::fs::create_dir_all(crate::OUT_DIR).expect("the output directory is writable");
    let clients = corpus(seed);
    let mut tag = 0usize;
    let first = &clients[0][0].spec;
    let mut spans = Vec::new();
    let mut rep = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rep == 0 || Instant::now() < deadline {
        for _ in 0..SETUP_REPS {
            m.setup_s.push(setup_once(first, tag));
            tag += 1;
        }
        crate::reset_peak_rss();
        let untraced = pass(&clients, false, origin, rep, tag);
        m.peak_rss_mb.push(crate::peak_rss_mb());
        tag += 1;
        check(&mut m, &untraced.answered);
        m.jobs_per_s
            .push(untraced.answered.len() as f64 / untraced.elapsed);
        m.verdict_s
            .extend(untraced.answered.iter().map(|a| a.latency));
        if traced {
            let p = pass(&clients, true, origin, rep, tag);
            tag += 1;
            check(&mut m, &p.answered);
            m.overhead
                .push(median_latency(&p) / median_latency(&untraced));
            record_pass(&mut m, &p);
            spans.push(p.spans);
        }
        rep += 1;
    }
    m.spans = trace::merge(spans);
    m
}

fn median_latency(p: &Pass) -> f64 {
    let latencies: Vec<f64> = p.answered.iter().map(|a| a.latency).collect();
    crate::stats::median(&latencies)
}

/// Per-layer numbers of one traced pass.
fn record_pass(m: &mut Measured, p: &Pass) {
    let by_rep = trace::self_seconds_by_rep(&p.spans);
    let rep = p.spans.first().map_or(0, |s| s.rep);
    let seconds = |name: &'static str| trace::samples(&by_rep, &[rep], name)[0];
    for name in [
        "aadl.parse",
        "aadl.instantiate",
        "sched.schedule",
        "translate.translate",
        "signal.analyze",
        "sim.simulate",
        "verify.thread",
        "verify.product",
    ] {
        m.push_s(name, seconds(name));
    }
    let reports = p.answered.iter().map(|a| &a.report);
    let states: u64 = reports.clone().map(|r| r.states).sum();
    let transitions: u64 = reports.clone().map(|r| r.transitions).sum();
    m.push("verify.states", states as f64);
    m.push("verify.transitions", transitions as f64);
    m.push(
        "verify.ns_per_state",
        (seconds("verify.thread") + seconds("verify.product")) * 1e9 / states.max(1) as f64,
    );
    let rejected = reports.clone().filter(|r| scheduler_rejected(r)).count();
    m.push("sched.rejected", rejected as f64);

    let mut cache: BTreeMap<&str, usize> = BTreeMap::new();
    for r in reports.clone() {
        *cache
            .entry(r.cache.as_deref().unwrap_or("none"))
            .or_default() += 1;
    }
    let count = |label: &str| cache.get(label).copied().unwrap_or(0) as f64;
    let (miss, frontend, simulated) =
        (count("miss"), count("frontend-hit"), count("simulated-hit"));
    m.push("core.cache_miss", miss);
    m.push("core.cache_frontend_hit", frontend);
    m.push("core.cache_simulated_hit", simulated);
    m.push(
        "core.cache_hit_ratio",
        (frontend + simulated) / (miss + frontend + simulated).max(1.0),
    );

    let job_s: f64 = reports.clone().map(|r| r.wall_us as f64 * 1e-6).sum();
    let latency_s: f64 = p.answered.iter().map(|a| a.latency).sum();
    m.push("server.job_s", job_s);
    m.push("server.queue_wait_s", latency_s - job_s);
    m.push(
        "server.busy_ratio",
        job_s / (p.elapsed * DAEMON_WORKERS as f64),
    );
}
