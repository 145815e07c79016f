//! Daemon load generation: fan generated jobs at a running `polychrony serve`
//! and cross-check every wire report against a local run of the same job.
//!
//! This is the `polychrony vopr --daemon` mode: the generator side of the
//! harness reused as a deterministic load generator, with the daemon's
//! answers held to the same oracle discipline as the in-process pipeline —
//! the report that comes back over the wire must match what
//! [`BatchJob::run`] produces locally for the identical job, field for
//! field (ignoring wall times and the daemon's cache annotation).
//!
//! [`BatchJob::run`]: polychrony_core::BatchJob::run

use polychrony_client::{ClientError, Endpoint};
use polywire::{JobSpec, WireReport};

use crate::gen::SystemSpec;
use crate::{scenario_seed, VoprOptions};

/// The result of one load-generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonLoadReport {
    /// Jobs submitted and answered.
    pub jobs: u64,
    /// Jobs whose wire report says every check passed.
    pub passed: u64,
    /// Jobs the pipeline rejected or whose checks failed (on both sides —
    /// consistently).
    pub failed: u64,
    /// Disagreements between the daemon's wire report and the local run —
    /// each a replayable bug, empty on a healthy daemon.
    pub mismatches: Vec<String>,
}

impl DaemonLoadReport {
    /// Process exit code for the CLI: 2 when any report disagreed.
    pub fn exit_code(&self) -> i32 {
        if self.mismatches.is_empty() {
            0
        } else {
            2
        }
    }

    /// One-paragraph human-readable rendering.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "vopr daemon load: {} job(s), {} passed, {} failed, {} mismatch(es)\n",
            self.jobs,
            self.passed,
            self.failed,
            self.mismatches.len()
        );
        for mismatch in &self.mismatches {
            out.push_str(&format!("  MISMATCH {mismatch}\n"));
        }
        out
    }
}

/// Compares the daemon's wire report for a job against the local run of
/// the identical job. Wall times and the daemon-side cache annotation are
/// excluded — everything else must match.
fn cross_check(seed: u64, wire: &WireReport, spec: &SystemSpec) -> Option<String> {
    let local = match spec.batch_job(seed).run() {
        Ok(report) => WireReport::from_report(&report, None, 0),
        Err(e) => {
            let message = e.to_string();
            return match &wire.error {
                Some(remote) if *remote == message => None,
                Some(remote) => Some(format!(
                    "seed 0x{seed:016x}: daemon error {remote:?} but local error {message:?}"
                )),
                None => Some(format!(
                    "seed 0x{seed:016x}: daemon completed a job the local pipeline rejects ({message})"
                )),
            };
        }
    };
    if wire.error.is_some() {
        return Some(format!(
            "seed 0x{seed:016x}: daemon error {:?} but the local run completes",
            wire.error
        ));
    }
    if wire.passed != local.passed
        || wire.hyperperiod != local.hyperperiod
        || wire.states != local.states
        || wire.transitions != local.transitions
        || wire.verdicts != local.verdicts
    {
        return Some(format!(
            "seed 0x{seed:016x}: wire report diverges from the local run \
             (passed {}/{}, hyperperiod {}/{}, states {}/{}, transitions {}/{}, {} vs {} verdict entries)",
            wire.passed,
            local.passed,
            wire.hyperperiod,
            local.hyperperiod,
            wire.states,
            local.states,
            wire.transitions,
            local.transitions,
            wire.verdicts.len(),
            local.verdicts.len()
        ));
    }
    None
}

/// Fans `options.iterations` generated jobs at the daemon behind
/// `endpoint`, watching each to completion and cross-checking every
/// answer against a local run. Faults are not injected here — the load is
/// the same seeded system stream as chaos mode.
///
/// # Errors
///
/// Returns the first transport-level [`ClientError`] (connection refused,
/// daemon died mid-stream). Report *disagreements* are not errors — they
/// are collected in [`DaemonLoadReport::mismatches`].
pub fn run_daemon_load(
    endpoint: &Endpoint,
    options: &VoprOptions,
    progress: &mut dyn FnMut(String),
) -> Result<DaemonLoadReport, ClientError> {
    let mut report = DaemonLoadReport {
        jobs: 0,
        passed: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    for index in 0..options.iterations {
        let seed = scenario_seed(options.seed, index);
        let spec = SystemSpec::generate(seed, options.max_threads, None);
        let job = spec.batch_job(seed);
        let wire_spec = JobSpec {
            name: job.name.clone(),
            source: Some(job.source.clone()),
            root: job.root.clone(),
            options: job.options.clone(),
        };
        let mut client = endpoint.connect()?;
        let (id, _state) = client.submit(&wire_spec, true)?;
        let (_id, wire) = client.wait(|_, _| {})?;
        report.jobs += 1;
        if wire.passed {
            report.passed += 1;
        } else {
            report.failed += 1;
        }
        if let Some(mismatch) = cross_check(seed, &wire, &spec) {
            progress(format!("job {id}: {mismatch}"));
            report.mismatches.push(mismatch);
        } else {
            progress(format!(
                "job {id} (seed 0x{seed:016x}): daemon and local run agree"
            ));
        }
    }
    Ok(report)
}
