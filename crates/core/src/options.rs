//! Per-phase options of the staged [`Session`](crate::Session) API.
//!
//! Every pipeline phase owns the options that configure it: the scheduling
//! phase owns the policy, the translation phase owns the queue sizing, the
//! simulation phase owns the horizon and the VCD capture selection, and the
//! verification phase owns the worker count and the exploration bound.
//! [`SessionOptions`] bundles them for whole-chain runs (the
//! [`ToolChain`](crate::ToolChain) facade and the
//! [`BatchRunner`](crate::BatchRunner)).
//!
//! Validation is explicit: out-of-range values produce
//! [`CoreError::InvalidOptions`] instead of being silently clamped, so a
//! caller asking for zero workers or zero hyper-periods learns about the
//! mistake instead of running with a different configuration than requested.

use serde::{Deserialize, Serialize};

use polyverify::{Domain, Property, VerifyOptions};
use sched::SchedulingPolicy;

use crate::error::CoreError;

/// A user-supplied property, written in the past-time LTL surface syntax
/// (see `docs/PROPERTIES.md` for the grammar and semantics). The
/// expression is validated when the options are validated and compiled
/// into a monitor automaton when the verification phase runs, so it is
/// checked by per-thread exploration and — under
/// [`VerificationScope::Product`] — over the joint product, with
/// counterexamples that replay like the built-in properties.
///
/// ```
/// use polychrony_core::PropertySpec;
///
/// let spec = PropertySpec::new("never raised(*Alarm*)");
/// assert!(spec.parse().is_ok());
/// assert!(PropertySpec::new("always (Deadline implies").parse().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// The property expression, e.g. `never raised(*Alarm*)` or
    /// `always (Deadline implies Resume within 2)`.
    pub expr: String,
}

impl PropertySpec {
    /// Wraps a property expression (validated by [`PropertySpec::parse`]).
    pub fn new(expr: impl Into<String>) -> Self {
        Self { expr: expr.into() }
    }

    /// Parses the expression into a checkable [`Property`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] carrying the parser's
    /// span-annotated message (the caret rendering points at the offending
    /// token).
    pub fn parse(&self) -> Result<Property, CoreError> {
        Property::parse_ltl(&self.expr)
            .map_err(|e| CoreError::InvalidOptions(format!("verify.properties: {e}")))
    }
}

/// Which thread's co-simulation is dumped as a VCD waveform by the
/// simulation phase (surfaced as
/// [`ToolChainReport::vcd_thread`](crate::ToolChainReport::vcd_thread)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcdCapture {
    /// Capture the first simulated thread (instance-tree order). This is
    /// the default; on the built-in case study the first thread is the
    /// producer, matching the paper's waveform figure.
    #[default]
    First,
    /// Capture the thread with this name. When no simulated thread matches,
    /// the report carries an empty VCD and no capture marker.
    Thread(String),
    /// Do not capture any waveform.
    Off,
}

/// Options of the scheduling phase ([`Instantiated::schedule`](crate::Instantiated::schedule)):
/// task-set extraction and static schedule synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Scheduling policy used for the static synthesis.
    pub policy: SchedulingPolicy,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        Self {
            policy: SchedulingPolicy::EarliestDeadlineFirst,
        }
    }
}

impl ScheduleOptions {
    /// Checks the options for consistency.
    ///
    /// # Errors
    ///
    /// Never fails today (every policy is valid); kept for uniformity with
    /// the other phases so future fields get a validation home.
    pub fn validate(&self) -> Result<(), CoreError> {
        Ok(())
    }
}

/// Options of the translation phase ([`Scheduled::translate`](crate::Scheduled::translate)):
/// the ASME2SSME transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslateOptions {
    /// Default queue size for event ports without an explicit `Queue_Size`
    /// property. Must be at least 1.
    pub default_queue_size: usize,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        Self {
            default_queue_size: 1,
        }
    }
}

impl TranslateOptions {
    /// Checks the options for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `default_queue_size` is 0.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.default_queue_size == 0 {
            return Err(CoreError::InvalidOptions(
                "translate.default_queue_size must be at least 1 (got 0)".into(),
            ));
        }
        Ok(())
    }
}

/// Options of the simulation phase ([`Analyzed::simulate`](crate::Analyzed::simulate)):
/// the scheduled co-simulation of every thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulateOptions {
    /// Number of hyper-periods to co-simulate. Must be at least 1.
    pub hyperperiods: u64,
    /// Which thread's simulation is captured as a VCD waveform.
    pub vcd: VcdCapture,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        Self {
            hyperperiods: 4,
            vcd: VcdCapture::First,
        }
    }
}

impl SimulateOptions {
    /// Checks the options for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `hyperperiods` is 0.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.hyperperiods == 0 {
            return Err(CoreError::InvalidOptions(
                "simulate.hyperperiods must be at least 1 (got 0)".into(),
            ));
        }
        Ok(())
    }
}

/// Which state spaces the verification phase explores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerificationScope {
    /// Each thread is verified against its own scheduled trace in
    /// isolation. Cross-thread properties (event-port latency) are
    /// invisible at this scope.
    #[default]
    PerThread,
    /// Per-thread verification *plus* the synchronous product of the
    /// communicating threads: event-port connections become synchronising
    /// actions, every connection gets an end-to-end response property
    /// bounded by its receiver's period, and the joint verdict is surfaced
    /// as a [`VerifiedProduct`](crate::VerifiedProduct) artifact.
    Product,
}

/// Options of the verification phase ([`Simulated::verify`](crate::Simulated::verify)):
/// the explicit-state exploration of every scheduled thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationOptions {
    /// Runs the state-space verification phase; when `false`,
    /// [`Simulated::verify`](crate::Simulated::verify) behaves like
    /// [`Simulated::skip_verification`](crate::Simulated::skip_verification).
    pub enabled: bool,
    /// Worker threads of the parallel reachability engine. Must be at
    /// least 1.
    pub workers: usize,
    /// Number of hyper-periods the exploration covers before the depth
    /// bound stops it. Must be at least 1.
    pub hyperperiods: u64,
    /// Whether the phase also verifies the product of the communicating
    /// threads.
    pub scope: VerificationScope,
    /// User-supplied past-time LTL properties, checked alongside the
    /// standard safety properties in every scope (per-thread and product).
    /// Each expression must parse (see [`PropertySpec::parse`]).
    pub properties: Vec<PropertySpec>,
    /// Clock-calculus pruning: the schedule's affine dispatch clocks are
    /// exported as a feasibility oracle that skips free-mode input
    /// valuations where a thread provably cannot dispatch, and the product
    /// memoizes per-component resolved instants.
    pub pruning: bool,
    /// The state-space domain: [`Domain::Concrete`] explores exact states,
    /// [`Domain::Interval`] widens property-invisible monotone counters so
    /// unbounded-counter spaces can close with a genuine proof (see
    /// `docs/SYMBOLIC.md`).
    pub domain: Domain,
    /// Under [`Domain::Interval`], drops every property-invisible counter
    /// slot from the canonical state key instead of widening it.
    pub project_counters: bool,
}

impl Default for VerificationOptions {
    fn default() -> Self {
        Self {
            enabled: true,
            workers: 2,
            hyperperiods: 1,
            scope: VerificationScope::PerThread,
            properties: Vec::new(),
            pruning: true,
            domain: Domain::Concrete,
            project_counters: false,
        }
    }
}

impl VerificationOptions {
    /// Checks the options for consistency. The bounds apply even when the
    /// phase is disabled, so re-enabling it cannot surface a stale invalid
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `workers` or
    /// `hyperperiods` is 0, or when a property expression does not parse
    /// (the message carries the offending span).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidOptions(
                "verify.workers must be at least 1 (got 0)".into(),
            ));
        }
        if self.hyperperiods == 0 {
            return Err(CoreError::InvalidOptions(
                "verify.hyperperiods must be at least 1 (got 0)".into(),
            ));
        }
        for spec in &self.properties {
            spec.parse()?;
        }
        Ok(())
    }

    /// The engine options of one exploration of this phase: the phase's
    /// worker count, pruning and domain, the given depth `bound` and the
    /// session's telemetry `collector`. The only place the phase options
    /// are mapped onto [`VerifyOptions`].
    pub(crate) fn engine_options(
        &self,
        bound: usize,
        collector: &polyobs::Collector,
    ) -> VerifyOptions {
        VerifyOptions::default()
            .with_workers(self.workers)
            .with_depth_bound(bound)
            .with_pruning(self.pruning)
            .with_domain(self.domain)
            .with_project_counters(self.project_counters)
            .with_collector(collector.clone())
    }
}

/// The options of every phase of one staged run, bundled so whole-chain
/// front ends ([`ToolChain`](crate::ToolChain), [`BatchRunner`](crate::BatchRunner))
/// can carry a single value.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionOptions {
    /// Scheduling-phase options.
    pub schedule: ScheduleOptions,
    /// Translation-phase options.
    pub translate: TranslateOptions,
    /// Simulation-phase options.
    pub simulate: SimulateOptions,
    /// Verification-phase options.
    pub verify: VerificationOptions,
    /// Telemetry collector shared by every phase of the chain: phase spans,
    /// engine counters and the `RunRecord` embedded into the final report
    /// all flow through it. Defaults to noop (records nothing, costs
    /// nothing). Collection mode never changes any phase result — see the
    /// determinism pins in `crates/verify/tests/obs_determinism.rs`.
    pub collector: polyobs::Collector,
}

impl SessionOptions {
    /// The recommended per-job configuration for batch and throughput
    /// runs: one simulated hyper-period, no VCD capture, and sequential
    /// in-job verification (when many jobs run concurrently, the
    /// parallelism belongs at the job level, not inside each verifier).
    /// Used by the `polychrony batch` CLI, the `batch_verification`
    /// example and the `batch_throughput` bench.
    pub fn quick() -> Self {
        Self {
            simulate: SimulateOptions {
                hyperperiods: 1,
                vcd: VcdCapture::Off,
            },
            verify: VerificationOptions {
                workers: 1,
                ..VerificationOptions::default()
            },
            ..Self::default()
        }
    }

    /// Checks every phase's options for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError::InvalidOptions`] raised by a phase.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.schedule.validate()?;
        self.translate.validate()?;
        self.simulate.validate()?;
        self.verify.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        SessionOptions::default().validate().unwrap();
    }

    #[test]
    fn zero_values_are_rejected_with_the_offending_field() {
        let mut options = SessionOptions::default();
        options.simulate.hyperperiods = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("simulate.hyperperiods"), "{err}");

        let mut options = SessionOptions::default();
        options.verify.workers = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("verify.workers"), "{err}");

        let mut options = SessionOptions::default();
        options.verify.hyperperiods = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("verify.hyperperiods"), "{err}");

        let mut options = SessionOptions::default();
        options.translate.default_queue_size = 0;
        let err = options.validate().unwrap_err();
        assert!(
            err.to_string().contains("translate.default_queue_size"),
            "{err}"
        );
    }

    #[test]
    fn malformed_property_specs_are_rejected_with_a_span() {
        let mut options = SessionOptions::default();
        options.verify.properties = vec![PropertySpec::new("always (Deadline implies")];
        let err = options.validate().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("verify.properties"), "{message}");
        assert!(message.contains('^'), "{message}");

        let mut options = SessionOptions::default();
        options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
        options.validate().unwrap();
    }

    #[test]
    fn disabled_verification_still_validates_bounds() {
        let mut options = SessionOptions::default();
        options.verify.enabled = false;
        options.verify.workers = 0;
        assert!(matches!(
            options.validate(),
            Err(CoreError::InvalidOptions(_))
        ));
    }
}
