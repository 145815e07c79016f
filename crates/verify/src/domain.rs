//! The interval abstraction over delay/cell memories: symbolic closure for
//! unbounded-counter state spaces.
//!
//! The explicit engine canonicalises a state as the exact memory of every
//! `delay`/`cell` operator. A monotone counter (`count := count$1 + 1`)
//! therefore makes the reachable state space infinite and every unbounded
//! run ends in [`crate::Verdict::PassedBounded`] — the fixpoint never
//! closes. This module closes it *soundly* for the common case: counters
//! whose value can never influence anything a property observes.
//!
//! # The domain
//!
//! [`AbstractValue`] is the per-slot domain of the abstract state: a slot
//! holds either an exact [`Value`], a saturated lower bound `≥ lo`
//! ([`AbstractValue::AtLeast`]) or a bounded interval `[lo, hi]`
//! ([`AbstractValue::Range`]). [`AbstractState`] is a vector of abstract
//! slots plus the scheduler phase, with a canonical byte encoding that
//! extends the concrete [`crate::state`] encoding with two new tags — so
//! abstract keys can never collide with concrete ones.
//!
//! The engine itself runs on *representatives*: [`SlotAbstraction::normalize`]
//! rewrites a concrete memory into the canonical representative of its
//! abstract class (saturating widened slots at the threshold, resetting
//! projected slots to their initial value) and the untouched
//! [`crate::state::KeyCodec`] then encodes the representative. Two concrete
//! states merge exactly when they map to the same [`AbstractState`].
//!
//! # Which slots may be abstracted
//!
//! [`SlotAbstraction::analyze`] decides, per slot, between three plans:
//!
//! * [`SlotPlan::Concrete`] — the slot stays exact (the default);
//! * [`SlotPlan::Widen`] — values above the widening threshold saturate
//!   (`v ≥ W` becomes the representative `W`, i.e. the abstract value
//!   `≥ W`), applied to slots matching the syntactic monotone-counter
//!   pattern `t := t$1 init k + c` with a positive integer increment;
//! * [`SlotPlan::Project`] — the slot is dropped from the canonical key
//!   entirely (reset to its initial value, i.e. the abstract value `⊤`),
//!   applied to every abstractable slot when `--project-counters` is on.
//!
//! A slot is *abstractable* only when its value provably cannot reach any
//! observable. The analysis computes the forward influence closure `D` of
//! the slot's defining signal through the equation graph and requires:
//!
//! * no signal of `D` is read by any checked property (exact names from
//!   `Signal`/`Present` atoms, glob patterns from `Raised` atoms matched
//!   against the property-visible — possibly `<component>_`-prefixed —
//!   name), and no signal of `D` is touched by a product port link;
//! * no signal of `D` (and not the slot operator itself) occurs in a
//!   presence-determining position: a `when` condition, a `cell` trigger, a
//!   `^e` / `when b` clock expression — value changes there would change
//!   which transitions are feasible;
//! * no signal of `D` (and not the slot operator itself) occurs in the
//!   divisor of `/` or `mod` — saturation there could manufacture or mask a
//!   division-by-zero evaluation error;
//! * no signal of `D` has a partial or multiple definition — merged partial
//!   definitions compare values at runtime;
//! * the slot memory is integer-typed, and [`Property::DeadlockFree`] is
//!   not among the checked properties (deadlock freedom quantifies over
//!   successor *existence*, which the observable-trace argument below does
//!   not cover).
//!
//! # Soundness
//!
//! Under these conditions the abstraction is *exact for observables*: the
//! value of an abstractable slot flows only into signals of `D`, none of
//! which any monitor reads or any clock condition consumes, so replacing
//! the slot value by its representative changes neither the feasibility of
//! any transition nor the value of any observed signal. Abstract and
//! concrete systems have identical observable trace sets; a `Proved` on the
//! quotient is a genuine proof and a `PassedBounded` is exactly as strong
//! as the concrete one. Independently of this argument, the engine enforces
//! the strengthen-only discipline dynamically: every abstract
//! counterexample is re-concretized and must replay in the explicit
//! simulator before being reported, and a failed replay falls back to the
//! fully concrete exploration (see `docs/SYMBOLIC.md`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};
use signal_moc::expr::{BinOp, Expr};
use signal_moc::process::{Equation, Process};
use signal_moc::value::Value;

use crate::counterexample::{Counterexample, ReplayReport};
use crate::explore::{VerificationOutcome, VerifyError, VerifyOptions};
use crate::property::pattern_matches;
use crate::state::encode_value;
use crate::Property;

/// Saturation point of widened counter slots under [`Domain::Interval`]:
/// values above it collapse to the abstract `≥ 8`. At least 1, so a
/// saturated counter stays distinguishable from its initial value in the
/// common `init 0` case.
pub const WIDEN_THRESHOLD: i64 = 8;

/// The strengthen-only gate shared by [`crate::Verifier::verify`] and
/// [`crate::ProductVerifier::verify`].
///
/// Under [`Domain::Interval`] the gate plans the abstraction (`analyze`)
/// and, unless it is the identity, runs the abstract exploration
/// (`explore(Some(..))`). Every abstract counterexample is then
/// re-concretized — its inputs are exact, abstraction only touches memory
/// slots — and handed to `replay`, an execution path independent of the
/// abstraction. If all replays reproduce, the abstract outcome stands,
/// annotated with the gate's counters; any spurious or erroring replay
/// abandons the abstraction and re-runs the fully concrete exploration
/// (`explore(None)`), so no verdict can get worse than the explicit
/// engine's. The concrete domain goes straight to `explore(None)`.
pub(crate) fn strengthen_only<E>(
    options: &VerifyOptions,
    properties: &[Property],
    analyze: impl FnOnce() -> Result<SlotAbstraction, VerifyError>,
    explore: impl Fn(Option<&SlotAbstraction>) -> Result<VerificationOutcome, VerifyError>,
    replay: impl Fn(&Counterexample) -> Result<ReplayReport, E>,
) -> Result<VerificationOutcome, VerifyError> {
    if properties.is_empty() {
        return Err(VerifyError::NoProperties);
    }
    if options.domain != Domain::Interval {
        return explore(None);
    }
    let abstraction = analyze()?;
    if abstraction.is_identity() {
        return explore(None);
    }
    let mut outcome = explore(Some(&abstraction))?;
    let mut reconcretized = 0usize;
    for (_, cex) in outcome.violations() {
        reconcretized += 1;
        if !matches!(replay(cex), Ok(report) if report.reproduced) {
            return explore(None);
        }
    }
    outcome.stats.projected_slots = abstraction.projected_slots();
    outcome.stats.reconcretized = reconcretized;
    let obs = &options.collector;
    if obs.is_enabled() {
        obs.counter("engine.projected_slots")
            .add(abstraction.projected_slots() as u64);
        obs.counter("engine.reconcretized")
            .add(reconcretized as u64);
    }
    Ok(outcome)
}

/// The state-space domain the engine explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Domain {
    /// Exact per-slot values — today's explicit engine.
    #[default]
    Concrete,
    /// Interval abstraction: monotone counter slots widen to `≥ threshold`
    /// and (with projection enabled) property-invisible counter slots are
    /// dropped from the canonical key, so unbounded-counter state spaces
    /// can close with a genuine [`crate::Verdict::Proved`].
    Interval,
}

impl Domain {
    /// Parses the CLI spelling (`concrete` | `interval`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "concrete" => Some(Domain::Concrete),
            "interval" => Some(Domain::Interval),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Concrete => "concrete",
            Domain::Interval => "interval",
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One slot of an [`AbstractState`]: an exact value or an integer interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AbstractValue {
    /// The slot holds exactly this value.
    Concrete(Value),
    /// The slot holds an integer `≥ lo` (the widened form of a saturated
    /// monotone counter; `AtLeast(i64::MIN)` is the domain's `⊤`).
    AtLeast(i64),
    /// The slot holds an integer in `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

/// Canonical encoding tag for [`AbstractValue::AtLeast`], disjoint from the
/// concrete value tags (0–4) of `state::encode_value`.
const TAG_AT_LEAST: u8 = 5;
/// Canonical encoding tag for [`AbstractValue::Range`].
const TAG_RANGE: u8 = 6;

impl AbstractValue {
    /// Does the abstract slot contain this concrete value?
    pub fn contains(&self, value: &Value) -> bool {
        match self {
            AbstractValue::Concrete(v) => v == value,
            AbstractValue::AtLeast(lo) => matches!(value, Value::Int(i) if i >= lo),
            AbstractValue::Range { lo, hi } => {
                matches!(value, Value::Int(i) if i >= lo && i <= hi)
            }
        }
    }

    /// The least abstract slot covering both operands (integer slots join
    /// into intervals; incompatible values widen to `⊤`).
    pub fn join(&self, other: &AbstractValue) -> AbstractValue {
        fn bounds(v: &AbstractValue) -> Option<(i64, Option<i64>)> {
            match v {
                AbstractValue::Concrete(Value::Int(i)) => Some((*i, Some(*i))),
                AbstractValue::AtLeast(lo) => Some((*lo, None)),
                AbstractValue::Range { lo, hi } => Some((*lo, Some(*hi))),
                AbstractValue::Concrete(_) => None,
            }
        }
        if self == other {
            return self.clone();
        }
        match (bounds(self), bounds(other)) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                let lo = alo.min(blo);
                match (ahi, bhi) {
                    (Some(a), Some(b)) => AbstractValue::Range { lo, hi: a.max(b) },
                    _ => AbstractValue::AtLeast(lo),
                }
            }
            // Joining non-integer values loses everything we can express.
            _ => AbstractValue::AtLeast(i64::MIN),
        }
    }

    /// Appends the canonical byte encoding: concrete values use the exact
    /// `state` encoding (tags 0–4), intervals the disjoint tags 5–6.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AbstractValue::Concrete(v) => encode_value(v, out),
            AbstractValue::AtLeast(lo) => {
                out.push(TAG_AT_LEAST);
                out.extend_from_slice(&lo.to_le_bytes());
            }
            AbstractValue::Range { lo, hi } => {
                out.push(TAG_RANGE);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }
}

/// An abstract execution state: one [`AbstractValue`] per memory slot plus
/// the scheduler phase. This is the denotation the engine's representative
/// states stand for; [`SlotAbstraction::abstract_state`] maps a concrete
/// memory into it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbstractState {
    /// Per-slot abstract values, in evaluator memory order.
    pub slots: Vec<AbstractValue>,
    /// Scheduler phase (same role as [`crate::State::phase`]).
    pub phase: u32,
}

impl AbstractState {
    /// Canonical byte key of the abstract state (slot encodings in order,
    /// then the phase) — the abstract counterpart of
    /// [`crate::State::key`].
    pub fn key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.slots.len() * 9 + 4);
        for slot in &self.slots {
            slot.encode(&mut out);
        }
        out.extend_from_slice(&self.phase.to_le_bytes());
        out
    }
}

/// The per-slot abstraction decision of one analyzed process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotPlan {
    /// Keep the exact value (the default, and the only sound choice for
    /// slots whose value can reach an observable).
    Concrete,
    /// Saturate values above `threshold`: the representative of every
    /// concrete value `v ≥ threshold` is `threshold` itself, denoting the
    /// abstract slot `≥ threshold`.
    Widen {
        /// Saturation point of the monotone counter.
        threshold: i64,
    },
    /// Drop the slot from the canonical key: every value maps to the
    /// initial value, denoting the abstract slot `⊤`.
    Project,
}

/// The result of the slot analysis over one process (or one product
/// component): a plan per memory slot, in evaluator allocation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotAbstraction {
    plans: Vec<SlotPlan>,
    inits: Vec<Value>,
    targets: Vec<String>,
}

/// Everything the analysis needs to know about the observation context of
/// one process: which signal names are read exactly, which glob patterns
/// are matched, how the process's signals are spelled in the
/// property-visible namespace, and whether deadlock freedom is among the
/// checked properties.
pub(crate) struct ReadSet {
    /// Signal names read exactly (`signal`/`present` atoms).
    pub(crate) names: BTreeSet<String>,
    /// Glob patterns of `raised(...)` atoms.
    pub(crate) patterns: BTreeSet<String>,
    deadlock: bool,
}

impl ReadSet {
    pub(crate) fn of_properties(properties: &[Property]) -> Self {
        let mut names = BTreeSet::new();
        let mut patterns = BTreeSet::new();
        let mut deadlock = false;
        for property in properties {
            match property.ltl() {
                Some(ltl) => collect_atoms(ltl.invariant(), &mut names, &mut patterns),
                None => deadlock = true,
            }
        }
        Self {
            names,
            patterns,
            deadlock,
        }
    }

    /// Is the signal spelled `<prefix><signal>` in the property namespace
    /// read by any atom?
    pub(crate) fn reads(&self, prefix: &str, signal: &str) -> bool {
        let visible = if prefix.is_empty() {
            signal.to_string()
        } else {
            format!("{prefix}{signal}")
        };
        self.names.contains(&visible)
            || self
                .patterns
                .iter()
                .any(|pattern| pattern_matches(pattern, &visible))
    }
}

fn collect_atoms(
    formula: &crate::ltl::Formula,
    names: &mut BTreeSet<String>,
    patterns: &mut BTreeSet<String>,
) {
    use crate::ltl::Formula;
    match formula {
        Formula::Const(_) => {}
        Formula::Signal(name) | Formula::Present(name) => {
            names.insert(name.clone());
        }
        Formula::Raised(pattern) => {
            patterns.insert(pattern.clone());
        }
        Formula::Not(a) | Formula::Previously(a) | Formula::Once(a) | Formula::Historically(a) => {
            collect_atoms(a, names, patterns)
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Since(a, b) => {
            collect_atoms(a, names, patterns);
            collect_atoms(b, names, patterns);
        }
        Formula::Within {
            trigger, response, ..
        } => {
            collect_atoms(trigger, names, patterns);
            collect_atoms(response, names, patterns);
        }
    }
}

/// One `delay`/`cell` operator site discovered by mirroring the
/// evaluator's slot-allocation walk.
struct SlotSite {
    /// Target signal of the containing equation.
    target: String,
    /// Initial value of the slot.
    init: Value,
    /// The operator's own result is consumed in a presence-determining or
    /// divisor position.
    forbidden: bool,
    /// The containing equation is exactly the monotone-counter pattern
    /// `target := target$1 init k + c` with integer `c ≥ 1`, and this slot
    /// is its delay.
    monotone: bool,
}

/// Walks `expr` in the evaluator's slot-allocation order (`delay`/`cell`
/// allocate before their operands are compiled; binary operands
/// left-to-right), pushing a [`SlotSite`] per operator and collecting every
/// signal referenced in a presence/divisor position into `forbidden_refs`.
fn walk_expr(
    expr: &Expr,
    target: &str,
    forbidden: bool,
    slots: &mut Vec<SlotSite>,
    forbidden_refs: &mut BTreeSet<String>,
) {
    match expr {
        Expr::Var(name) => {
            if forbidden {
                forbidden_refs.insert(name.clone());
            }
        }
        Expr::Const(_) => {}
        Expr::Unary(_, a) => walk_expr(a, target, forbidden, slots, forbidden_refs),
        Expr::Binary(op, a, b) => {
            walk_expr(a, target, forbidden, slots, forbidden_refs);
            let divisor = matches!(op, BinOp::Div | BinOp::Mod);
            walk_expr(b, target, forbidden || divisor, slots, forbidden_refs);
        }
        Expr::Delay(operand, init) => {
            slots.push(SlotSite {
                target: target.to_string(),
                init: init.clone(),
                forbidden,
                monotone: false,
            });
            walk_expr(operand, target, forbidden, slots, forbidden_refs);
        }
        Expr::When(e, b) => {
            walk_expr(e, target, forbidden, slots, forbidden_refs);
            walk_expr(b, target, true, slots, forbidden_refs);
        }
        Expr::Default(u, v) => {
            walk_expr(u, target, forbidden, slots, forbidden_refs);
            walk_expr(v, target, forbidden, slots, forbidden_refs);
        }
        Expr::Cell(i, b, init) => {
            slots.push(SlotSite {
                target: target.to_string(),
                init: init.clone(),
                forbidden,
                monotone: false,
            });
            walk_expr(i, target, forbidden, slots, forbidden_refs);
            walk_expr(b, target, true, slots, forbidden_refs);
        }
        // Clock expressions only observe presence, but a slot feeding them
        // sits one `when` away from feasibility — treat conservatively.
        Expr::ClockOf(e) | Expr::ClockWhen(e) => {
            walk_expr(e, target, true, slots, forbidden_refs);
        }
    }
}

/// Does `expr` match `Var(target)$1 init Int + Const(Int c)` with `c ≥ 1`
/// (either operand order)? The shape guarantees the equation allocates
/// exactly one slot — the counter's delay.
fn monotone_counter(expr: &Expr, target: &str) -> bool {
    let Expr::Binary(BinOp::Add, a, b) = expr else {
        return false;
    };
    let is_counter_delay = |e: &Expr| {
        matches!(e, Expr::Delay(operand, Value::Int(_))
            if matches!(operand.as_ref(), Expr::Var(name) if name == target))
    };
    let is_positive_step = |e: &Expr| matches!(e, Expr::Const(Value::Int(c)) if *c >= 1);
    (is_counter_delay(a) && is_positive_step(b)) || (is_positive_step(a) && is_counter_delay(b))
}

impl SlotAbstraction {
    /// Analyzes `process` and plans the abstraction of each memory slot.
    ///
    /// * `properties` — the properties that will be checked; their atoms
    ///   (and [`Property::DeadlockFree`], which disables abstraction
    ///   entirely) define the observable read set.
    /// * `prefix` — how this process's signals are spelled in the
    ///   property namespace (`""` for a single thread, `"<component>_"`
    ///   inside a product).
    /// * `extra_reads` — additional observable signal names in the
    ///   *process* namespace (port-link endpoints of a product component).
    /// * `project` — plan [`SlotPlan::Project`] for every abstractable
    ///   slot instead of widening only the monotone ones.
    /// * `expected_slots` — the evaluator's `memory_len()`; if the mirror
    ///   walk disagrees, the analysis degrades to the identity (all
    ///   concrete) rather than guessing at slot positions.
    pub fn analyze(
        process: &Process,
        properties: &[Property],
        prefix: &str,
        extra_reads: &[String],
        project: bool,
        expected_slots: usize,
    ) -> Self {
        let reads = ReadSet::of_properties(properties);

        // Mirror of the evaluator's allocation walk over the equations.
        let mut slots: Vec<SlotSite> = Vec::new();
        let mut forbidden_refs: BTreeSet<String> = BTreeSet::new();
        let mut def_counts: BTreeMap<&str, (usize, bool)> = BTreeMap::new();
        let mut influences: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
        for equation in &process.equations {
            let (target, expr, partial) = match equation {
                Equation::Definition { target, expr } => (target, expr, false),
                Equation::PartialDefinition { target, expr } => (target, expr, true),
                _ => continue,
            };
            let first_slot = slots.len();
            walk_expr(expr, target, false, &mut slots, &mut forbidden_refs);
            if !partial && monotone_counter(expr, target) {
                // The pattern allocates exactly one slot.
                debug_assert_eq!(slots.len(), first_slot + 1);
                if let Some(site) = slots.get_mut(first_slot) {
                    site.monotone = true;
                }
            }
            let entry = def_counts.entry(target.as_str()).or_insert((0, false));
            entry.0 += 1;
            entry.1 |= partial;
            for source in expr.referenced_signals() {
                influences.entry(source).or_default().insert(target);
            }
        }

        let identity = |n: usize| Self {
            plans: vec![SlotPlan::Concrete; n],
            inits: vec![Value::Event; n],
            targets: vec![String::new(); n],
        };
        if slots.len() != expected_slots {
            // The mirror walk and the evaluator disagree about slot
            // allocation — never abstract on a guessed layout.
            return identity(expected_slots);
        }
        if reads.deadlock {
            return identity(expected_slots);
        }

        let multi_def: BTreeSet<&str> = def_counts
            .iter()
            .filter(|(_, (count, partial))| *count > 1 || *partial)
            .map(|(target, _)| *target)
            .collect();

        // Forward influence closure of one defining signal.
        let closure = |start: &str| -> BTreeSet<String> {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut frontier = vec![start.to_string()];
            while let Some(signal) = frontier.pop() {
                if !seen.insert(signal.clone()) {
                    continue;
                }
                if let Some(targets) = influences.get(signal.as_str()) {
                    for next in targets {
                        if !seen.contains(*next) {
                            frontier.push((*next).to_string());
                        }
                    }
                }
            }
            seen
        };

        let plans = slots
            .iter()
            .map(|site| {
                if site.forbidden || !matches!(site.init, Value::Int(_)) {
                    return SlotPlan::Concrete;
                }
                let influenced = closure(&site.target);
                let leaks = influenced.iter().any(|signal| {
                    reads.reads(prefix, signal)
                        || extra_reads.iter().any(|r| r == signal)
                        || forbidden_refs.contains(signal)
                        || multi_def.contains(signal.as_str())
                });
                if leaks {
                    SlotPlan::Concrete
                } else if project {
                    SlotPlan::Project
                } else if site.monotone {
                    SlotPlan::Widen {
                        threshold: WIDEN_THRESHOLD,
                    }
                } else {
                    SlotPlan::Concrete
                }
            })
            .collect();
        Self {
            plans,
            inits: slots.iter().map(|s| s.init.clone()).collect(),
            targets: slots.iter().map(|s| s.target.clone()).collect(),
        }
    }

    /// An identity abstraction (all slots concrete) of the given width.
    pub fn identity(slots: usize) -> Self {
        Self {
            plans: vec![SlotPlan::Concrete; slots],
            inits: vec![Value::Event; slots],
            targets: vec![String::new(); slots],
        }
    }

    /// Concatenates per-component abstractions into the joint product
    /// abstraction (joint memory is the concatenation of component
    /// memories).
    pub fn concat(parts: impl IntoIterator<Item = SlotAbstraction>) -> Self {
        let mut plans = Vec::new();
        let mut inits = Vec::new();
        let mut targets = Vec::new();
        for part in parts {
            plans.extend(part.plans);
            inits.extend(part.inits);
            targets.extend(part.targets);
        }
        Self {
            plans,
            inits,
            targets,
        }
    }

    /// `true` when no slot is abstracted — the interval run would explore
    /// exactly the concrete space, so callers skip the abstract pass.
    pub fn is_identity(&self) -> bool {
        self.plans.iter().all(|p| *p == SlotPlan::Concrete)
    }

    /// The per-slot plans, in evaluator memory order.
    pub fn plans(&self) -> &[SlotPlan] {
        &self.plans
    }

    /// Number of slots planned for widening.
    pub fn widened_slots(&self) -> usize {
        self.plans
            .iter()
            .filter(|p| matches!(p, SlotPlan::Widen { .. }))
            .count()
    }

    /// Number of slots dropped from the canonical key by projection.
    pub fn projected_slots(&self) -> usize {
        self.plans
            .iter()
            .filter(|p| matches!(p, SlotPlan::Project))
            .count()
    }

    /// Target signals of the non-concrete slots (for reports and tracing).
    pub fn abstracted_targets(&self) -> Vec<&str> {
        self.plans
            .iter()
            .zip(&self.targets)
            .filter(|(p, _)| **p != SlotPlan::Concrete)
            .map(|(_, t)| t.as_str())
            .collect()
    }

    /// Rewrites `memory` into the canonical representative of its abstract
    /// equivalence class, returning how many slots changed (the engine's
    /// `widened` counter). Widened slots saturate at their threshold;
    /// projected slots reset to their initial value.
    pub fn normalize(&self, memory: &mut [Value]) -> usize {
        debug_assert_eq!(memory.len(), self.plans.len());
        let mut changed = 0;
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                SlotPlan::Concrete => {}
                SlotPlan::Widen { threshold } => {
                    if let Value::Int(v) = &memory[i] {
                        if *v > *threshold {
                            memory[i] = Value::Int(*threshold);
                            changed += 1;
                        }
                    }
                }
                SlotPlan::Project => {
                    if memory[i] != self.inits[i] {
                        memory[i] = self.inits[i].clone();
                        changed += 1;
                    }
                }
            }
        }
        changed
    }

    /// The abstract state denoted by a (representative) concrete memory.
    pub fn abstract_state(&self, memory: &[Value], phase: u32) -> AbstractState {
        let slots = memory
            .iter()
            .zip(&self.plans)
            .map(|(value, plan)| match plan {
                SlotPlan::Concrete => AbstractValue::Concrete(value.clone()),
                SlotPlan::Widen { threshold } => match value {
                    Value::Int(v) if *v >= *threshold => AbstractValue::AtLeast(*threshold),
                    other => AbstractValue::Concrete(other.clone()),
                },
                SlotPlan::Project => AbstractValue::AtLeast(i64::MIN),
            })
            .collect();
        AbstractState { slots, phase }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::eval::Evaluator;
    use signal_moc::value::ValueType;

    /// `count := count$1 init 0 + 1` alongside an observed alarm chain that
    /// never reads the counter.
    fn counter_process() -> Process {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.define(
            "Alarm",
            Expr::and(Expr::var("tick"), Expr::not(Expr::var("tick"))),
        );
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["tick", "Alarm", "count"]);
        b.build().expect("valid process")
    }

    fn analyze(process: &Process, properties: &[Property], project: bool) -> SlotAbstraction {
        let evaluator = Evaluator::new(process).expect("evaluates");
        SlotAbstraction::analyze(
            process,
            properties,
            "",
            &[],
            project,
            evaluator.memory_len(),
        )
    }

    #[test]
    fn isolated_monotone_counter_widens() {
        let process = counter_process();
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())], false);
        assert_eq!(abs.plans(), &[SlotPlan::Widen { threshold: 8 }]);
        assert_eq!(abs.widened_slots(), 1);
        assert_eq!(abs.projected_slots(), 0);
        assert_eq!(abs.abstracted_targets(), vec!["count"]);

        let mut memory = vec![Value::Int(12)];
        assert_eq!(abs.normalize(&mut memory), 1);
        assert_eq!(memory, vec![Value::Int(8)]);
        // Already saturated: canonical, nothing to widen.
        assert_eq!(abs.normalize(&mut memory), 0);
        let mut below = vec![Value::Int(3)];
        assert_eq!(abs.normalize(&mut below), 0);
        assert_eq!(below, vec![Value::Int(3)]);
    }

    #[test]
    fn projection_resets_isolated_slots_to_init() {
        let process = counter_process();
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())], true);
        assert_eq!(abs.plans(), &[SlotPlan::Project]);
        let mut memory = vec![Value::Int(41)];
        assert_eq!(abs.normalize(&mut memory), 1);
        assert_eq!(memory, vec![Value::Int(0)]);
    }

    #[test]
    fn property_reading_the_counter_forces_concrete() {
        let process = counter_process();
        for property in [
            Property::parse_ltl("never count").unwrap(),
            Property::parse_ltl("never present(count)").unwrap(),
            Property::parse_ltl("never raised(cou*)").unwrap(),
            Property::parse_ltl("never raised(*ount*)").unwrap(),
        ] {
            let abs = analyze(&process, std::slice::from_ref(&property), true);
            assert!(abs.is_identity(), "{property:?} must pin the slot");
        }
        // A glob that does not cover the counter leaves it abstractable.
        let abs = analyze(
            &process,
            &[Property::parse_ltl("never raised(*Alarm*)").unwrap()],
            false,
        );
        assert!(!abs.is_identity());
    }

    #[test]
    fn deadlock_freedom_disables_abstraction() {
        let process = counter_process();
        let abs = analyze(
            &process,
            &[
                Property::NeverRaised("*Alarm*".into()),
                Property::DeadlockFree,
            ],
            true,
        );
        assert!(abs.is_identity());
    }

    #[test]
    fn presence_influence_forces_concrete() {
        // gate := count$1 > 2; out := tick when gate — the counter's value
        // decides feasibility through the `when` condition.
        let mut b = ProcessBuilder::new("gated");
        b.input("tick", ValueType::Boolean);
        b.output("out", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.local("gate", ValueType::Boolean);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.define(
            "gate",
            Expr::ge(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(3)),
        );
        b.define("out", Expr::when(Expr::var("tick"), Expr::var("gate")));
        b.synchronize(&["tick", "count", "gate"]);
        let process = b.build().expect("valid process");
        let abs = analyze(&process, &[Property::NeverRaised("*never*".into())], true);
        assert!(abs.is_identity(), "count flows into a when-condition");
    }

    #[test]
    fn influence_closure_follows_derived_signals() {
        // count feeds shadow; a property reads shadow — count must stay
        // concrete even though nothing reads it directly.
        let mut b = ProcessBuilder::new("chain");
        b.input("tick", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.output("shadow", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.define("shadow", Expr::add(Expr::var("count"), Expr::int(0)));
        b.synchronize(&["tick", "count", "shadow"]);
        let process = b.build().expect("valid process");
        let abs = analyze(
            &process,
            &[Property::parse_ltl("never shadow").unwrap()],
            true,
        );
        assert!(abs.is_identity());
        // With an unrelated property both slots abstract away.
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())], true);
        assert_eq!(abs.projected_slots(), 1);
    }

    #[test]
    fn slot_count_mismatch_degrades_to_identity() {
        let process = counter_process();
        let abs = SlotAbstraction::analyze(
            &process,
            &[Property::NeverRaised("*Alarm*".into())],
            "",
            &[],
            false,
            7, // wrong width
        );
        assert!(abs.is_identity());
        assert_eq!(abs.plans().len(), 7);
    }

    #[test]
    fn prefixed_reads_and_extra_reads_apply_in_products() {
        let process = counter_process();
        // In the joint namespace the counter is `th_count`.
        let evaluator = Evaluator::new(&process).expect("evaluates");
        let reads_counter = SlotAbstraction::analyze(
            &process,
            &[Property::parse_ltl("never th_count").unwrap()],
            "th_",
            &[],
            true,
            evaluator.memory_len(),
        );
        assert!(reads_counter.is_identity());
        let link_touches_counter = SlotAbstraction::analyze(
            &process,
            &[Property::NeverRaised("*Alarm*".into())],
            "th_",
            &["count".to_string()],
            true,
            evaluator.memory_len(),
        );
        assert!(link_touches_counter.is_identity());
    }

    #[test]
    fn abstract_values_encode_canonically_and_join() {
        let mut concrete = Vec::new();
        AbstractValue::Concrete(Value::Int(8)).encode(&mut concrete);
        let mut widened = Vec::new();
        AbstractValue::AtLeast(8).encode(&mut widened);
        assert_ne!(concrete, widened, "tags keep exact and widened apart");
        let mut range = Vec::new();
        AbstractValue::Range { lo: 1, hi: 8 }.encode(&mut range);
        assert_ne!(widened, range);

        assert!(AbstractValue::AtLeast(8).contains(&Value::Int(100)));
        assert!(!AbstractValue::AtLeast(8).contains(&Value::Int(7)));
        assert!(AbstractValue::Range { lo: 1, hi: 3 }.contains(&Value::Int(2)));
        assert_eq!(
            AbstractValue::Concrete(Value::Int(2)).join(&AbstractValue::Concrete(Value::Int(5))),
            AbstractValue::Range { lo: 2, hi: 5 }
        );
        assert_eq!(
            AbstractValue::Range { lo: 0, hi: 4 }.join(&AbstractValue::AtLeast(2)),
            AbstractValue::AtLeast(0)
        );
        assert_eq!(
            AbstractValue::Concrete(Value::Bool(true)).join(&AbstractValue::AtLeast(0)),
            AbstractValue::AtLeast(i64::MIN)
        );
    }

    #[test]
    fn abstract_state_keys_separate_phases_and_slots() {
        let process = counter_process();
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())], false);
        let a = abs.abstract_state(&[Value::Int(8)], 0);
        let b = abs.abstract_state(&[Value::Int(11)], 0);
        assert_eq!(a, b, "saturated counters denote the same abstract state");
        assert_eq!(a.key(), b.key());
        let c = abs.abstract_state(&[Value::Int(3)], 0);
        assert_ne!(a.key(), c.key());
        let d = abs.abstract_state(&[Value::Int(3)], 1);
        assert_ne!(c.key(), d.key());
    }

    #[test]
    fn domain_parses_its_cli_spellings() {
        assert_eq!(Domain::parse("concrete"), Some(Domain::Concrete));
        assert_eq!(Domain::parse("interval"), Some(Domain::Interval));
        assert_eq!(Domain::parse("symbolic"), None);
        assert_eq!(Domain::Interval.to_string(), "interval");
        assert_eq!(Domain::default(), Domain::Concrete);
    }
}
