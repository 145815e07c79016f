//! A denotational evaluator for flat SIGNAL processes over multi-clock
//! traces.
//!
//! The evaluator executes the kernel operators with their polychronous
//! semantics (Section III of the paper): at each logical instant it resolves
//! the presence and value of every signal from the provided input step, using
//! a fixpoint over the equations, then commits the state of `delay` and
//! `cell` operators. It is used to validate the AADL-to-SIGNAL translation
//! (input freezing, port FIFOs, shared data) and as the kernel of the
//! simulator crate.
//!
//! Internally the evaluator is *compiled*: at construction every signal name
//! is interned to a dense `u32` id, every equation expression is lowered to
//! a `CExpr` mirror whose variables are ids and whose `delay`/`cell`
//! operators carry their state-table index directly, and the per-instant
//! environment is a reusable `Vec<Res>` indexed by id. The fixpoint is
//! *semi-naive*: every equation records the ids it reads, every resolution
//! change stamps its signal, and a pass re-evaluates only the equations
//! whose ids changed since their own last evaluation — which replays the
//! exhaustive loop change for change, since evaluation is pure and the
//! merges are idempotent. The consistency pass skips the total definitions
//! nothing touched since, and the commit evaluates only the operands of
//! the `delay`/`cell` operators. The public API (name-keyed [`TraceStep`]s
//! in and out) is unchanged; [`Evaluator::step_resolved`] additionally
//! exposes the resolved instant as a borrow-only [`ResolvedStep`] (readable
//! by name or by [`Evaluator::signal_id`]) so explorers can skip the
//! `TraceStep` materialisation entirely.

use std::collections::HashMap;

use crate::error::SignalError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::process::{Equation, Process};
use crate::trace::{Trace, TraceStep};
use crate::value::{Value, ValueType};
use crate::view::InstantView;

/// Resolution of a signal (or sub-expression) at an instant.
#[derive(Debug, Clone, PartialEq)]
enum Res {
    /// Not yet determined.
    Unknown,
    /// Known absent.
    Absent,
    /// Known present, value not yet determined (e.g. propagated through a
    /// clock constraint before the defining equation could be computed).
    PresentUnknown,
    /// Known present with a value.
    Present(Value),
    /// A constant: present at whatever clock the context requires.
    Any(Value),
}

impl Res {
    fn known(&self) -> bool {
        !matches!(self, Res::Unknown)
    }

    fn is_present(&self) -> bool {
        matches!(self, Res::Present(_) | Res::Any(_) | Res::PresentUnknown)
    }

    fn value(&self) -> Option<&Value> {
        match self {
            Res::Present(v) | Res::Any(v) => Some(v),
            _ => None,
        }
    }
}

/// State of one stateful operator (`delay` or `cell`) in the process body.
#[derive(Debug, Clone)]
struct OperatorState {
    current: Value,
    pending: Option<Value>,
    /// The operand (of a `cell`, the memorised one): its value at an
    /// instant, when present, is the next memory.
    operand: CExpr,
}

/// An equation expression compiled against the signal-id table: variables
/// are dense ids and stateful operators carry their state-table slot, so
/// evaluation needs neither name lookups nor a pre-order cursor.
#[derive(Debug, Clone)]
enum CExpr {
    Var(u32),
    Const(Value),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Delay(usize, Box<CExpr>),
    When(Box<CExpr>, Box<CExpr>),
    Default(Box<CExpr>, Box<CExpr>),
    Cell(usize, Box<CExpr>, Box<CExpr>),
    ClockOf(Box<CExpr>),
    ClockWhen(Box<CExpr>),
}

impl CExpr {
    /// Visits this expression and every sub-expression, parents first.
    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a CExpr)) {
        f(self);
        match self {
            CExpr::Var(_) | CExpr::Const(_) => {}
            CExpr::Unary(_, e) | CExpr::Delay(_, e) | CExpr::ClockOf(e) | CExpr::ClockWhen(e) => {
                e.visit(f)
            }
            CExpr::Binary(_, a, b)
            | CExpr::When(a, b)
            | CExpr::Default(a, b)
            | CExpr::Cell(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }
}

/// One compiled equation.
#[derive(Debug, Clone)]
enum CEq {
    Def {
        target: u32,
        expr: CExpr,
    },
    Partial {
        target: u32,
        expr: CExpr,
    },
    /// `label` is the pre-joined signal list for the error message.
    Sync {
        signals: Vec<u32>,
        label: String,
    },
    Excl {
        signals: Vec<u32>,
        label: String,
    },
}

/// What one compiled equation reads, for the semi-naive fixpoint.
#[derive(Debug, Clone)]
struct EqReads {
    /// Where in [`Evaluator`]'s `read_ids` the equation's ids lie: the
    /// signals whose change can change its effect (every variable of a
    /// definition plus its target, or a constraint's members).
    ids: std::ops::Range<usize>,
    /// The definition's expression reads its own target, so the
    /// equation's own change must trigger its re-evaluation.
    reads_target: bool,
}

/// Per-instant scratch of an [`Evaluator`], reused across steps.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Resolution of every signal, indexed by id.
    env: Vec<Res>,
    /// Change counter, bumped whenever a signal's resolution changes. It
    /// never resets, so stamps left by earlier instants are never fresh.
    tick: u64,
    /// Per signal: the `tick` of its last resolution change.
    changed_at: Vec<u64>,
    /// Per equation: the `tick` its last evaluation accounted for.
    evaluated_at: Vec<u64>,
    /// Per signal: some partial definition of it fired (consistency pass).
    partial_fired: Vec<bool>,
}

impl Workspace {
    /// Stamps a change of signal `id`'s resolution.
    fn touch(&mut self, id: u32) {
        self.tick += 1;
        self.changed_at[id as usize] = self.tick;
    }

    /// Whether one of `ids`, the ids equation `eq` reads, changed since
    /// the equation's last evaluation.
    fn stale(&self, eq: usize, ids: &[u32]) -> bool {
        let seen = self.evaluated_at[eq];
        ids.iter().any(|&id| self.changed_at[id as usize] > seen)
    }
}

/// Evaluator of a flat [`Process`] (no sub-process instances; use
/// [`crate::process::ProcessModel::flatten`] first).
///
/// ```
/// use signal_moc::builder::ProcessBuilder;
/// use signal_moc::eval::Evaluator;
/// use signal_moc::expr::Expr;
/// use signal_moc::trace::{Trace, TraceStep};
/// use signal_moc::value::{Value, ValueType};
///
/// let mut b = ProcessBuilder::new("counter");
/// b.input("tick", ValueType::Event);
/// b.output("count", ValueType::Integer);
/// b.define("count", Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)));
/// b.synchronize(&["count", "tick"]);
/// let process = b.build()?;
///
/// let mut inputs = Trace::new();
/// for t in 0..3 { inputs.set(t, "tick", Value::Event); }
/// let mut eval = Evaluator::new(&process)?;
/// let out = eval.run(&inputs)?;
/// assert_eq!(out.flow_of("count"), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
/// # Ok::<(), signal_moc::SignalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    process: Process,
    states: Vec<OperatorState>,
    /// Initial memory, for [`Evaluator::reset`].
    initial: Vec<Value>,
    /// Fixpoint pass bound. Every signal's resolution changes at most
    /// twice per instant (unknown, then presence or absence, then a
    /// value), and every pass but the last changes one, so `2·|signals| + 1`
    /// passes always reach the fixpoint.
    max_passes: usize,
    /// id → name; the first `decl_count` ids are `process.signals` in
    /// declaration order, any extra names found in equations follow.
    names: Vec<String>,
    /// name → id.
    ids: HashMap<String, u32>,
    /// Ids sorted by name, for name-ordered iteration ([`ResolvedStep`]).
    sorted_ids: Vec<u32>,
    /// Number of declared signals (prefix of `names`).
    decl_count: usize,
    /// Declared type per declared id.
    decl_ty: Vec<ValueType>,
    /// Whether the declared id is an input.
    is_input: Vec<bool>,
    /// Input ids in `process.inputs()` order.
    input_ids: Vec<u32>,
    /// Whether the id has a total definition (for the partial discipline).
    has_total: Vec<bool>,
    /// Partially-defined ids, each once, in source order.
    partial_targets: Vec<u32>,
    /// Compiled equations, in source order.
    ceqs: Vec<CEq>,
    /// What each compiled equation reads, parallel to `ceqs`.
    reads: Vec<EqReads>,
    /// The ids of every equation's reads, back to back.
    read_ids: Vec<u32>,
    /// Reusable per-instant scratch.
    ws: Workspace,
}

/// Name interner used during compilation.
struct Interner<'a> {
    ids: &'a mut HashMap<String, u32>,
    names: &'a mut Vec<String>,
}

impl Interner<'_> {
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// Allocates the state slot of a `delay`/`cell`, before its operands are
/// compiled (so slots are numbered in pre-order); the caller fills in the
/// operand.
fn push_state(states: &mut Vec<OperatorState>, init: &Value) -> usize {
    states.push(OperatorState {
        current: init.clone(),
        pending: None,
        operand: CExpr::Const(Value::Event),
    });
    states.len() - 1
}

fn compile_expr(
    expr: &Expr,
    interner: &mut Interner<'_>,
    states: &mut Vec<OperatorState>,
) -> CExpr {
    match expr {
        Expr::Var(name) => CExpr::Var(interner.id(name)),
        Expr::Const(v) => CExpr::Const(v.clone()),
        Expr::Unary(op, e) => CExpr::Unary(*op, Box::new(compile_expr(e, interner, states))),
        Expr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, interner, states)),
            Box::new(compile_expr(b, interner, states)),
        ),
        Expr::Delay(e, init) => {
            let idx = push_state(states, init);
            let operand = compile_expr(e, interner, states);
            states[idx].operand = operand.clone();
            CExpr::Delay(idx, Box::new(operand))
        }
        Expr::When(e, b) => CExpr::When(
            Box::new(compile_expr(e, interner, states)),
            Box::new(compile_expr(b, interner, states)),
        ),
        Expr::Default(u, v) => CExpr::Default(
            Box::new(compile_expr(u, interner, states)),
            Box::new(compile_expr(v, interner, states)),
        ),
        Expr::Cell(i, b, init) => {
            let idx = push_state(states, init);
            let operand = compile_expr(i, interner, states);
            states[idx].operand = operand.clone();
            CExpr::Cell(
                idx,
                Box::new(operand),
                Box::new(compile_expr(b, interner, states)),
            )
        }
        Expr::ClockOf(e) => CExpr::ClockOf(Box::new(compile_expr(e, interner, states))),
        Expr::ClockWhen(b) => CExpr::ClockWhen(Box::new(compile_expr(b, interner, states))),
    }
}

impl Evaluator {
    /// Prepares an evaluator for `process`.
    ///
    /// # Errors
    ///
    /// Returns an error if the process contains sub-process instances (it
    /// must be flattened first) or fails validation.
    pub fn new(process: &Process) -> Result<Self, SignalError> {
        process.validate()?;
        if process
            .equations
            .iter()
            .any(|eq| matches!(eq, Equation::Instance { .. }))
        {
            return Err(SignalError::UnknownProcess(format!(
                "process `{}` must be flattened before evaluation",
                process.name
            )));
        }

        let mut names: Vec<String> = Vec::with_capacity(process.signals.len());
        let mut ids: HashMap<String, u32> = HashMap::with_capacity(process.signals.len());
        let mut decl_ty = Vec::with_capacity(process.signals.len());
        let mut is_input = Vec::with_capacity(process.signals.len());
        for decl in &process.signals {
            let id = names.len() as u32;
            names.push(decl.name.clone());
            ids.insert(decl.name.clone(), id);
            decl_ty.push(decl.ty);
            is_input.push(decl.role == crate::process::SignalRole::Input);
        }
        let decl_count = names.len();
        let input_ids: Vec<u32> = process.inputs().map(|d| ids[&d.name]).collect();

        let mut states = Vec::new();
        let mut ceqs = Vec::with_capacity(process.equations.len());
        {
            let mut interner = Interner {
                ids: &mut ids,
                names: &mut names,
            };
            for eq in &process.equations {
                match eq {
                    Equation::Definition { target, expr } => ceqs.push(CEq::Def {
                        target: interner.id(target),
                        expr: compile_expr(expr, &mut interner, &mut states),
                    }),
                    Equation::PartialDefinition { target, expr } => ceqs.push(CEq::Partial {
                        target: interner.id(target),
                        expr: compile_expr(expr, &mut interner, &mut states),
                    }),
                    Equation::ClockConstraint { signals } => ceqs.push(CEq::Sync {
                        signals: signals.iter().map(|s| interner.id(s)).collect(),
                        label: signals.join(" ^= "),
                    }),
                    Equation::ClockExclusion { signals } => ceqs.push(CEq::Excl {
                        signals: signals.iter().map(|s| interner.id(s)).collect(),
                        label: signals.join(" # "),
                    }),
                    Equation::Instance { .. } => unreachable!("rejected above"),
                }
            }
        }

        let mut has_total = vec![false; names.len()];
        let mut partial_targets = Vec::new();
        let mut reads = Vec::with_capacity(ceqs.len());
        let mut read_ids = Vec::new();
        for ceq in &ceqs {
            let start = read_ids.len();
            let mut reads_target = false;
            match ceq {
                CEq::Def { target, expr } | CEq::Partial { target, expr } => {
                    if matches!(ceq, CEq::Def { .. }) {
                        has_total[*target as usize] = true;
                    } else if !partial_targets.contains(target) {
                        partial_targets.push(*target);
                    }
                    read_ids.push(*target);
                    expr.visit(&mut |e| {
                        if let CExpr::Var(id) = e {
                            reads_target |= id == target;
                            read_ids.push(*id);
                        }
                    });
                }
                CEq::Sync { signals, .. } => read_ids.extend_from_slice(signals),
                // Exclusions only act in the constraint check.
                CEq::Excl { .. } => {}
            }
            reads.push(EqReads {
                ids: start..read_ids.len(),
                reads_target,
            });
        }
        let mut sorted_ids: Vec<u32> = (0..names.len() as u32).collect();
        sorted_ids.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));

        let initial: Vec<Value> = states.iter().map(|s| s.current.clone()).collect();
        let ws = Workspace {
            env: vec![Res::Unknown; names.len()],
            tick: 0,
            changed_at: vec![0; names.len()],
            evaluated_at: vec![0; ceqs.len()],
            partial_fired: vec![false; names.len()],
        };
        Ok(Self {
            process: process.clone(),
            states,
            initial,
            max_passes: 2 * names.len() + 1,
            names,
            ids,
            sorted_ids,
            decl_count,
            decl_ty,
            is_input,
            input_ids,
            has_total,
            partial_targets,
            ceqs,
            reads,
            read_ids,
            ws,
        })
    }

    /// The process being evaluated.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Number of stateful (`delay`/`cell`) operators in the process body —
    /// the length of the memory vector returned by [`Evaluator::memory`].
    pub fn memory_len(&self) -> usize {
        self.states.len()
    }

    /// Snapshot of the current memory of every `delay`/`cell` operator, in
    /// the pre-order of the equations. Together with an input prefix this is
    /// the complete execution state of a flat process, which is what an
    /// explicit-state model checker needs to hash and restore.
    pub fn memory(&self) -> Vec<Value> {
        self.states.iter().map(|s| s.current.clone()).collect()
    }

    /// Writes the memory snapshot into `out` (cleared first), reusing its
    /// allocation — the model checker's per-successor variant of
    /// [`Evaluator::memory`].
    pub fn memory_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.states.iter().map(|s| s.current.clone()));
    }

    /// Restores a memory snapshot previously taken with
    /// [`Evaluator::memory`] (pending half-steps are discarded).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::TypeError`] when `memory` does not have exactly
    /// [`Evaluator::memory_len`] entries.
    pub fn restore_memory(&mut self, memory: &[Value]) -> Result<(), SignalError> {
        if memory.len() != self.states.len() {
            return Err(SignalError::TypeError {
                detail: format!(
                    "memory snapshot has {} entries, process `{}` has {} stateful operators",
                    memory.len(),
                    self.process.name,
                    self.states.len()
                ),
            });
        }
        for (st, v) in self.states.iter_mut().zip(memory) {
            st.current.clone_from(v);
            st.pending = None;
        }
        Ok(())
    }

    /// Resets all `delay`/`cell` states to their initial values.
    pub fn reset(&mut self) {
        for (st, v) in self.states.iter_mut().zip(&self.initial) {
            st.current.clone_from(v);
            st.pending = None;
        }
    }

    /// Executes the process for every instant of `inputs`, returning the
    /// complete trace (inputs, locals and outputs).
    ///
    /// # Errors
    ///
    /// Returns a [`SignalError`] if a synchronisation constraint is violated,
    /// a stepwise operator is applied to non-synchronous operands, a signal
    /// receives two different values at the same instant, or the process is
    /// not executable from the provided inputs.
    pub fn run(&mut self, inputs: &Trace) -> Result<Trace, SignalError> {
        let mut out = Trace::new();
        let empty = TraceStep::new();
        for t in 0..inputs.len() {
            let step = inputs.step(t).unwrap_or(&empty);
            let resolved = self.step(t, step)?;
            out.push(resolved);
        }
        Ok(out)
    }

    /// Executes a single instant given the input step, committing operator
    /// states, and returns the full resolved step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step(&mut self, instant: usize, input: &TraceStep) -> Result<TraceStep, SignalError> {
        self.step_commit(instant, input)?;
        let mut step = TraceStep::new();
        for (id, res) in self.ws.env.iter().enumerate() {
            if let Res::Present(v) | Res::Any(v) = res {
                step.set(self.names[id].clone(), v.clone());
            }
        }
        Ok(step)
    }

    /// Executes a single instant like [`Evaluator::step`], but returns the
    /// resolved signals as a borrow-only [`ResolvedStep`] over the internal
    /// environment instead of materialising a [`TraceStep`]. The view stays
    /// valid (and unchanged) until the next step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step_resolved(
        &mut self,
        instant: usize,
        input: &TraceStep,
    ) -> Result<ResolvedStep<'_>, SignalError> {
        self.step_commit(instant, input)?;
        Ok(self.resolved())
    }

    /// The resolved view of the last executed instant (empty before the
    /// first step).
    pub fn resolved(&self) -> ResolvedStep<'_> {
        ResolvedStep {
            names: &self.names,
            ids: &self.ids,
            env: &self.ws.env,
            sorted_ids: &self.sorted_ids,
        }
    }

    /// The dense id of signal `name`, for [`ResolvedStep::value_by_id`];
    /// `None` for a name the process does not declare.
    pub fn signal_id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The ids equation `eq` reads.
    fn ids_read_by(&self, eq: usize) -> &[u32] {
        &self.read_ids[self.reads[eq].ids.clone()]
    }

    /// Resolves one instant into the workspace and commits operator states.
    fn step_commit(&mut self, instant: usize, input: &TraceStep) -> Result<(), SignalError> {
        let mut ws = std::mem::take(&mut self.ws);
        let result = self.step_into(instant, input, &mut ws);
        self.ws = ws;
        result
    }

    fn step_into(
        &mut self,
        instant: usize,
        input: &TraceStep,
        ws: &mut Workspace,
    ) -> Result<(), SignalError> {
        ws.env.clear();
        ws.env.resize(self.names.len(), Res::Unknown);
        // Inputs are fully specified by the caller: absent unless given.
        for &id in &self.input_ids {
            ws.env[id as usize] = match input.get(&self.names[id as usize]) {
                Some(v) => Res::Present(v.clone()),
                None => Res::Absent,
            };
        }

        // Semi-naive fixpoint over the equations: the first pass evaluates
        // every equation, later passes only those whose reads changed since.
        let mut changed = true;
        let mut passes = 0;
        while changed {
            changed = false;
            passes += 1;
            if passes > self.max_passes {
                break;
            }
            for (e, ceq) in self.ceqs.iter().enumerate() {
                let reads = &self.reads[e];
                if passes > 1 && !ws.stale(e, self.ids_read_by(e)) {
                    continue;
                }
                let before = ws.tick;
                match ceq {
                    CEq::Def { target, expr } => {
                        let res = eval(expr, &ws.env, &self.states, instant)?;
                        if merge_total(&mut ws.env, *target, res, instant, &self.names)? {
                            ws.touch(*target);
                            changed = true;
                        }
                    }
                    CEq::Partial { target, expr } => {
                        let res = eval(expr, &ws.env, &self.states, instant)?;
                        if merge_partial(&mut ws.env, *target, res, instant, &self.names)? {
                            ws.touch(*target);
                            changed = true;
                        }
                    }
                    CEq::Sync { signals, label } => {
                        // Propagate presence/absence across a synchronisation
                        // class: if any member is decided, undecided members
                        // follow.
                        let env = &ws.env;
                        let any_present = signals.iter().any(|&s| env[s as usize].is_present());
                        let any_absent = signals
                            .iter()
                            .any(|&s| matches!(env[s as usize], Res::Absent));
                        if any_present && any_absent {
                            return Err(SignalError::SynchronizationViolation {
                                instant,
                                detail: format!("signals {label} must be synchronous"),
                            });
                        }
                        if any_present || any_absent {
                            for &s in signals {
                                if matches!(ws.env[s as usize], Res::Unknown) {
                                    ws.env[s as usize] = if any_present {
                                        Res::PresentUnknown
                                    } else {
                                        Res::Absent
                                    };
                                    ws.touch(s);
                                    changed = true;
                                }
                            }
                        }
                    }
                    CEq::Excl { .. } => {}
                }
                // Re-running an equation on unchanged reads repeats its
                // result, and its merge is then a no-op — unless the
                // expression reads the target it just changed.
                ws.evaluated_at[e] = if reads.reads_target { before } else { ws.tick };
            }
        }

        // Signals known present but without a computed value: pure events
        // carry no value, so presence is enough; anything else is stuck.
        let mut stuck = Vec::new();
        for id in 0..self.decl_count {
            if matches!(ws.env[id], Res::PresentUnknown) {
                if self.decl_ty[id] == ValueType::Event {
                    ws.env[id] = Res::Present(Value::Event);
                    ws.touch(id as u32);
                } else {
                    stuck.push(self.names[id].clone());
                }
            }
        }
        if !stuck.is_empty() {
            return Err(SignalError::NotExecutable {
                instant,
                unresolved: stuck,
            });
        }

        // Default-to-absent completion: any still-unknown signal is assumed
        // absent, then all equations are re-checked for consistency.
        for id in 0..ws.env.len() {
            if !ws.env[id].known() {
                ws.env[id] = Res::Absent;
                ws.touch(id as u32);
            }
        }
        self.verify(ws, instant)?;
        self.check_constraints(&ws.env, instant)?;
        self.commit(&ws.env, instant)
    }

    /// Re-checks the definitions under the completed environment. A total
    /// definition none of whose reads changed since its last fixpoint
    /// evaluation is skipped: its merge already established consistency.
    /// Partial definitions always run, to record which of them fired.
    fn verify(&self, ws: &mut Workspace, instant: usize) -> Result<(), SignalError> {
        for &target in &self.partial_targets {
            ws.partial_fired[target as usize] = false;
        }
        for (e, ceq) in self.ceqs.iter().enumerate() {
            match ceq {
                CEq::Def { target, expr } => {
                    if !ws.stale(e, self.ids_read_by(e)) {
                        continue;
                    }
                    let res = eval(expr, &ws.env, &self.states, instant)?;
                    let current = &ws.env[*target as usize];
                    if !consistent(current, &res) {
                        return Err(SignalError::NotExecutable {
                            instant,
                            unresolved: vec![self.names[*target as usize].clone()],
                        });
                    }
                }
                CEq::Partial { target, expr } => {
                    let res = eval(expr, &ws.env, &self.states, instant)?;
                    if let Res::Present(ref v) | Res::Any(ref v) = res {
                        ws.partial_fired[*target as usize] = true;
                        if let Some(cv) = ws.env[*target as usize].value() {
                            if cv != v {
                                return Err(SignalError::MultipleDefinitions {
                                    process: self.process.name.clone(),
                                    signal: self.names[*target as usize].clone(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // A partially-defined signal that is present must have at least one
        // firing partial definition or be an input.
        for &target in &self.partial_targets {
            let id = target as usize;
            if id < self.decl_count && self.is_input[id] {
                continue;
            }
            let present = matches!(ws.env[id], Res::Present(_) | Res::Any(_));
            if present && !self.has_total[id] && !ws.partial_fired[id] {
                return Err(SignalError::NotExecutable {
                    instant,
                    unresolved: vec![self.names[id].clone()],
                });
            }
        }
        Ok(())
    }

    fn check_constraints(&self, env: &[Res], instant: usize) -> Result<(), SignalError> {
        for ceq in &self.ceqs {
            match ceq {
                CEq::Sync { signals, label } => {
                    let mut present: Option<bool> = None;
                    for &s in signals {
                        let p = matches!(env[s as usize], Res::Present(_) | Res::Any(_));
                        match present {
                            None => present = Some(p),
                            Some(prev) if prev != p => {
                                return Err(SignalError::SynchronizationViolation {
                                    instant,
                                    detail: format!("signals {label} must be synchronous"),
                                });
                            }
                            _ => {}
                        }
                    }
                }
                CEq::Excl { signals, label } => {
                    let count = signals
                        .iter()
                        .filter(|&&s| matches!(env[s as usize], Res::Present(_) | Res::Any(_)))
                        .count();
                    if count > 1 {
                        return Err(SignalError::SynchronizationViolation {
                            instant,
                            detail: format!("signals {label} must be mutually exclusive"),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Commits every `delay`/`cell` operator: its operand's value under
    /// the final environment, when present, becomes its memory. All
    /// operands are read before any memory changes, since an operand may
    /// itself read a nested operator's current memory.
    fn commit(&mut self, env: &[Res], instant: usize) -> Result<(), SignalError> {
        for slot in 0..self.states.len() {
            let pending = match eval(&self.states[slot].operand, env, &self.states, instant)? {
                Res::Present(v) | Res::Any(v) => Some(v),
                _ => None,
            };
            self.states[slot].pending = pending;
        }
        for st in &mut self.states {
            if let Some(v) = st.pending.take() {
                st.current = v;
            }
        }
        Ok(())
    }
}

/// Borrow-only view of the last resolved instant of an [`Evaluator`];
/// implements [`InstantView`] so property monitors can read it without a
/// materialised [`TraceStep`].
#[derive(Debug, Clone, Copy)]
pub struct ResolvedStep<'a> {
    names: &'a [String],
    ids: &'a HashMap<String, u32>,
    env: &'a [Res],
    sorted_ids: &'a [u32],
}

impl<'a> ResolvedStep<'a> {
    /// The value of the signal with id `id` (see [`Evaluator::signal_id`]),
    /// or `None` when it is absent.
    pub fn value_by_id(&self, id: u32) -> Option<&'a Value> {
        self.env.get(id as usize).and_then(Res::value)
    }
}

impl InstantView for ResolvedStep<'_> {
    fn value_of(&self, name: &str) -> Option<&Value> {
        self.ids
            .get(name)
            .and_then(|&id| self.env.get(id as usize))
            .and_then(Res::value)
    }

    fn first_present_matching(
        &self,
        accept: &mut dyn FnMut(&str, &Value) -> bool,
    ) -> Option<String> {
        for &id in self.sorted_ids {
            if let Some(v) = self.env[id as usize].value() {
                let name = &self.names[id as usize];
                if accept(name, v) {
                    return Some(name.clone());
                }
            }
        }
        None
    }
}

/// Evaluates a compiled expression under the current (possibly partial)
/// environment.
fn eval(
    expr: &CExpr,
    env: &[Res],
    states: &[OperatorState],
    instant: usize,
) -> Result<Res, SignalError> {
    match expr {
        CExpr::Var(id) => Ok(env[*id as usize].clone()),
        CExpr::Const(v) => Ok(Res::Any(v.clone())),
        CExpr::Unary(op, e) => {
            let v = eval(e, env, states, instant)?;
            apply_unary(*op, &v)
        }
        CExpr::Binary(op, a, b) => {
            let va = eval(a, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            apply_binary(*op, &va, &vb, instant)
        }
        CExpr::Delay(idx, e) => {
            let inner = eval(e, env, states, instant)?;
            Ok(match inner {
                Res::Present(_) | Res::Any(_) | Res::PresentUnknown => {
                    Res::Present(states[*idx].current.clone())
                }
                Res::Absent => Res::Absent,
                Res::Unknown => Res::Unknown,
            })
        }
        CExpr::When(e, b) => {
            let ve = eval(e, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            Ok(when_result(&ve, &vb))
        }
        CExpr::Default(u, v) => {
            let vu = eval(u, env, states, instant)?;
            let vv = eval(v, env, states, instant)?;
            Ok(default_result(&vu, &vv))
        }
        CExpr::Cell(idx, i, b) => {
            let vi = eval(i, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            Ok(cell_result(&vi, &vb, &states[*idx].current))
        }
        CExpr::ClockOf(e) => {
            let v = eval(e, env, states, instant)?;
            Ok(clock_of_result(&v))
        }
        CExpr::ClockWhen(b) => {
            let v = eval(b, env, states, instant)?;
            Ok(clock_when_result(&v))
        }
    }
}

fn consistent(current: &Res, computed: &Res) -> bool {
    match (current, computed) {
        (_, Res::Unknown) | (Res::Unknown, _) => true,
        (_, Res::PresentUnknown) => current.is_present() || matches!(current, Res::Unknown),
        (Res::PresentUnknown, _) => computed.is_present(),
        (Res::Absent, Res::Absent) => true,
        // A constant expression is satisfied by an absent target (the
        // constant takes the clock of the target).
        (Res::Absent, Res::Any(_)) => true,
        (Res::Present(a) | Res::Any(a), Res::Present(b) | Res::Any(b)) => a == b,
        (Res::Present(_), Res::Absent) | (Res::Absent, Res::Present(_)) => false,
        (Res::Any(_), Res::Absent) => false,
    }
}

fn merge_total(
    env: &mut [Res],
    target: u32,
    res: Res,
    instant: usize,
    names: &[String],
) -> Result<bool, SignalError> {
    let slot = &mut env[target as usize];
    match (&*slot, &res) {
        (_, Res::Unknown) => Ok(false),
        (Res::Unknown, _) => {
            // A constant defining expression leaves the clock free; keep it
            // as Any so that constraints can still decide.
            *slot = res;
            Ok(true)
        }
        // Upgrade a presence-only resolution to a full value.
        (Res::PresentUnknown, Res::Present(_) | Res::Any(_)) => {
            *slot = res;
            Ok(true)
        }
        _ => {
            if consistent(slot, &res) {
                Ok(false)
            } else {
                Err(SignalError::SynchronizationViolation {
                    instant,
                    detail: format!("conflicting resolutions for `{}`", names[target as usize]),
                })
            }
        }
    }
}

fn merge_partial(
    env: &mut [Res],
    target: u32,
    res: Res,
    instant: usize,
    names: &[String],
) -> Result<bool, SignalError> {
    match res {
        Res::Present(v) | Res::Any(v) => {
            let slot = &mut env[target as usize];
            match slot {
                Res::Unknown | Res::Absent | Res::PresentUnknown => {
                    *slot = Res::Present(v);
                    Ok(true)
                }
                Res::Present(ref cv) | Res::Any(ref cv) => {
                    if cv == &v {
                        Ok(false)
                    } else {
                        Err(SignalError::SynchronizationViolation {
                            instant,
                            detail: format!(
                                "partial definitions give `{}` two values at the same instant",
                                names[target as usize]
                            ),
                        })
                    }
                }
            }
        }
        // An absent or unknown partial contributes nothing; absence of the
        // target can only be concluded globally.
        _ => Ok(false),
    }
}

fn when_result(e: &Res, b: &Res) -> Res {
    match b {
        Res::Absent => Res::Absent,
        Res::Present(v) | Res::Any(v) => {
            if v.as_bool() {
                match e {
                    Res::Present(x) | Res::Any(x) => Res::Present(x.clone()),
                    Res::PresentUnknown => Res::PresentUnknown,
                    Res::Absent => Res::Absent,
                    Res::Unknown => Res::Unknown,
                }
            } else {
                Res::Absent
            }
        }
        // The sampling condition is known present but its value is not known
        // yet: the result cannot be decided.
        Res::PresentUnknown => match e {
            Res::Absent => Res::Absent,
            _ => Res::Unknown,
        },
        Res::Unknown => match e {
            Res::Absent => Res::Absent,
            _ => Res::Unknown,
        },
    }
}

fn default_result(u: &Res, v: &Res) -> Res {
    match u {
        Res::Present(x) | Res::Any(x) => Res::Present(x.clone()),
        Res::PresentUnknown => Res::PresentUnknown,
        Res::Absent => match v {
            Res::Present(y) | Res::Any(y) => Res::Present(y.clone()),
            Res::PresentUnknown => Res::PresentUnknown,
            Res::Absent => Res::Absent,
            Res::Unknown => Res::Unknown,
        },
        Res::Unknown => Res::Unknown,
    }
}

fn cell_result(i: &Res, b: &Res, memory: &Value) -> Res {
    match i {
        Res::Present(v) | Res::Any(v) => Res::Present(v.clone()),
        Res::PresentUnknown => Res::PresentUnknown,
        Res::Absent => match b {
            Res::Present(bv) | Res::Any(bv) => {
                if bv.as_bool() {
                    Res::Present(memory.clone())
                } else {
                    Res::Absent
                }
            }
            Res::PresentUnknown => Res::Unknown,
            Res::Absent => Res::Absent,
            Res::Unknown => Res::Unknown,
        },
        Res::Unknown => Res::Unknown,
    }
}

fn clock_of_result(e: &Res) -> Res {
    match e {
        Res::Present(_) | Res::Any(_) | Res::PresentUnknown => Res::Present(Value::Event),
        Res::Absent => Res::Absent,
        Res::Unknown => Res::Unknown,
    }
}

fn clock_when_result(b: &Res) -> Res {
    match b {
        Res::Present(v) | Res::Any(v) => {
            if v.as_bool() {
                Res::Present(Value::Event)
            } else {
                Res::Absent
            }
        }
        Res::PresentUnknown => Res::Unknown,
        Res::Absent => Res::Absent,
        Res::Unknown => Res::Unknown,
    }
}

fn apply_unary(op: UnOp, v: &Res) -> Result<Res, SignalError> {
    match v {
        Res::Unknown => Ok(Res::Unknown),
        Res::PresentUnknown => Ok(Res::PresentUnknown),
        Res::Absent => Ok(Res::Absent),
        Res::Present(x) | Res::Any(x) => {
            let out = match op {
                UnOp::Neg => match x {
                    Value::Int(i) => Value::Int(-i),
                    Value::Real(r) => Value::Real(-r),
                    other => {
                        return Err(SignalError::TypeError {
                            detail: format!("cannot negate {other}"),
                        })
                    }
                },
                UnOp::Not => Value::Bool(!x.as_bool()),
            };
            Ok(match v {
                Res::Any(_) => Res::Any(out),
                _ => Res::Present(out),
            })
        }
    }
}

fn apply_binary(op: BinOp, a: &Res, b: &Res, instant: usize) -> Result<Res, SignalError> {
    match (a, b) {
        (Res::Unknown, _) | (_, Res::Unknown) => Ok(Res::Unknown),
        (Res::Absent, Res::Absent) => Ok(Res::Absent),
        (Res::Absent, Res::Any(_)) | (Res::Any(_), Res::Absent) => Ok(Res::Absent),
        (Res::Absent, Res::Present(_) | Res::PresentUnknown)
        | (Res::Present(_) | Res::PresentUnknown, Res::Absent) => {
            Err(SignalError::SynchronizationViolation {
                instant,
                detail: format!("operands of `{}` are not synchronous", op.symbol()),
            })
        }
        (Res::PresentUnknown, _) | (_, Res::PresentUnknown) => Ok(Res::PresentUnknown),
        (Res::Present(x) | Res::Any(x), Res::Present(y) | Res::Any(y)) => {
            let out = compute_binary(op, x, y)?;
            if matches!(a, Res::Any(_)) && matches!(b, Res::Any(_)) {
                Ok(Res::Any(out))
            } else {
                Ok(Res::Present(out))
            }
        }
    }
}

fn compute_binary(op: BinOp, x: &Value, y: &Value) -> Result<Value, SignalError> {
    use BinOp::*;
    let type_err = || SignalError::TypeError {
        detail: format!("cannot apply `{}` to {x} and {y}", op.symbol()),
    };
    match op {
        And => Ok(Value::Bool(x.as_bool() && y.as_bool())),
        Or => Ok(Value::Bool(x.as_bool() || y.as_bool())),
        Eq => Ok(Value::Bool(values_equal(x, y))),
        Ne => Ok(Value::Bool(!values_equal(x, y))),
        Lt | Le | Gt | Ge => {
            let (a, b) = (
                x.as_real().ok_or_else(type_err)?,
                y.as_real().ok_or_else(type_err)?,
            );
            let r = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(r))
        }
        Add | Sub | Mul | Div | Mod => match (x, y) {
            (Value::Int(a), Value::Int(b)) => {
                let r = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(SignalError::TypeError {
                                detail: "integer division by zero".into(),
                            });
                        }
                        a / b
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(SignalError::TypeError {
                                detail: "integer modulo by zero".into(),
                            });
                        }
                        a.rem_euclid(*b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(r))
            }
            _ => {
                let (a, b) = (
                    x.as_real().ok_or_else(type_err)?,
                    y.as_real().ok_or_else(type_err)?,
                );
                let r = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a.rem_euclid(b),
                    _ => unreachable!(),
                };
                Ok(Value::Real(r))
            }
        },
    }
}

fn values_equal(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Int(a), Value::Real(b)) | (Value::Real(b), Value::Int(a)) => (*a as f64) == *b,
        _ => x == y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;
    use crate::value::ValueType;

    fn run_process(p: &Process, inputs: &Trace) -> Trace {
        Evaluator::new(p).unwrap().run(inputs).unwrap()
    }

    #[test]
    fn counter_counts_ticks() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        for t in [0usize, 2, 3, 5] {
            inputs.set(t, "tick", Value::Event);
        }
        inputs.step_mut(6);
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("count"), vec![0, 2, 3, 5]);
        assert_eq!(
            out.flow_of("count"),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn when_samples_on_true() {
        let mut b = ProcessBuilder::new("sampler");
        b.input("x", ValueType::Integer);
        b.input("c", ValueType::Boolean);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::when(Expr::var("x"), Expr::var("c")));
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        inputs.set(0, "x", Value::Int(10));
        inputs.set(0, "c", Value::Bool(true));
        inputs.set(1, "x", Value::Int(20));
        inputs.set(1, "c", Value::Bool(false));
        inputs.set(2, "x", Value::Int(30));
        // c absent at 2
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("y"), vec![0]);
        assert_eq!(out.flow_of("y"), vec![Value::Int(10)]);
    }

    #[test]
    fn default_merges_deterministically() {
        let mut b = ProcessBuilder::new("merge");
        b.input("u", ValueType::Integer);
        b.input("v", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::default(Expr::var("u"), Expr::var("v")));
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        inputs.set(0, "u", Value::Int(1));
        inputs.set(0, "v", Value::Int(9));
        inputs.set(1, "v", Value::Int(2));
        inputs.step_mut(2);
        let out = run_process(&p, &inputs);
        assert_eq!(out.flow_of("y"), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(out.clock_of("y"), vec![0, 1]);
    }

    #[test]
    fn cell_implements_memory_process_fm() {
        // o = fm(i, b): o holds i when i present, previous i when b true.
        let mut b = ProcessBuilder::new("fm");
        b.input("i", ValueType::Integer);
        b.input("b", ValueType::Boolean);
        b.output("o", ValueType::Integer);
        b.define(
            "o",
            Expr::cell(Expr::var("i"), Expr::var("b"), Value::Int(0)),
        );
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        // t0: i=5 (b absent)  -> o=5
        // t1: b=true          -> o=5 (memorised)
        // t2: b=false         -> absent
        // t3: i=7, b=true     -> o=7
        // t4: b=true          -> o=7
        inputs.set(0, "i", Value::Int(5));
        inputs.set(1, "b", Value::Bool(true));
        inputs.set(2, "b", Value::Bool(false));
        inputs.set(3, "i", Value::Int(7));
        inputs.set(3, "b", Value::Bool(true));
        inputs.set(4, "b", Value::Bool(true));
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("o"), vec![0, 1, 3, 4]);
        assert_eq!(
            out.flow_of("o"),
            vec![Value::Int(5), Value::Int(5), Value::Int(7), Value::Int(7)]
        );
    }

    #[test]
    fn synchronization_violation_detected() {
        let mut b = ProcessBuilder::new("sync");
        b.input("a", ValueType::Integer);
        b.input("b", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::add(Expr::var("a"), Expr::var("b")));
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        // b absent at 0: a + b is not computable.
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn clock_constraint_checked() {
        let mut b = ProcessBuilder::new("constrained");
        b.input("a", ValueType::Event);
        b.input("b", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::var("a"));
        b.synchronize(&["a", "b"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Event);
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn exclusion_constraint_checked() {
        let mut b = ProcessBuilder::new("excl");
        b.input("r", ValueType::Event);
        b.input("w", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::default(Expr::var("r"), Expr::var("w")));
        b.exclude(&["r", "w"]);
        let p = b.build().unwrap();
        let mut ok_inputs = Trace::new();
        ok_inputs.set(0, "r", Value::Event);
        ok_inputs.set(1, "w", Value::Event);
        Evaluator::new(&p).unwrap().run(&ok_inputs).unwrap();
        let mut bad_inputs = Trace::new();
        bad_inputs.set(0, "r", Value::Event);
        bad_inputs.set(0, "w", Value::Event);
        let err = Evaluator::new(&p).unwrap().run(&bad_inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn partial_definitions_merge() {
        // x ::= a when ca ; x ::= b when cb with exclusive conditions.
        let mut bld = ProcessBuilder::new("partial");
        bld.input("a", ValueType::Integer);
        bld.input("b", ValueType::Integer);
        bld.input("ca", ValueType::Boolean);
        bld.input("cb", ValueType::Boolean);
        bld.output("x", ValueType::Integer);
        bld.define_partial("x", Expr::when(Expr::var("a"), Expr::var("ca")));
        bld.define_partial("x", Expr::when(Expr::var("b"), Expr::var("cb")));
        let p = bld.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        inputs.set(0, "ca", Value::Bool(true));
        inputs.set(0, "cb", Value::Bool(false));
        inputs.set(1, "b", Value::Int(2));
        inputs.set(1, "ca", Value::Bool(false));
        inputs.set(1, "cb", Value::Bool(true));
        inputs.step_mut(2);
        let out = run_process(&p, &inputs);
        assert_eq!(out.flow_of("x"), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn conflicting_partials_rejected() {
        let mut bld = ProcessBuilder::new("conflict");
        bld.input("a", ValueType::Integer);
        bld.input("b", ValueType::Integer);
        bld.output("x", ValueType::Integer);
        bld.define_partial("x", Expr::var("a"));
        bld.define_partial("x", Expr::var("b"));
        let p = bld.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        inputs.set(0, "b", Value::Int(2));
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(
            err,
            SignalError::SynchronizationViolation { .. } | SignalError::MultipleDefinitions { .. }
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "tick", Value::Event);
        let mut eval = Evaluator::new(&p).unwrap();
        let first = eval.run(&inputs).unwrap();
        let second = eval.run(&inputs).unwrap();
        assert_eq!(second.flow_of("count"), vec![Value::Int(2)]);
        eval.reset();
        let third = eval.run(&inputs).unwrap();
        assert_eq!(first.flow_of("count"), third.flow_of("count"));
    }

    #[test]
    fn memory_snapshot_round_trips() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "tick", Value::Event);
        let mut eval = Evaluator::new(&p).unwrap();
        assert_eq!(eval.memory_len(), 1);
        assert_eq!(eval.memory(), vec![Value::Int(0)]);
        eval.run(&inputs).unwrap();
        let snapshot = eval.memory();
        assert_eq!(snapshot, vec![Value::Int(1)]);
        eval.run(&inputs).unwrap();
        assert_eq!(eval.memory(), vec![Value::Int(2)]);
        // Restoring the snapshot replays the same future.
        eval.restore_memory(&snapshot).unwrap();
        let out = eval.run(&inputs).unwrap();
        assert_eq!(out.flow_of("count"), vec![Value::Int(2)]);
        // Arity is checked.
        assert!(eval.restore_memory(&[]).is_err());
    }

    #[test]
    fn evaluator_rejects_unflattened_process() {
        let mut b = ProcessBuilder::new("parent");
        b.input("x", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.instance("child", "c1", &["x"], &["y"]);
        let p = b.build().unwrap();
        assert!(Evaluator::new(&p).is_err());
    }

    #[test]
    fn resolved_view_matches_materialised_step() {
        let mut b = ProcessBuilder::new("viewed");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut input = TraceStep::new();
        input.set("tick", Value::Event);

        let mut by_step = Evaluator::new(&p).unwrap();
        let step = by_step.step(0, &input).unwrap();

        let mut by_view = Evaluator::new(&p).unwrap();
        let view = by_view.step_resolved(0, &input).unwrap();
        for (name, value) in step.iter() {
            assert_eq!(view.value_of(name), Some(value));
        }
        assert!(view.value_of("no_such_signal").is_none());
        // Name-sorted visit order, like a TraceStep's BTreeMap.
        let first = view.first_present_matching(&mut |_, _| true);
        assert_eq!(first.as_deref(), Some("count"));
    }

    /// `x0 := x1; x1 := x2; …; x{n-1} := i`: a chain listed against its
    /// dependency order, so each exhaustive pass resolves one more link.
    fn reversed_chain(n: usize) -> Process {
        let mut b = ProcessBuilder::new("chain");
        b.input("i", ValueType::Integer);
        b.output("x0", ValueType::Integer);
        for k in 1..n {
            b.local(format!("x{k}"), ValueType::Integer);
        }
        for k in 0..n {
            let source = if k + 1 == n {
                "i".to_string()
            } else {
                format!("x{}", k + 1)
            };
            b.define(format!("x{k}"), Expr::var(source));
        }
        b.build().unwrap()
    }

    #[test]
    fn long_reversed_chains_reach_their_fixpoint() {
        for n in [65usize, 200] {
            let p = reversed_chain(n);
            let mut inputs = Trace::new();
            inputs.set(0, "i", Value::Int(7));
            inputs.step_mut(1);
            let out = Evaluator::new(&p)
                .unwrap()
                .run(&inputs)
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
            assert_eq!(out.value(0, "x0"), Some(&Value::Int(7)), "n = {n}");
            assert_eq!(out.clock_of("x0"), vec![0], "n = {n}");
        }
    }

    #[test]
    fn a_partial_contradicting_an_earlier_total_definition_is_rejected() {
        // `x := i` resolves `x` absent first; the partial then makes it
        // present, and the total definition must be re-checked against it.
        let mut bld = ProcessBuilder::new("contradiction");
        bld.input("i", ValueType::Integer);
        bld.input("c", ValueType::Boolean);
        bld.output("x", ValueType::Integer);
        bld.define("x", Expr::var("i"));
        bld.define_partial("x", Expr::when(Expr::int(1), Expr::var("c")));
        let p = bld.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "c", Value::Bool(true));
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert_eq!(
            err,
            SignalError::SynchronizationViolation {
                instant: 0,
                detail: "conflicting resolutions for `x`".into(),
            }
        );
    }

    /// The evaluator before the semi-naive rewrite, kept as the reference
    /// the compiled evaluator must replay: every pass re-evaluates every
    /// equation, the consistency pass re-evaluates every definition, and
    /// the commit re-walks every expression recording pending memories.
    /// Only the pass bound is the current one.
    fn reference_step(
        ev: &mut Evaluator,
        instant: usize,
        input: &TraceStep,
    ) -> Result<TraceStep, SignalError> {
        let mut env = vec![Res::Unknown; ev.names.len()];
        for &id in &ev.input_ids {
            env[id as usize] = match input.get(&ev.names[id as usize]) {
                Some(v) => Res::Present(v.clone()),
                None => Res::Absent,
            };
        }
        let mut changed = true;
        let mut iterations = 0;
        while changed {
            changed = false;
            iterations += 1;
            if iterations > ev.max_passes {
                break;
            }
            for ceq in &ev.ceqs {
                match ceq {
                    CEq::Def { target, expr } => {
                        let res = eval(expr, &env, &ev.states, instant)?;
                        changed |= merge_total(&mut env, *target, res, instant, &ev.names)?;
                    }
                    CEq::Partial { target, expr } => {
                        let res = eval(expr, &env, &ev.states, instant)?;
                        changed |= merge_partial(&mut env, *target, res, instant, &ev.names)?;
                    }
                    CEq::Sync { signals, label } => {
                        let any_present = signals.iter().any(|&s| env[s as usize].is_present());
                        let any_absent = signals
                            .iter()
                            .any(|&s| matches!(env[s as usize], Res::Absent));
                        if any_present && any_absent {
                            return Err(SignalError::SynchronizationViolation {
                                instant,
                                detail: format!("signals {label} must be synchronous"),
                            });
                        }
                        if any_present || any_absent {
                            for &s in signals {
                                if matches!(env[s as usize], Res::Unknown) {
                                    env[s as usize] = if any_present {
                                        Res::PresentUnknown
                                    } else {
                                        Res::Absent
                                    };
                                    changed = true;
                                }
                            }
                        }
                    }
                    CEq::Excl { .. } => {}
                }
            }
        }
        let mut stuck = Vec::new();
        for (id, res) in env.iter_mut().enumerate().take(ev.decl_count) {
            if matches!(res, Res::PresentUnknown) {
                if ev.decl_ty[id] == ValueType::Event {
                    *res = Res::Present(Value::Event);
                } else {
                    stuck.push(ev.names[id].clone());
                }
            }
        }
        if !stuck.is_empty() {
            return Err(SignalError::NotExecutable {
                instant,
                unresolved: stuck,
            });
        }
        for res in env.iter_mut() {
            if !res.known() {
                *res = Res::Absent;
            }
        }
        reference_verify(ev, &env, instant)?;
        ev.check_constraints(&env, instant)?;
        for st in &mut ev.states {
            st.pending = None;
        }
        for ceq in &ev.ceqs {
            if let CEq::Def { expr, .. } | CEq::Partial { expr, .. } = ceq {
                record_pending(expr, &env, &mut ev.states, instant)?;
            }
        }
        for st in &mut ev.states {
            if let Some(v) = st.pending.take() {
                st.current = v;
            }
        }
        let mut step = TraceStep::new();
        for (id, res) in env.iter().enumerate() {
            if let Some(v) = res.value() {
                step.set(ev.names[id].clone(), v.clone());
            }
        }
        Ok(step)
    }

    fn reference_verify(ev: &Evaluator, env: &[Res], instant: usize) -> Result<(), SignalError> {
        let mut partial_fired = vec![false; ev.names.len()];
        let mut partial_targets: Vec<u32> = Vec::new();
        for ceq in &ev.ceqs {
            match ceq {
                CEq::Def { target, expr } => {
                    let res = eval(expr, env, &ev.states, instant)?;
                    if !consistent(&env[*target as usize], &res) {
                        return Err(SignalError::NotExecutable {
                            instant,
                            unresolved: vec![ev.names[*target as usize].clone()],
                        });
                    }
                }
                CEq::Partial { target, expr } => {
                    partial_targets.push(*target);
                    let res = eval(expr, env, &ev.states, instant)?;
                    if let Res::Present(ref v) | Res::Any(ref v) = res {
                        partial_fired[*target as usize] = true;
                        if let Some(cv) = env[*target as usize].value() {
                            if cv != v {
                                return Err(SignalError::MultipleDefinitions {
                                    process: ev.process.name.clone(),
                                    signal: ev.names[*target as usize].clone(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for target in partial_targets {
            let id = target as usize;
            if id < ev.decl_count && ev.is_input[id] {
                continue;
            }
            let present = matches!(env[id], Res::Present(_) | Res::Any(_));
            if present && !ev.has_total[id] && !partial_fired[id] {
                return Err(SignalError::NotExecutable {
                    instant,
                    unresolved: vec![ev.names[id].clone()],
                });
            }
        }
        Ok(())
    }

    /// Like [`eval`], but records the pending update of every `delay`/`cell`
    /// operator it passes through.
    fn record_pending(
        expr: &CExpr,
        env: &[Res],
        states: &mut [OperatorState],
        instant: usize,
    ) -> Result<Res, SignalError> {
        match expr {
            CExpr::Delay(idx, e) => {
                let inner = record_pending(e, env, states, instant)?;
                let res = match &inner {
                    Res::Present(_) | Res::Any(_) | Res::PresentUnknown => {
                        Res::Present(states[*idx].current.clone())
                    }
                    Res::Absent => Res::Absent,
                    Res::Unknown => Res::Unknown,
                };
                if let Some(v) = inner.value() {
                    states[*idx].pending = Some(v.clone());
                }
                Ok(res)
            }
            CExpr::Cell(idx, i, b) => {
                let vi = record_pending(i, env, states, instant)?;
                let vb = record_pending(b, env, states, instant)?;
                if let Some(v) = vi.value() {
                    states[*idx].pending = Some(v.clone());
                }
                Ok(cell_result(&vi, &vb, &states[*idx].current))
            }
            CExpr::Var(id) => Ok(env[*id as usize].clone()),
            CExpr::Const(v) => Ok(Res::Any(v.clone())),
            CExpr::Unary(op, e) => {
                let v = record_pending(e, env, states, instant)?;
                apply_unary(*op, &v)
            }
            CExpr::Binary(op, a, b) => {
                let va = record_pending(a, env, states, instant)?;
                let vb = record_pending(b, env, states, instant)?;
                apply_binary(*op, &va, &vb, instant)
            }
            CExpr::When(e, b) => {
                let ve = record_pending(e, env, states, instant)?;
                let vb = record_pending(b, env, states, instant)?;
                Ok(when_result(&ve, &vb))
            }
            CExpr::Default(u, v) => {
                let vu = record_pending(u, env, states, instant)?;
                let vv = record_pending(v, env, states, instant)?;
                Ok(default_result(&vu, &vv))
            }
            CExpr::ClockOf(e) => {
                let v = record_pending(e, env, states, instant)?;
                Ok(clock_of_result(&v))
            }
            CExpr::ClockWhen(b) => {
                let v = record_pending(b, env, states, instant)?;
                Ok(clock_when_result(&v))
            }
        }
    }

    /// A splitmix64 stream driving the random process generator.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    /// A random integer expression over `i` and the locals `x0..xn`.
    fn random_expr(s: &mut Stream, n: usize, depth: usize) -> Expr {
        let var = |s: &mut Stream| match s.below(n + 1) {
            0 => Expr::var("i"),
            k => Expr::var(format!("x{}", k - 1)),
        };
        if depth == 0 || s.chance(30) {
            return if s.chance(75) {
                var(s)
            } else {
                Expr::int(s.below(3) as i64)
            };
        }
        let sub = |s: &mut Stream| random_expr(s, n, depth - 1);
        match s.below(6) {
            0 => Expr::add(sub(s), sub(s)),
            1 => Expr::delay(sub(s), Value::Int(s.below(3) as i64)),
            2 => {
                let e = sub(s);
                Expr::when(e, random_cond(s, n, depth - 1))
            }
            3 => Expr::default(sub(s), sub(s)),
            4 => {
                let e = sub(s);
                Expr::cell(e, random_cond(s, n, depth - 1), Value::Int(0))
            }
            _ => Expr::sub(sub(s), sub(s)),
        }
    }

    /// A random sampling condition.
    fn random_cond(s: &mut Stream, n: usize, depth: usize) -> Expr {
        match s.below(5) {
            0 => Expr::var("c"),
            1 => Expr::not(Expr::var("c")),
            2 => Expr::clock_of(Expr::var("tick")),
            3 => Expr::clock_when(Expr::var("c")),
            _ => Expr::ge(random_expr(s, n, depth), Expr::int(1)),
        }
    }

    /// A random flat process over inputs `i` (integer), `c` (boolean) and
    /// `tick` (event) and integer locals `x0..xn`: total and partial
    /// definitions in shuffled order, chains listed against their
    /// dependency order, constants synchronised with inputs, clock
    /// constraints and exclusions.
    fn random_process(s: &mut Stream) -> Process {
        let n = 2 + s.below(7);
        let mut b = ProcessBuilder::new("random");
        b.input("i", ValueType::Integer);
        b.input("c", ValueType::Boolean);
        b.input("tick", ValueType::Event);
        for k in 0..n {
            b.local(format!("x{k}"), ValueType::Integer);
        }
        let mut equations: Vec<Equation> = Vec::new();
        for k in 0..n {
            let target = format!("x{k}");
            match s.below(8) {
                // A constant: its clock is whatever a constraint says.
                0 => {
                    equations.push(Equation::Definition {
                        target: target.clone(),
                        expr: Expr::int(s.below(3) as i64),
                    });
                    let input = ["i", "c", "tick"][s.below(3)];
                    equations.push(Equation::ClockConstraint {
                        signals: vec![target, input.to_string()],
                    });
                }
                // A link of a chain towards the higher indices.
                1 | 2 => equations.push(Equation::Definition {
                    target,
                    expr: if k + 1 < n {
                        Expr::var(format!("x{}", k + 1))
                    } else {
                        Expr::var("i")
                    },
                }),
                // Two sampled partial definitions, sometimes after a total
                // one that they can contradict.
                3 => {
                    if s.chance(30) {
                        equations.push(Equation::Definition {
                            target: target.clone(),
                            expr: random_expr(s, n, 2),
                        });
                    }
                    for _ in 0..2 {
                        let e = random_expr(s, n, 2);
                        equations.push(Equation::PartialDefinition {
                            target: target.clone(),
                            expr: Expr::when(e, random_cond(s, n, 1)),
                        });
                    }
                }
                // Left undefined.
                4 => {}
                _ => equations.push(Equation::Definition {
                    target,
                    expr: random_expr(s, n, 3),
                }),
            }
        }
        for _ in 0..s.below(3) {
            let pick = |s: &mut Stream| match s.below(n + 2) {
                0 => "i".to_string(),
                1 => "tick".to_string(),
                k => format!("x{}", k - 2),
            };
            let signals = vec![pick(s), pick(s)];
            equations.push(if s.chance(70) {
                Equation::ClockConstraint { signals }
            } else {
                Equation::ClockExclusion { signals }
            });
        }
        // Shuffle, but keep chains in reverse dependency order whenever the
        // shuffle leaves them alone: half the processes stay unshuffled.
        if s.chance(50) {
            for k in (1..equations.len()).rev() {
                let j = s.below(k + 1);
                equations.swap(k, j);
            }
        }
        let mut p = b.build().unwrap();
        p.equations = equations;
        p.validate().unwrap();
        p
    }

    fn random_inputs(s: &mut Stream, len: usize) -> Trace {
        let mut trace = Trace::new();
        for t in 0..len {
            if s.chance(60) {
                trace.set(t, "i", Value::Int(s.below(4) as i64));
            }
            if s.chance(60) {
                trace.set(t, "c", Value::Bool(s.chance(50)));
            }
            if s.chance(50) {
                trace.set(t, "tick", Value::Event);
            }
            trace.step_mut(t);
        }
        trace
    }

    /// Outcome counts of one differential run, for the coverage check.
    #[derive(Default)]
    struct Coverage {
        steps: usize,
        errors: std::collections::BTreeSet<&'static str>,
        any_values: usize,
    }

    /// Runs the evaluator and the reference side by side over `inputs`,
    /// requiring identical resolved steps, memories and errors.
    fn assert_replays_reference(p: &Process, inputs: &Trace, coverage: &mut Coverage) {
        let mut fast = Evaluator::new(p).unwrap();
        let mut slow = fast.clone();
        for t in 0..inputs.len() {
            let input = inputs.step(t).unwrap();
            let expected = reference_step(&mut slow, t, input);
            let actual = fast.step(t, input);
            match (&expected, &actual) {
                (Ok(_), Ok(_)) => {
                    coverage.steps += 1;
                    coverage.any_values += fast
                        .ws
                        .env
                        .iter()
                        .filter(|r| matches!(r, Res::Any(_)))
                        .count();
                }
                (Err(e), Err(_)) => {
                    coverage.errors.insert(match e {
                        SignalError::SynchronizationViolation { .. } => "sync",
                        SignalError::NotExecutable { .. } => "not-executable",
                        SignalError::MultipleDefinitions { .. } => "multiple",
                        SignalError::TypeError { .. } => "type",
                        _ => "other",
                    });
                }
                _ => {}
            }
            assert_eq!(
                format!("{expected:?}"),
                format!("{actual:?}"),
                "instant {t} of {p:?}"
            );
            assert_eq!(slow.memory(), fast.memory(), "instant {t} of {p:?}");
            if actual.is_err() {
                break;
            }
        }
    }

    proptest::proptest! {
        /// The semi-naive evaluator replays the exhaustive reference
        /// exactly: same resolved steps, memories, errors and messages.
        #[test]
        fn semi_naive_fixpoint_replays_the_exhaustive_loop(seed in proptest::prelude::any::<u64>()) {
            let mut s = Stream(seed);
            let mut coverage = Coverage::default();
            for _ in 0..8 {
                let p = random_process(&mut s);
                let len = 1 + s.below(8);
                let inputs = random_inputs(&mut s, len);
                assert_replays_reference(&p, &inputs, &mut coverage);
            }
        }
    }

    #[test]
    fn equivalence_generator_reaches_every_outcome() {
        let mut coverage = Coverage::default();
        let mut s = Stream(1);
        for _ in 0..1000 {
            let p = random_process(&mut s);
            let len = 1 + s.below(8);
            let inputs = random_inputs(&mut s, len);
            assert_replays_reference(&p, &inputs, &mut coverage);
        }
        assert!(
            coverage.steps > 200,
            "only {} executed steps",
            coverage.steps
        );
        assert!(coverage.any_values > 0, "no constant kept its free clock");
        for kind in ["sync", "not-executable", "multiple"] {
            assert!(
                coverage.errors.contains(kind),
                "no `{kind}` error in {:?}",
                coverage.errors
            );
        }
    }
}
