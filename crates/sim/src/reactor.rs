//! The constructive reaction engine.
//!
//! A [`Reactor`] elaborates a program into interned signal ids ([`SigId`]),
//! compiled equations, `pre` registers and clock-propagation groups, then
//! executes it one reaction at a time: statuses start [`Status::Unknown`]
//! and the operators' firing rules plus clock constraints are applied until
//! a fixpoint. See the crate docs for the semantic conventions.
//!
//! Two entry points run a reaction:
//!
//! * [`Reactor::react_dense`] — the hot path. Inputs and outputs are
//!   [`DenseEnv`]s addressed by the reactor's own [`SigId`]s; a steady-state
//!   reaction allocates nothing (status, update and output buffers are
//!   reused across calls, names are only materialized on error paths).
//! * [`Reactor::react`] — a compatibility wrapper for name-keyed callers:
//!   it converts a `BTreeMap<SigName, Value>` through the interner, runs
//!   [`Reactor::react_dense`], and renders the result back to names.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use polysig_lang::ast::Declaration;
use polysig_lang::clock::analyze_component;
use polysig_lang::{Binop, Component, Program, Role, Unop};
use polysig_tagged::{Interner, SigId, SigName, Value, ValueType};

use crate::compile::{lower, LowerFailure, LowerInput};
use crate::env::DenseEnv;
use crate::error::SimError;
use crate::ir::{compile, CExpr};
use crate::scenario::Scenario;
use crate::schedule::{CompiledComponent, Flow};
use crate::status::Status;

/// Result of evaluating an expression, extended with "present but value not
/// yet known" (needed to close feedback loops through `pre`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Unknown,
    Absent,
    PresentUnvalued,
    Present(Value),
    Ubiquitous(Value),
}

impl Ev {
    fn of_status(s: Status) -> Ev {
        match s {
            Status::Unknown => Ev::Unknown,
            Status::Absent => Ev::Absent,
            Status::PresentUnvalued => Ev::PresentUnvalued,
            Status::Present(v) => Ev::Present(v),
        }
    }
}

/// Reusable per-reaction buffers; taken out of the reactor for the duration
/// of a reaction so the fixpoint can borrow `self` freely.
#[derive(Debug, Clone, Default)]
struct Scratch {
    status: Vec<Status>,
    updates: Vec<(usize, Value)>,
    /// Next-reaction register file for the compiled executor (swapped in
    /// on success, discarded on a bail).
    new_regs: Vec<Value>,
    /// `eq_done[i]` = equation `i`'s result is final for this reaction;
    /// later fixpoint passes skip it.
    eq_done: Vec<bool>,
    /// Slot array for the compiled executor (sized and re-seeded by
    /// `CompiledComponent::execute`; persists across reactions).
    slots: Vec<Flow>,
}

/// How a reaction executes: through the lowered static schedule, or through
/// the constructive fixpoint interpreter. Chosen once at build time.
#[derive(Debug, Clone)]
enum ExecPlan {
    /// Straight-line guarded bytecode with zero fixpoint passes; any
    /// runtime anomaly bails to the interpreter for this one reaction.
    Compiled(Arc<CompiledComponent>),
    /// The constructive fixpoint, with the reason lowering failed when it
    /// was attempted.
    Interpreted(Option<LowerFailure>),
}

/// A captured execution state of a [`Reactor`]: the `pre` register file
/// plus the step counter. See [`Reactor::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorState {
    registers: Box<[Value]>,
    step: usize,
}

/// An elaborated, executable program.
#[derive(Debug, Clone)]
pub struct Reactor {
    /// `SigName ↔ SigId` table; ids are dense indices in declaration order.
    interner: Interner,
    types: Vec<ValueType>,
    /// The program's external inputs, in id order.
    input_ids: Vec<SigId>,
    /// `is_input[id] == true` iff the signal is an external input.
    is_input: Vec<bool>,
    equations: Vec<(usize, CExpr)>,
    /// `eq_has_pre[i]` = equation `i` owns at least one `pre` register (the
    /// register-update walk skips the others).
    eq_has_pre: Vec<bool>,
    /// Clock-equality groups (from sync constraints and the clock calculus).
    groups: Vec<Vec<usize>>,
    /// Indices into `groups` with ≥ 2 members — the only ones whose sweep
    /// can ever decide a signal.
    prop_groups: Vec<usize>,
    /// `(sub, sup)` group pairs: sub's clock ⊆ sup's clock.
    subset_edges: BTreeSet<(usize, usize)>,
    /// Build-time execution plan: a lowered static schedule when the clock
    /// analysis yields a total order, the interpreter otherwise.
    plan: ExecPlan,
    registers: Vec<Value>,
    initial_registers: Vec<Value>,
    step: usize,
    /// Cumulative fixpoint passes across reactions (scheduling statistics).
    passes: usize,
    /// Cumulative equation evaluations across reactions — `evals / passes`
    /// shows how much of each pass the decided-equation skip saves.
    evals: usize,
    scratch: Scratch,
    /// Last reaction's outputs (the buffer `react_dense` hands back).
    out_env: DenseEnv,
    /// Input-conversion buffer for the name-keyed `react` wrapper.
    in_env: DenseEnv,
}

impl Reactor {
    /// Elaborates a single component.
    ///
    /// # Errors
    ///
    /// Returns resolution or type errors from the language passes.
    pub fn for_component(c: &Component) -> Result<Reactor, SimError> {
        Reactor::for_components(&[c])
    }

    /// Elaborates a program (all components merged into one synchronous
    /// reaction system; shared names connect them). Reactions run on the
    /// lowered static schedule whenever one exists, on the interpreter
    /// otherwise (see [`Reactor::is_compiled`] and
    /// [`Reactor::lower_failure`]).
    ///
    /// # Errors
    ///
    /// Returns resolution or type errors from the language passes.
    pub fn for_program(p: &Program) -> Result<Reactor, SimError> {
        Reactor::for_components(&p.components.iter().collect::<Vec<_>>())
    }

    /// [`Reactor::for_program`] over a program's components held anywhere,
    /// in program order, so that a caller who keeps them elsewhere (the
    /// estimation loop's cache) need not clone them into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns resolution or type errors from the language passes.
    pub fn for_components(components: &[&Component]) -> Result<Reactor, SimError> {
        Reactor::build(components, true, true)
    }

    /// Like [`Reactor::for_program`] but always interprets, even when a
    /// static schedule exists — the reference side of the
    /// compiled/interpreted differential oracles.
    ///
    /// # Errors
    ///
    /// Returns resolution or type errors from the language passes.
    pub fn for_program_interpreted(p: &Program) -> Result<Reactor, SimError> {
        Reactor::build(&p.components.iter().collect::<Vec<_>>(), true, false)
    }

    /// Like [`Reactor::for_program`] but *without* the static equation
    /// scheduling — the naive fixpoint evaluates equations in declaration
    /// order and needs more passes to converge. Exists for the
    /// `sim_scheduling` ablation; behavior is identical. Never compiled
    /// (the lowering requires the schedule).
    pub fn for_program_unscheduled(p: &Program) -> Result<Reactor, SimError> {
        Reactor::build(&p.components.iter().collect::<Vec<_>>(), false, false)
    }

    fn build(
        components: &[&Component],
        schedule: bool,
        try_lower: bool,
    ) -> Result<Reactor, SimError> {
        let renamed = disambiguate_locals(components);
        let renamed_refs: Vec<&Component> = renamed.iter().flatten().collect();
        let components = if renamed.is_some() { &renamed_refs } else { components };
        polysig_lang::resolve::resolve_components(components.iter().copied())?;
        polysig_lang::types::check_components(components.iter().copied())?;

        // intern all declared names; ids are dense indices in declaration
        // order, so a SigId doubles as a slot-vector index everywhere below.
        // `decl_ids[k][i]` is the id of component k's i-th declaration, and
        // an external input is an input of some component that no
        // component outputs
        let decls = components.iter().map(|c| c.decls.len()).sum();
        let mut interner = Interner::with_capacity(decls);
        let mut types: Vec<ValueType> = Vec::with_capacity(decls);
        let mut is_input: Vec<bool> = Vec::with_capacity(decls);
        let mut is_output: Vec<bool> = Vec::with_capacity(decls);
        let mut decl_ids: Vec<Vec<usize>> = Vec::with_capacity(components.len());
        for c in components {
            let mut ids = Vec::with_capacity(c.decls.len());
            for d in &c.decls {
                let id = interner.intern(&d.name).index();
                if id == types.len() {
                    types.push(d.ty);
                    is_input.push(false);
                    is_output.push(false);
                }
                match d.role {
                    Role::Input => is_input[id] = true,
                    Role::Output => is_output[id] = true,
                    Role::Local => {}
                }
                ids.push(id);
            }
            decl_ids.push(ids);
        }
        let n = interner.len();
        for (input, &output) in is_input.iter_mut().zip(&is_output) {
            *input &= !output;
        }
        let input_ids: Vec<SigId> =
            (0..n).filter(|&i| is_input[i]).map(|i| SigId(i as u32)).collect();

        let idx = |n: &SigName| interner.lookup(n).expect("resolved name is declared").index();

        // compile equations, allocating registers
        let mut registers: Vec<Value> = Vec::new();
        let mut equations: Vec<(usize, CExpr)> = Vec::new();
        for c in components {
            for eq in c.equations() {
                let rhs = compile(&eq.rhs, &idx, &mut registers);
                equations.push((idx(&eq.lhs), rhs));
            }
        }

        // clock groups: union-find over indices, seeded by each component's
        // clock analysis (which already folds in sync constraints)
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        };
        let mut sig_subset: Vec<(usize, usize)> = Vec::new();
        for (c, ids) in components.iter().zip(&decl_ids) {
            let analysis = analyze_component(c);
            // each class's first declaration stands for the class
            let mut first = vec![usize::MAX; analysis.classes.len()];
            for (&id, &class) in ids.iter().zip(analysis.decl_classes()) {
                if first[class] == usize::MAX {
                    first[class] = id;
                } else {
                    union(&mut parent, first[class], id);
                }
            }
            sig_subset.extend(analysis.edges().map(|(sub, sup)| (first[sub], first[sup])));
        }

        // groups from union-find roots, numbered in order of first member
        let mut group_of_root = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![0usize; n];
        for (i, slot) in group_of.iter_mut().enumerate() {
            let r = find(&mut parent, i);
            if group_of_root[r] == usize::MAX {
                group_of_root[r] = groups.len();
                groups.push(Vec::new());
            }
            let g = group_of_root[r];
            groups[g].push(i);
            *slot = g;
        }
        let subset_edges: BTreeSet<(usize, usize)> = sig_subset
            .into_iter()
            .map(|(a, b)| (group_of[a], group_of[b]))
            .filter(|(a, b)| a != b)
            .collect();
        // a singleton group can never propagate anything — joining a signal
        // with itself is a no-op — so the per-pass sweep only visits groups
        // with at least two members
        let prop_groups: Vec<usize> =
            groups.iter().enumerate().filter(|(_, g)| g.len() > 1).map(|(i, _)| i).collect();

        // statically schedule the equations: evaluating each signal after
        // its instantaneous dependencies lets most reactions converge in a
        // single fixpoint pass (the classic Signal compilation step; the
        // `sim_scheduling` ablation bench measures the win)
        let (equations, acyclic) =
            if schedule { schedule_equations(equations, n) } else { (equations, false) };
        let eq_has_pre: Vec<bool> = equations.iter().map(|(_, rhs)| rhs.has_pre()).collect();

        // lower a static schedule when the clock analysis plus the acyclic
        // equation order admit one; failure is never an error — the
        // interpreter remains the (equivalent) fallback
        let plan = if !try_lower {
            ExecPlan::Interpreted(None)
        } else if !acyclic {
            ExecPlan::Interpreted(Some(LowerFailure::CyclicSchedule))
        } else {
            match lower(&LowerInput {
                signal_count: n,
                names: interner.names(),
                is_input: &is_input,
                types: &types,
                equations: &equations,
                groups: &groups,
                subset_edges: &subset_edges,
            }) {
                Ok(cc) => ExecPlan::Compiled(Arc::new(cc)),
                Err(failure) => ExecPlan::Interpreted(Some(failure)),
            }
        };

        Ok(Reactor {
            interner,
            types,
            input_ids,
            is_input,
            equations,
            eq_has_pre,
            groups,
            prop_groups,
            subset_edges,
            plan,
            initial_registers: registers.clone(),
            registers,
            step: 0,
            passes: 0,
            evals: 0,
            scratch: Scratch::default(),
            out_env: DenseEnv::new(n),
            in_env: DenseEnv::new(n),
        })
    }

    /// Cumulative number of fixpoint passes executed since the last reset —
    /// `passes / steps_taken` is the average convergence cost per reaction.
    /// A reaction executed by the compiled static schedule counts as
    /// exactly one pass (it runs linearly, with no fixpoint); a compiled
    /// attempt that bails contributes only the interpreter re-run's passes.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Cumulative work counter since the last reset. Under interpretation
    /// this counts equation right-hand-side evaluations (decided equations
    /// are skipped, so it undershoots `passes * equation_count`); under the
    /// compiled plan it counts **bytecode ops executed** instead — a
    /// deliberate unit change, since ops are the compiled path's unit of
    /// work. A bailed compiled attempt contributes both its ops and the
    /// interpreter re-run's evaluations.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// `true` when reactions dispatch through a compiled static schedule
    /// (individual reactions may still bail to the interpreter; results
    /// are identical either way).
    pub fn is_compiled(&self) -> bool {
        matches!(self.plan, ExecPlan::Compiled(_))
    }

    /// Total op count of the compiled static schedule, when one exists —
    /// the `polysig-lint` schedule-existence note reports this.
    pub fn compiled_op_count(&self) -> Option<usize> {
        match &self.plan {
            ExecPlan::Compiled(cc) => Some(cc.op_count()),
            ExecPlan::Interpreted(_) => None,
        }
    }

    /// The lowered static schedule, when this reactor executes one. The
    /// symbolic checker transcribes it into a transition relation — the
    /// schedule *is* the program's exact per-reaction semantics (bails
    /// included), so encoding it symbolically needs no second lowering.
    pub fn compiled_schedule(&self) -> Option<&CompiledComponent> {
        match &self.plan {
            ExecPlan::Compiled(cc) => Some(cc),
            ExecPlan::Interpreted(_) => None,
        }
    }

    /// Why no static schedule was lowered, when lowering was attempted and
    /// failed (`None` for a compiled reactor and for one built to
    /// interpret).
    pub fn lower_failure(&self) -> Option<&LowerFailure> {
        match &self.plan {
            ExecPlan::Interpreted(failure) => failure.as_ref(),
            ExecPlan::Compiled(_) => None,
        }
    }

    /// The signal-name table; ids are dense indices in declaration order.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The id of a declared signal name, if any.
    pub fn sig_id(&self, name: impl AsRef<str>) -> Option<SigId> {
        self.interner.lookup(name)
    }

    /// Number of declared signals (the slot count of every [`DenseEnv`]
    /// this reactor consumes or produces).
    pub fn signal_count(&self) -> usize {
        self.interner.len()
    }

    /// The program's external input ids, in id order.
    pub fn input_ids(&self) -> &[SigId] {
        &self.input_ids
    }

    /// The program's external input names.
    pub fn input_names(&self) -> Vec<SigName> {
        self.input_ids.iter().map(|&id| self.interner.name(id).clone()).collect()
    }

    /// All signal names, in id order.
    pub fn signal_names(&self) -> &[SigName] {
        self.interner.names()
    }

    /// Converts a scenario's name-keyed steps to one [`DenseEnv`] per
    /// instant against this reactor's ids — the boundary work every driver
    /// does once, before its reaction loop.
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] for the first name this reactor does not
    /// declare, so a bad scenario is rejected before any reaction runs.
    pub fn dense_scenario(&self, scenario: &Scenario) -> Result<Vec<DenseEnv>, SimError> {
        let n = self.signal_count();
        let mut steps = Vec::with_capacity(scenario.len());
        for inputs in scenario.iter() {
            let mut env = DenseEnv::new(n);
            for (name, value) in inputs {
                let Some(id) = self.sig_id(name) else {
                    return Err(SimError::NotAnInput { name: name.clone() });
                };
                env.set(id, *value);
            }
            steps.push(env);
        }
        Ok(steps)
    }

    /// Number of `pre` registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Current values of the `pre` registers (the program state).
    pub fn registers(&self) -> &[Value] {
        &self.registers
    }

    /// Overwrites the program state (used by the model checker to explore
    /// arbitrary states).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from [`Reactor::register_count`].
    pub fn set_registers(&mut self, regs: &[Value]) {
        assert_eq!(regs.len(), self.registers.len(), "register file size mismatch");
        self.registers.copy_from_slice(regs);
    }

    /// Resets state and step counter.
    pub fn reset(&mut self) {
        self.registers.copy_from_slice(&self.initial_registers);
        self.step = 0;
        self.passes = 0;
        self.evals = 0;
    }

    /// Captures the mutable execution state — registers and step counter —
    /// without copying the (immutable, shareable) compiled program. Much
    /// cheaper than cloning the whole reactor; the explicit-state checkers
    /// use it to park and revisit exploration states.
    pub fn snapshot(&self) -> ReactorState {
        ReactorState { registers: self.registers.clone().into_boxed_slice(), step: self.step }
    }

    /// Restores a state captured by [`Reactor::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a reactor with a different register
    /// file size.
    pub fn restore(&mut self, state: &ReactorState) {
        self.set_registers(&state.registers);
        self.step = state.step;
    }

    /// Number of reactions executed since the last reset.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Executes one reaction on dense environments — the hot path.
    ///
    /// `inputs` is addressed by this reactor's [`SigId`]s: a present slot
    /// supplies an external input for this instant, an empty slot means the
    /// input is absent (slots beyond [`Reactor::signal_count`] are ignored).
    /// Returns the borrowed output environment: every signal present in the
    /// reaction, with its value. The buffer is reused by the next reaction,
    /// so copy out anything that must survive.
    ///
    /// A steady-state call performs no heap allocation; signal names are
    /// only materialized when constructing an error.
    ///
    /// When a static schedule was lowered at build time (see
    /// [`Reactor::is_compiled`]) the reaction executes it linearly with no
    /// fixpoint passes, bailing to the interpreter on any anomaly —
    /// outputs, registers and error strings are bit-identical either way.
    ///
    /// # Errors
    ///
    /// See [`SimError`]: non-input driven, type mismatch, undetermined
    /// clocks, contradictions.
    pub fn react_dense(&mut self, inputs: &DenseEnv) -> Result<&DenseEnv, SimError> {
        // Compiled fast path, straight off the fields (no scratch
        // juggling): `Ok` is definitive and commits below; `Err` means the
        // executor bailed — nothing was committed, and the interpreter
        // re-runs from the identical pre-reaction state. Bailed ops still
        // count toward `evals` (the re-run adds its own).
        if let ExecPlan::Compiled(cc) = &self.plan {
            let run = cc.execute(
                &self.registers,
                inputs,
                &mut self.scratch.slots,
                &mut self.scratch.new_regs,
            );
            match run {
                Ok(ops_run) => {
                    self.evals += ops_run;
                    self.passes += 1;
                    std::mem::swap(&mut self.registers, &mut self.scratch.new_regs);
                    self.step += 1;
                    let n = self.interner.len();
                    self.out_env.reset(n);
                    for (i, f) in self.scratch.slots[..n].iter().enumerate() {
                        if let Flow::Present(v) = f {
                            self.out_env.set(SigId(i as u32), *v);
                        }
                    }
                    return Ok(&self.out_env);
                }
                Err(ops_run) => self.evals += ops_run,
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.react_interpreted(inputs, &mut scratch);
        self.scratch = scratch;
        result.map(|()| &self.out_env)
    }

    /// Executes one reaction on name-keyed maps — the compatibility
    /// boundary over [`Reactor::react_dense`].
    ///
    /// `inputs` maps *external input* names to values for inputs present
    /// this instant; inputs not mentioned are absent. Returns the signals
    /// present in the reaction with their values, in declaration (id)
    /// order.
    ///
    /// # Errors
    ///
    /// See [`SimError`]: non-input driven, type mismatch, undetermined
    /// clocks, contradictions.
    pub fn react(
        &mut self,
        inputs: &BTreeMap<SigName, Value>,
    ) -> Result<Vec<(SigName, Value)>, SimError> {
        let mut env = std::mem::take(&mut self.in_env);
        env.reset(self.interner.len());
        let mut unknown: Option<SigName> = None;
        for (name, value) in inputs {
            match self.interner.lookup(name) {
                Some(id) => env.set(id, *value),
                None => {
                    unknown = Some(name.clone());
                    break;
                }
            }
        }
        let result = match unknown {
            Some(name) => Err(SimError::NotAnInput { name }),
            None => self.react_dense(&env).map(|_| ()),
        };
        self.in_env = env;
        result?;
        Ok(self.out_env.iter().map(|(id, v)| (self.interner.name(id).clone(), v)).collect())
    }

    /// Seeds the interpreter's per-reaction statuses: present slots drive
    /// inputs, every other input is absent this instant. The compiled
    /// executor seeds its own slots and *bails* on the anomalies this
    /// method turns into errors, so the errors below are raised by exactly
    /// one path either way.
    fn seed_inputs(&self, inputs: &DenseEnv, status: &mut Vec<Status>) -> Result<(), SimError> {
        let n = self.interner.len();
        status.clear();
        status.resize(n, Status::Unknown);
        for (i, slot) in status.iter_mut().enumerate() {
            match inputs.get(SigId(i as u32)) {
                Some(value) => {
                    if !self.is_input[i] {
                        return Err(SimError::NotAnInput { name: self.sig_name(i) });
                    }
                    if value.ty() != self.types[i] {
                        return Err(SimError::InputType {
                            name: self.sig_name(i),
                            expected: self.types[i],
                            found: value.ty(),
                        });
                    }
                    *slot = Status::Present(value);
                }
                None => {
                    if self.is_input[i] {
                        *slot = Status::Absent;
                    }
                }
            }
        }
        Ok(())
    }

    /// The constructive fixpoint; `scratch` is taken out of `self` so the
    /// loop below can borrow `self` immutably while mutating statuses.
    fn react_interpreted(
        &mut self,
        inputs: &DenseEnv,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let step = self.step;
        let n = self.interner.len();
        self.seed_inputs(inputs, &mut scratch.status)?;
        let status = &mut scratch.status;

        // seed clock propagation: with the inputs decided, the sync groups
        // (and subset edges) already fix the presence of most derived
        // signals — deciding them *before* the first equation sweep lets
        // that sweep produce values instead of Unknowns, typically saving a
        // whole fixpoint pass per reaction
        self.propagate_clocks(status, step)?;

        // constructive fixpoint
        let eq_done = &mut scratch.eq_done;
        eq_done.clear();
        eq_done.resize(self.equations.len(), false);
        loop {
            self.passes += 1;
            let mut changed = false;
            let mut all_done = true;
            for (ei, (lhs, rhs)) in self.equations.iter().enumerate() {
                if eq_done[ei] {
                    continue;
                }
                self.evals += 1;
                let result = self.eval(rhs, status, *lhs, step)?;
                let joined = match result {
                    Ev::Unknown => Status::Unknown,
                    Ev::Absent => Status::Absent,
                    Ev::PresentUnvalued => Status::PresentUnvalued,
                    Ev::Present(v) => Status::Present(v),
                    Ev::Ubiquitous(v) => {
                        // constants adapt to the defined signal's clock
                        match status[*lhs] {
                            Status::Present(_) | Status::PresentUnvalued => Status::Present(v),
                            _ => Status::Unknown,
                        }
                    }
                };
                changed |= join_status(status, *lhs, joined, step, &self.interner)?;
                // statuses only move up the lattice and registers are fixed
                // within a reaction, so evaluation is monotone: a decided
                // result (or a ubiquitous one joined against a decided lhs)
                // can never change — later passes skip the equation
                eq_done[ei] = match result {
                    Ev::Present(_) | Ev::Absent => true,
                    Ev::Ubiquitous(_) => {
                        matches!(status[*lhs], Status::Present(_) | Status::Absent)
                    }
                    Ev::Unknown | Ev::PresentUnvalued => false,
                };
                all_done &= eq_done[ei];
            }
            // every equation is final and every status is fully decided:
            // statuses only move up the lattice, so neither another sweep
            // nor clock propagation has anything left to do — skip the
            // confirming pass entirely
            if all_done && status.iter().all(|s| matches!(s, Status::Absent | Status::Present(_))) {
                break;
            }
            changed |= self.propagate_clocks(status, step)?;
            if !changed {
                break;
            }
        }

        // everything must be decided and valued
        if status.iter().any(|s| matches!(s, Status::Unknown | Status::PresentUnvalued)) {
            let signals: Vec<SigName> = status
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Status::Unknown | Status::PresentUnvalued))
                .map(|(i, _)| self.sig_name(i))
                .collect();
            return Err(SimError::UndeterminedClock { step, signals });
        }

        // advance registers: a `pre` advances when its body is present
        let updates = &mut scratch.updates;
        updates.clear();
        for (ei, (lhs, rhs)) in self.equations.iter().enumerate() {
            if !self.eq_has_pre[ei] {
                continue;
            }
            self.collect_register_updates(rhs, status, *lhs, step, updates)?;
        }
        for &(reg, v) in updates.iter() {
            self.registers[reg] = v;
        }
        self.step += 1;

        self.out_env.reset(n);
        for (i, s) in status.iter().enumerate() {
            if let Some(v) = s.value() {
                self.out_env.set(SigId(i as u32), v);
            }
        }
        Ok(())
    }

    /// One sweep of clock-group and subset-edge propagation over the
    /// statuses; returns whether anything changed. Only `Unknown` slots are
    /// ever joined, so a sweep can never contradict a decided signal.
    fn propagate_clocks(&self, status: &mut [Status], step: usize) -> Result<bool, SimError> {
        let mut changed = false;
        // clock-group propagation: presence/absence is shared
        for group in self.prop_groups.iter().map(|&g| &self.groups[g]) {
            let mut decided: Option<Status> = None;
            for &i in group {
                match status[i] {
                    Status::Absent => decided = Some(Status::Absent),
                    Status::Present(_) | Status::PresentUnvalued => {
                        if decided != Some(Status::Absent) {
                            decided = Some(Status::PresentUnvalued);
                        }
                    }
                    Status::Unknown => {}
                }
            }
            if let Some(d) = decided {
                for &i in group {
                    if status[i] == Status::Unknown {
                        changed |= join_status(status, i, d, step, &self.interner)?;
                    }
                }
            }
        }
        // subset edges: sub present ⇒ sup present; sup absent ⇒ sub absent
        for &(sub, sup) in &self.subset_edges {
            let sub_present = self.groups[sub].iter().any(|&i| status[i].is_present());
            let sup_absent = self.groups[sup].iter().any(|&i| status[i] == Status::Absent);
            if sub_present {
                for &i in &self.groups[sup] {
                    if status[i] == Status::Unknown {
                        changed |=
                            join_status(status, i, Status::PresentUnvalued, step, &self.interner)?;
                    }
                }
            }
            if sup_absent {
                for &i in &self.groups[sub] {
                    if status[i] == Status::Unknown {
                        changed |= join_status(status, i, Status::Absent, step, &self.interner)?;
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Materializes a signal's name for an error; never on the happy path.
    #[cold]
    fn sig_name(&self, signal: usize) -> SigName {
        self.interner.names()[signal].clone()
    }

    /// Evaluates a compiled expression under the current statuses.
    fn eval(
        &self,
        e: &CExpr,
        status: &[Status],
        signal: usize,
        step: usize,
    ) -> Result<Ev, SimError> {
        Ok(match e {
            CExpr::Var(i) => Ev::of_status(status[*i]),
            CExpr::Const(v) => Ev::Ubiquitous(*v),
            CExpr::Pre { reg, body } => match self.eval(body, status, signal, step)? {
                Ev::Unknown => Ev::Unknown,
                Ev::Absent => Ev::Absent,
                Ev::PresentUnvalued | Ev::Present(_) => Ev::Present(self.registers[*reg]),
                Ev::Ubiquitous(_) => Ev::Ubiquitous(self.registers[*reg]),
            },
            CExpr::When { body, cond } => {
                let b = self.eval(body, status, signal, step)?;
                let c = self.eval(cond, status, signal, step)?;
                match (b, c) {
                    (Ev::Absent, _) => Ev::Absent,
                    (_, Ev::Absent) => Ev::Absent,
                    (_, Ev::Present(Value::Bool(false))) => Ev::Absent,
                    (_, Ev::Ubiquitous(Value::Bool(false))) => Ev::Absent,
                    (b, Ev::Present(Value::Bool(true))) => match b {
                        // a true condition anchors a constant's clock
                        Ev::Ubiquitous(v) => Ev::Present(v),
                        other => other,
                    },
                    (b, Ev::Ubiquitous(Value::Bool(true))) => b,
                    (_, Ev::Present(_)) | (_, Ev::Ubiquitous(_)) => {
                        return Err(SimError::ValueType { step, signal: self.sig_name(signal) })
                    }
                    (_, Ev::Unknown | Ev::PresentUnvalued) => Ev::Unknown,
                }
            }
            CExpr::Default { left, right } => {
                let l = self.eval(left, status, signal, step)?;
                match l {
                    Ev::Present(v) => Ev::Present(v),
                    Ev::Ubiquitous(v) => Ev::Ubiquitous(v),
                    Ev::PresentUnvalued => Ev::PresentUnvalued,
                    Ev::Absent => self.eval(right, status, signal, step)?,
                    Ev::Unknown => {
                        // presence is monotone: if the fallback is already
                        // known present, the merge is present (value TBD)
                        match self.eval(right, status, signal, step)? {
                            Ev::Present(_) | Ev::PresentUnvalued => Ev::PresentUnvalued,
                            _ => Ev::Unknown,
                        }
                    }
                }
            }
            CExpr::Unary { op, arg } => {
                let a = self.eval(arg, status, signal, step)?;
                match op {
                    Unop::ClockOf => match a {
                        Ev::Absent => Ev::Absent,
                        Ev::Present(_) | Ev::PresentUnvalued => Ev::Present(Value::TRUE),
                        Ev::Ubiquitous(_) => Ev::Ubiquitous(Value::TRUE),
                        Ev::Unknown => Ev::Unknown,
                    },
                    Unop::Not | Unop::Neg => {
                        // `- i64::MIN` overflows: a value error, like `0 - a`
                        let f = |v: Value| -> Result<Value, SimError> {
                            match (op, v) {
                                (Unop::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
                                (Unop::Neg, Value::Int(i)) => i.checked_neg().map(Value::Int),
                                _ => None,
                            }
                            .ok_or_else(|| SimError::ValueType {
                                step,
                                signal: self.sig_name(signal),
                            })
                        };
                        match a {
                            Ev::Present(v) => Ev::Present(f(v)?),
                            Ev::Ubiquitous(v) => Ev::Ubiquitous(f(v)?),
                            other => other,
                        }
                    }
                }
            }
            CExpr::Binary { op, left, right } => {
                let l = self.eval(left, status, signal, step)?;
                let r = self.eval(right, status, signal, step)?;
                self.eval_binary(*op, l, r, signal, step)?
            }
        })
    }

    fn eval_binary(
        &self,
        op: Binop,
        l: Ev,
        r: Ev,
        signal: usize,
        step: usize,
    ) -> Result<Ev, SimError> {
        use Ev::*;
        Ok(match (l, r) {
            (Absent, Absent) => Absent,
            (Absent, Ubiquitous(_)) | (Ubiquitous(_), Absent) => Absent,
            (Absent, Present(_) | PresentUnvalued) | (Present(_) | PresentUnvalued, Absent) => {
                return Err(SimError::ClockMismatch { step, signal: self.sig_name(signal) })
            }
            // synchronous operands share one clock: a decided side decides
            // the other (this is what lets `pre` feedback loops converge)
            (Absent, Unknown) | (Unknown, Absent) => Absent,
            (Unknown, Present(_) | PresentUnvalued) | (Present(_) | PresentUnvalued, Unknown) => {
                PresentUnvalued
            }
            (Unknown, _) | (_, Unknown) => Unknown,
            (PresentUnvalued, _) | (_, PresentUnvalued) => PresentUnvalued,
            (Present(a), Present(b))
            | (Present(a), Ubiquitous(b))
            | (Ubiquitous(a), Present(b)) => Present(
                op.apply(a, b)
                    .ok_or_else(|| SimError::ValueType { step, signal: self.sig_name(signal) })?,
            ),
            (Ubiquitous(a), Ubiquitous(b)) => Ubiquitous(
                op.apply(a, b)
                    .ok_or_else(|| SimError::ValueType { step, signal: self.sig_name(signal) })?,
            ),
        })
    }

    /// Collects `pre` register updates after a decided reaction.
    fn collect_register_updates(
        &self,
        e: &CExpr,
        status: &[Status],
        signal: usize,
        step: usize,
        out: &mut Vec<(usize, Value)>,
    ) -> Result<(), SimError> {
        match e {
            CExpr::Var(_) | CExpr::Const(_) => Ok(()),
            CExpr::Pre { reg, body } => {
                if let Ev::Present(v) = self.eval(body, status, signal, step)? {
                    out.push((*reg, v));
                }
                self.collect_register_updates(body, status, signal, step, out)
            }
            CExpr::When { body, cond } => {
                self.collect_register_updates(body, status, signal, step, out)?;
                self.collect_register_updates(cond, status, signal, step, out)
            }
            CExpr::Default { left, right } | CExpr::Binary { left, right, .. } => {
                self.collect_register_updates(left, status, signal, step, out)?;
                self.collect_register_updates(right, status, signal, step, out)
            }
            CExpr::Unary { arg, .. } => {
                self.collect_register_updates(arg, status, signal, step, out)
            }
        }
    }
}

/// Orders the compiled equations so that each signal's equation comes after
/// the equations of its instantaneous dependencies (merged across
/// components). Cyclic programs (which the language layer rejects for
/// single components but a merged program could theoretically exhibit via
/// clock feedback) keep their original order — the fixpoint still handles
/// them, just in more passes.
fn schedule_equations(equations: Vec<(usize, CExpr)>, n: usize) -> (Vec<(usize, CExpr)>, bool) {
    let mut is_defined = vec![false; n];
    for (lhs, _) in &equations {
        is_defined[*lhs] = true;
    }
    // instantaneous dependency edges `(dep, dependent)`, sorted so that
    // each dep's dependents form one run in ascending id order; only deps
    // on *defined* signals can delay an equation (inputs are always
    // decided before the first sweep). A signal read twice is an edge
    // twice: the copies sit side by side in its run, so the dependent
    // reaches indegree 0 exactly when it would with one edge
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (lhs, rhs) in &equations {
        rhs.visit_instant_vars(&mut |d| {
            if is_defined[d] {
                edges.push((d, *lhs));
            }
        });
    }
    edges.sort_unstable();
    let mut indegree = vec![0usize; n];
    let mut run_start = vec![0usize; n + 1];
    for &(d, lhs) in &edges {
        indegree[lhs] += 1;
        run_start[d + 1] += 1;
    }
    for i in 0..n {
        run_start[i + 1] += run_start[i];
    }
    // Kahn's algorithm over the defined signals only, queue-based: O(V + E)
    let mut queue: Vec<usize> = (0..n).filter(|&i| is_defined[i] && indegree[i] == 0).collect();
    let mut rank = vec![usize::MAX; n];
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        rank[i] = head;
        head += 1;
        for &(_, r) in &edges[run_start[i]..run_start[i + 1]] {
            indegree[r] -= 1;
            if indegree[r] == 0 {
                queue.push(r);
            }
        }
    }
    if queue.len() < is_defined.iter().filter(|&&d| d).count() {
        // cycle: keep the original order (and report it, so no static
        // schedule is lowered over a cyclic order)
        return (equations, false);
    }
    let mut scheduled = equations;
    scheduled.sort_by_key(|(lhs, _)| rank[*lhs]);
    (scheduled, true)
}

/// Renames component locals whose names collide with declarations in other
/// components to `<component>.<name>`: in the merged reaction system, two
/// components' private state must never alias (shared inputs/outputs keep
/// their names — that sharing is the wiring). `None` when nothing collides
/// (the common case — and every program the estimation loop compiles), so
/// the components are used as they are, without cloning.
fn disambiguate_locals(components: &[&Component]) -> Option<Vec<Component>> {
    let decls = components.iter().map(|c| c.decls.len()).sum();
    let mut owners: HashMap<&str, usize> = HashMap::with_capacity(decls);
    for c in components {
        for d in &c.decls {
            *owners.entry(d.name.as_str()).or_default() += 1;
        }
    }
    let collides = |d: &Declaration| d.role == Role::Local && owners[d.name.as_str()] > 1;
    if !components.iter().any(|c| c.decls.iter().any(collides)) {
        return None;
    }
    let renamed = components
        .iter()
        .map(|&c| {
            let locals: Vec<&SigName> =
                c.decls.iter().filter(|d| collides(d)).map(|d| &d.name).collect();
            let mut renamed = c.clone();
            for l in locals {
                let fresh = SigName::from(format!("{}.{}", c.name, l));
                renamed = renamed.rename_signal(l, &fresh);
            }
            renamed
        })
        .collect();
    Some(renamed)
}

fn join_status(
    status: &mut [Status],
    i: usize,
    new: Status,
    step: usize,
    interner: &Interner,
) -> Result<bool, SimError> {
    let old = status[i];
    status[i].join(new).map_err(|()| SimError::Contradiction {
        step,
        name: interner.names()[i].clone(),
        old,
        new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;

    fn reactor(src: &str) -> Reactor {
        Reactor::for_program(&parse_program(src).unwrap()).unwrap()
    }

    fn present(inputs: &[(&str, Value)]) -> BTreeMap<SigName, Value> {
        inputs.iter().map(|(n, v)| (SigName::from(*n), *v)).collect()
    }

    #[test]
    fn snapshot_restore_round_trips_execution_state() {
        let mut r = reactor(
            "process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }",
        );
        r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        let parked = r.snapshot();
        r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert_ne!(r.snapshot(), parked);
        r.restore(&parked);
        assert_eq!(r.snapshot(), parked);
        assert_eq!(r.steps_taken(), 1);
        // replaying from the restored state reproduces the same reaction
        let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        let n = out.iter().find(|(name, _)| name.as_str() == "n").unwrap().1;
        assert_eq!(n, Value::Int(2));
    }

    #[test]
    fn identity_passes_values_through() {
        let mut r = reactor("process P { input a: int; output x: int; x := a; }");
        let out = r.react(&present(&[("a", Value::Int(5))])).unwrap();
        assert_eq!(out, vec![("a".into(), Value::Int(5)), ("x".into(), Value::Int(5))]);
        // absent input → silent reaction
        let out = r.react(&present(&[])).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn accumulator_with_pre_feedback() {
        let mut r = reactor(
            "process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }",
        );
        for expected in 1..=3 {
            let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
            let n = out.iter().find(|(name, _)| name.as_str() == "n").unwrap().1;
            assert_eq!(n, Value::Int(expected));
        }
        // a silent instant does not advance the accumulator
        r.react(&present(&[])).unwrap();
        let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert_eq!(out.iter().find(|(n, _)| n.as_str() == "n").unwrap().1, Value::Int(4));
    }

    #[test]
    fn when_filters_by_condition_value() {
        let mut r = reactor("process P { input a: int, c: bool; output x: int; x := a when c; }");
        let out = r.react(&present(&[("a", Value::Int(1)), ("c", Value::TRUE)])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(1)));
        let out = r.react(&present(&[("a", Value::Int(2)), ("c", Value::FALSE)])).unwrap();
        assert!(!out.iter().any(|(n, _)| n.as_str() == "x"));
        let out = r.react(&present(&[("a", Value::Int(3))])).unwrap();
        assert!(!out.iter().any(|(n, _)| n.as_str() == "x"));
    }

    #[test]
    fn default_prefers_left() {
        let mut r = reactor("process P { input a: int, b: int; output x: int; x := a default b; }");
        let out = r.react(&present(&[("a", Value::Int(1)), ("b", Value::Int(2))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(1)));
        let out = r.react(&present(&[("b", Value::Int(2))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(2)));
    }

    #[test]
    fn pre_register_advances_only_on_body_ticks() {
        let mut r = reactor("process P { input a: int; output x: int; x := pre 9 a; }");
        let out = r.react(&present(&[("a", Value::Int(1))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(9)));
        r.react(&present(&[])).unwrap();
        let out = r.react(&present(&[("a", Value::Int(2))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(1)));
    }

    #[test]
    fn state_loop_with_sync_constraint() {
        // classic register at an explicit master clock
        let mut r = reactor(
            "process P { input tick: bool, set: int; output s: int; \
             s := set default (pre 0 s); s ^= tick; }",
        );
        let out = r.react(&present(&[("tick", Value::TRUE), ("set", Value::Int(7))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "s" && *v == Value::Int(7)));
        let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "s" && *v == Value::Int(7)));
    }

    #[test]
    fn free_clock_is_rejected() {
        // s's clock is unconstrained when `set` is absent
        let mut r =
            reactor("process P { input set: int; output s: int; s := set default (pre 0 s); }");
        let err = r.react(&present(&[])).unwrap_err();
        assert!(matches!(err, SimError::UndeterminedClock { .. }));
    }

    #[test]
    fn clock_mismatch_detected_dynamically() {
        let mut r = reactor("process P { input a: int, b: int; output x: int; x := a + b; }");
        let err = r.react(&present(&[("a", Value::Int(1))])).unwrap_err();
        // class propagation forces b present; scenario says absent
        assert!(matches!(err, SimError::ClockMismatch { .. } | SimError::Contradiction { .. }));
    }

    #[test]
    fn scenario_type_checked() {
        let mut r = reactor("process P { input a: int; output x: int; x := a; }");
        let err = r.react(&present(&[("a", Value::TRUE)])).unwrap_err();
        assert!(matches!(err, SimError::InputType { .. }));
    }

    #[test]
    fn driving_non_input_rejected() {
        let mut r = reactor("process P { input a: int; output x: int; x := a; }");
        let err = r.react(&present(&[("x", Value::Int(1))])).unwrap_err();
        assert!(matches!(err, SimError::NotAnInput { .. }));
    }

    #[test]
    fn driving_undeclared_name_rejected() {
        let mut r = reactor("process P { input a: int; output x: int; x := a; }");
        let err = r.react(&present(&[("ghost", Value::Int(1))])).unwrap_err();
        assert!(matches!(err, SimError::NotAnInput { name } if name.as_str() == "ghost"));
    }

    #[test]
    fn two_components_share_signals() {
        let mut r = reactor(
            "process A { input a: int; output x: int; x := a + 1; } \
             process B { input x: int; output y: int; y := x * 2; }",
        );
        let out = r.react(&present(&[("a", Value::Int(3))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "y" && *v == Value::Int(8)));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut r = reactor(
            "process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }",
        );
        r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert_eq!(r.steps_taken(), 1);
        r.reset();
        assert_eq!(r.steps_taken(), 0);
        let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "n" && *v == Value::Int(1)));
    }

    #[test]
    fn clock_of_yields_true_at_operand_instants() {
        let mut r = reactor(
            "process P { input a: int, tick: bool; output k: bool; \
             k := (^a) default (false when tick); }",
        );
        let out = r.react(&present(&[("a", Value::Int(1)), ("tick", Value::TRUE)])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "k" && *v == Value::TRUE));
        let out = r.react(&present(&[("tick", Value::TRUE)])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "k" && *v == Value::FALSE));
    }

    #[test]
    fn registers_are_inspectable_and_settable() {
        let mut r = reactor("process P { input a: int; output x: int; x := pre 0 a; }");
        assert_eq!(r.register_count(), 1);
        r.set_registers(&[Value::Int(42)]);
        let out = r.react(&present(&[("a", Value::Int(1))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "x" && *v == Value::Int(42)));
        assert_eq!(r.registers(), &[Value::Int(1)]);
    }

    #[test]
    fn dense_and_name_keyed_paths_agree() {
        let src =
            "process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }";
        let mut by_name = reactor(src);
        let mut by_id = reactor(src);
        let tick = by_id.sig_id("tick").unwrap();
        for instant in 0..6 {
            let mut env = DenseEnv::new(by_id.signal_count());
            let mut map = BTreeMap::new();
            if instant % 3 != 2 {
                env.set(tick, Value::TRUE);
                map.insert(SigName::from("tick"), Value::TRUE);
            }
            let named = by_name.react(&map).unwrap();
            let dense = by_id.react_dense(&env).unwrap();
            let rendered: Vec<(SigName, Value)> =
                dense.iter().map(|(id, v)| (by_name.interner().name(id).clone(), v)).collect();
            assert_eq!(named, rendered);
        }
        assert_eq!(by_name.registers(), by_id.registers());
    }

    #[test]
    fn endochronous_programs_get_a_compiled_plan() {
        // the fig2 one-place buffer: every clock is rooted in the inputs
        let src = "process OnePlaceBuffer {
            input msgin: int, rd: bool, tick: bool;
            output msgout: int, full: bool;
            local inw: bool, rdw: bool, fullprev: bool, data: int;
            sync tick, full, data;
            inw := (^msgin) default (false when tick);
            rdw := (rd when rd) default (false when tick);
            fullprev := (pre false full) when tick;
            msgout := (pre 0 data) when (rdw and fullprev);
            full := (fullprev and (not rdw)) or inw;
            data := (msgin when inw) default ((pre 0 data) when tick);
        }";
        let r = Reactor::for_program(&parse_program(src).unwrap()).unwrap();
        assert!(r.is_compiled());
        assert!(r.compiled_op_count().unwrap() > 0);
    }

    #[test]
    fn free_clock_program_falls_back_to_the_interpreter() {
        // s's clock is not derivable from the inputs: lowering must fail
        // gracefully (no error) and leave the interpreter in charge
        let src = "process P { input set: int; output s: int; s := set default (pre 0 s); }";
        let mut r = Reactor::for_program(&parse_program(src).unwrap()).unwrap();
        assert!(!r.is_compiled());
        assert_eq!(r.compiled_op_count(), None);
        // and execution still behaves exactly like the plain reactor
        let out = r.react(&present(&[("set", Value::Int(3))])).unwrap();
        assert!(out.iter().any(|(n, v)| n.as_str() == "s" && *v == Value::Int(3)));
    }

    #[test]
    fn forced_interpretation_never_compiles() {
        let src =
            "process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }";
        let p = parse_program(src).unwrap();
        assert!(Reactor::for_program(&p).unwrap().is_compiled());
        assert!(!Reactor::for_program_interpreted(&p).unwrap().is_compiled());
        assert!(!Reactor::for_program_unscheduled(&p).unwrap().is_compiled());
    }

    #[test]
    fn compiled_and_interpreted_agree_instant_by_instant() {
        let src = "process Mix {
            input tick: bool, set: int;
            output s: int, parity: bool;
            s := set default (pre 0 s);
            s ^= tick;
            parity := (pre false parity) /= (true when tick);
        }";
        let p = parse_program(src).unwrap();
        let mut compiled = Reactor::for_program(&p).unwrap();
        let mut interp = Reactor::for_program_interpreted(&p).unwrap();
        assert!(compiled.is_compiled());
        for instant in 0..12 {
            let mut inputs = Vec::new();
            if instant % 3 != 2 {
                inputs.push(("tick", Value::TRUE));
            }
            if instant % 4 == 1 && instant % 3 != 2 {
                inputs.push(("set", Value::Int(instant)));
            }
            let env = present(&inputs);
            assert_eq!(compiled.react(&env).unwrap(), interp.react(&env).unwrap());
            assert_eq!(compiled.registers(), interp.registers());
            assert_eq!(compiled.snapshot(), interp.snapshot());
        }
        // one compiled reaction = one pass, with ops (not rhs evals) as
        // the work unit
        assert_eq!(compiled.passes(), 12);
        assert!(compiled.evals() > 0);
    }

    #[test]
    fn compiled_plan_reproduces_interpreter_errors_exactly() {
        // a + b with b absent: the executor bails and the interpreter
        // re-run raises the identical error
        let src = "process P { input a: int, b: int; output x: int; x := a + b; }";
        let p = parse_program(src).unwrap();
        let mut compiled = Reactor::for_program(&p).unwrap();
        let mut interp = Reactor::for_program_interpreted(&p).unwrap();
        assert!(compiled.is_compiled());
        let env = present(&[("a", Value::Int(1))]);
        let ce = compiled.react(&env).unwrap_err();
        let ie = interp.react(&env).unwrap_err();
        assert_eq!(ce.to_string(), ie.to_string());
        // scenario errors too (shared seeding)
        let env = present(&[("x", Value::Int(1))]);
        assert_eq!(
            compiled.react(&env).unwrap_err().to_string(),
            interp.react(&env).unwrap_err().to_string()
        );
        let env = present(&[("a", Value::TRUE)]);
        assert_eq!(
            compiled.react(&env).unwrap_err().to_string(),
            interp.react(&env).unwrap_err().to_string()
        );
    }

    #[test]
    fn negating_i64_min_is_a_value_error_on_both_plans() {
        // `- a` overflows on exactly the input `0 - a` does, and both
        // plans raise the same value error for it
        let neg = parse_program("process P { input a: int; output x: int; x := - a; }").unwrap();
        let sub = parse_program("process P { input a: int; output x: int; x := 0 - a; }").unwrap();
        let mut compiled = Reactor::for_program(&neg).unwrap();
        let mut interp = Reactor::for_program_interpreted(&neg).unwrap();
        assert!(compiled.is_compiled());
        let env = present(&[("a", Value::Int(i64::MIN))]);
        let ie = interp.react(&env).unwrap_err();
        assert!(matches!(ie, SimError::ValueType { .. }), "got {ie}");
        assert_eq!(compiled.react(&env).unwrap_err().to_string(), ie.to_string());
        let se = Reactor::for_program_interpreted(&sub).unwrap().react(&env).unwrap_err();
        assert_eq!(se.to_string(), ie.to_string());
        // the largest negatable value still negates
        let env = present(&[("a", Value::Int(i64::MIN + 1))]);
        let out = compiled.react(&env).unwrap();
        assert_eq!(out, interp.react(&env).unwrap());
        assert!(out.contains(&(SigName::from("x"), Value::Int(i64::MAX))));
    }

    #[test]
    fn dense_output_buffer_is_rewritten_each_reaction() {
        let mut r = reactor("process P { input a: int; output x: int; x := a; }");
        let a = r.sig_id("a").unwrap();
        let x = r.sig_id("x").unwrap();
        let mut env = DenseEnv::new(r.signal_count());
        env.set(a, Value::Int(1));
        assert_eq!(r.react_dense(&env).unwrap().get(x), Some(Value::Int(1)));
        env.unset(a);
        assert_eq!(r.react_dense(&env).unwrap().present_count(), 0);
    }
}
