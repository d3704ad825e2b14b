//! Clock-correct program and scenario generation.
//!
//! Programs are built as typed ASTs against `polysig-lang`'s builder, and
//! every construction rule preserves a well-clockedness invariant: an
//! expression is only ever combined synchronously (binary operators, `pre`,
//! `sync`) with expressions of the *same clock tier*, where a tier is a node
//! in a per-component clock tree — tier 0 is the component's root input
//! clock, and tier `k` is tier `k-1` filtered by a boolean guard signal
//! defined at tier `k-1`. Slower tiers may flow into faster ones only
//! through `default` (whose clock is the union), and sporadic inputs are
//! only used default-lifted onto the root tier. Constants appear only as
//! operands next to a clock-anchored expression. Under the scenarios
//! produced here (roots driven every instant), a generated program passes
//! name resolution, type checking and clock-consistent simulation by
//! construction — the [`crate::oracle::OracleKind::WellClocked`] oracle
//! treats any violation as a generator bug.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use polysig_gals::nfifo::{fifo_port, FifoPort};
use polysig_lang::{Binop, Component, ComponentBuilder, Expr, Program, Role, Unop};
use polysig_sim::Scenario;
use polysig_tagged::{SigName, Value, ValueType};

use crate::config::{GenConfig, Shape};

/// One generated conformance case: a program plus the scenarios the oracles
/// drive it with.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The program family this case was drawn from.
    pub shape: Shape,
    /// A well-clocked multi-component program.
    pub program: Program,
    /// A scenario driving the program's external inputs (roots at every
    /// instant, sporadic inputs at random ones).
    pub scenario: Scenario,
    /// For pipeline cases: the desynchronized-side environment (writer
    /// inputs ∪ per-channel read requests ∪ master `tick`) the estimation
    /// loop and the desynchronization oracle run under.
    pub est_scenario: Option<Scenario>,
}

impl GenCase {
    /// External inputs of the program: declared inputs not produced as any
    /// component's output.
    pub fn external_inputs(&self) -> Vec<(SigName, ValueType)> {
        external_inputs(&self.program)
    }
}

/// External inputs of `program`: declared inputs not written by any
/// component (these are what a scenario may drive).
pub fn external_inputs(program: &Program) -> Vec<(SigName, ValueType)> {
    let mut produced = Vec::new();
    for c in &program.components {
        for d in &c.decls {
            if d.role == Role::Output {
                produced.push(d.name.clone());
            }
        }
    }
    let mut out: Vec<(SigName, ValueType)> = Vec::new();
    for c in &program.components {
        for d in &c.decls {
            if d.role == Role::Input
                && !produced.contains(&d.name)
                && !out.iter().any(|(n, _)| n == &d.name)
            {
                out.push((d.name.clone(), d.ty));
            }
        }
    }
    out
}

/// Draws one case of the given shape.
pub fn generate_case(rng: &mut StdRng, config: &GenConfig, shape: Shape) -> GenCase {
    match shape {
        Shape::Free => generate_free(rng, config),
        Shape::Pipeline => generate_pipeline(rng, config),
        Shape::Ring => generate_ring(rng, config),
    }
}

// ---------------------------------------------------------------------------
// free shape: independent multi-clock components
// ---------------------------------------------------------------------------

/// Per-tier pools of usable variables, plus the guard chain.
struct Tiers {
    ints: Vec<Vec<SigName>>,
    bools: Vec<Vec<SigName>>,
    /// `guards[k]` is the boolean signal (at tier `k`) gating tier `k + 1`.
    guards: Vec<SigName>,
}

impl Tiers {
    fn new(capacity: usize) -> Tiers {
        Tiers {
            ints: vec![Vec::new(); capacity + 1],
            bools: vec![Vec::new(); capacity + 1],
            guards: Vec::new(),
        }
    }
}

/// Expression-generation context for one component.
struct Ctx<'a> {
    tiers: &'a Tiers,
    /// A sporadic int input, usable only default-lifted at tier 0.
    sporadic: Option<&'a SigName>,
}

fn pick<'a>(rng: &mut StdRng, items: &'a [SigName]) -> &'a SigName {
    &items[rng.gen_range(0..items.len())]
}

fn small_int(rng: &mut StdRng) -> i64 {
    rng.gen_range(-3..4)
}

fn arith_op(rng: &mut StdRng) -> Binop {
    match rng.gen_range(0..3) {
        0 => Binop::Add,
        1 => Binop::Sub,
        _ => Binop::Mul,
    }
}

fn cmp_op(rng: &mut StdRng) -> Binop {
    match rng.gen_range(0..6) {
        0 => Binop::Eq,
        1 => Binop::Ne,
        2 => Binop::Lt,
        3 => Binop::Le,
        4 => Binop::Gt,
        _ => Binop::Ge,
    }
}

/// An int-typed expression at the given tier.
fn gen_int(rng: &mut StdRng, ctx: &Ctx<'_>, tier: usize, depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| Expr::var(pick(rng, &ctx.tiers.ints[tier]).clone());
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..10) {
        0 | 1 => leaf(rng),
        2 => {
            let l = gen_int(rng, ctx, tier, depth - 1);
            let r = gen_int(rng, ctx, tier, depth - 1);
            let op = if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub };
            l.binop(op, r)
        }
        // constants only next to a clock-anchored operand
        3 => gen_int(rng, ctx, tier, depth - 1).binop(arith_op(rng), Expr::int(small_int(rng))),
        4 => gen_int(rng, ctx, tier, depth - 1).pre(Value::Int(small_int(rng))),
        5 => {
            let body = gen_int(rng, ctx, tier, depth - 1);
            let cond = gen_bool(rng, ctx, tier, depth - 1);
            let fallback = gen_int(rng, ctx, tier, depth - 1);
            body.when(cond).default(fallback)
        }
        6 => {
            // a slower tier flows into this one through `default` only
            let deeper: Vec<usize> = (tier + 1..ctx.tiers.ints.len())
                .filter(|&k| !ctx.tiers.ints[k].is_empty())
                .collect();
            match deeper.first() {
                Some(&k) => Expr::var(pick(rng, &ctx.tiers.ints[k]).clone()).default(gen_int(
                    rng,
                    ctx,
                    tier,
                    depth - 1,
                )),
                None => leaf(rng),
            }
        }
        7 => match (tier, ctx.sporadic) {
            // sporadic inputs only appear default-lifted onto the root tier
            (0, Some(sp)) => Expr::var(sp.clone()).default(gen_int(rng, ctx, 0, depth - 1)),
            _ => leaf(rng),
        },
        8 => Expr::Unary { op: Unop::Neg, arg: Box::new(gen_int(rng, ctx, tier, depth - 1)) },
        _ => {
            let l = gen_int(rng, ctx, tier, depth - 1);
            l.binop(Binop::Mul, Expr::int(rng.gen_range(-2..3)))
        }
    }
}

/// A bool-typed expression at the given tier.
fn gen_bool(rng: &mut StdRng, ctx: &Ctx<'_>, tier: usize, depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| {
        if !ctx.tiers.bools[tier].is_empty() && rng.gen_bool(0.6) {
            Expr::var(pick(rng, &ctx.tiers.bools[tier]).clone())
        } else if rng.gen_bool(0.5) {
            // an int var always exists at every tier; compare it to anchor
            Expr::var(pick(rng, &ctx.tiers.ints[tier]).clone())
                .binop(cmp_op(rng), Expr::int(small_int(rng)))
        } else {
            Expr::var(pick(rng, &ctx.tiers.ints[tier]).clone()).clock()
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..8) {
        0 | 1 => leaf(rng),
        2 => {
            let l = gen_int(rng, ctx, tier, depth - 1);
            let r = gen_int(rng, ctx, tier, depth - 1);
            l.binop(cmp_op(rng), r)
        }
        3 => {
            let l = gen_bool(rng, ctx, tier, depth - 1);
            let r = gen_bool(rng, ctx, tier, depth - 1);
            let op = if rng.gen_bool(0.5) { Binop::And } else { Binop::Or };
            l.binop(op, r)
        }
        4 => gen_bool(rng, ctx, tier, depth - 1).not(),
        5 => gen_bool(rng, ctx, tier, depth - 1).pre(Value::Bool(rng.gen_bool(0.5))),
        6 => {
            let body = gen_bool(rng, ctx, tier, depth - 1);
            let cond = gen_bool(rng, ctx, tier, depth - 1);
            let fallback = gen_bool(rng, ctx, tier, depth - 1);
            body.when(cond).default(fallback)
        }
        _ => gen_int(rng, ctx, tier, depth - 1).binop(cmp_op(rng), Expr::int(small_int(rng))),
    }
}

/// Scenario-side record of how each external input must be driven.
struct InputPlan {
    /// Int inputs present at every instant (component roots).
    roots: Vec<SigName>,
    /// Bool inputs present at every instant (root-tier guards).
    flags: Vec<SigName>,
    /// Int inputs present at random instants.
    sporadics: Vec<SigName>,
}

fn generate_free(rng: &mut StdRng, config: &GenConfig) -> GenCase {
    let ncomp = rng.gen_range(1..=config.max_components.max(1));
    let mut components = Vec::new();
    let mut exports: Vec<SigName> = Vec::new();
    let mut plan = InputPlan { roots: Vec::new(), flags: Vec::new(), sporadics: Vec::new() };

    for ci in 0..ncomp {
        let prefix = format!("g{ci}_");
        let mut b = ComponentBuilder::new(format!("C{ci}"));
        let mut tiers = Tiers::new(config.max_clock_tiers);

        let root = SigName::from(format!("{prefix}r"));
        b = b.input(root.clone(), ValueType::Int);
        plan.roots.push(root.clone());
        tiers.ints[0].push(root);

        if rng.gen_bool(0.6) {
            let flag = SigName::from(format!("{prefix}b"));
            b = b.input(flag.clone(), ValueType::Bool);
            plan.flags.push(flag.clone());
            tiers.bools[0].push(flag);
        }
        let sporadic = if rng.gen_bool(0.5) {
            let sp = SigName::from(format!("{prefix}sp"));
            b = b.input(sp.clone(), ValueType::Int);
            plan.sporadics.push(sp.clone());
            Some(sp)
        } else {
            None
        };
        // imports: earlier components' root-tier int outputs are themselves
        // present at every instant, so they join this component's tier 0
        for ex in &exports {
            if rng.gen_bool(0.35) {
                b = b.input(ex.clone(), ValueType::Int);
                tiers.ints[0].push(ex.clone());
            }
        }

        let nsig = rng.gen_range(1..=config.max_signals.max(1));
        let mut tier_count = 1usize;
        let mut defined_per_tier: Vec<Vec<SigName>> = vec![Vec::new(); config.max_clock_tiers + 1];
        let mut output_count = 0usize;

        for j in 0..nsig {
            // occasionally open a new, slower tier: a guard at the current
            // top tier plus a seed int signal so the new tier is inhabited
            if tier_count <= config.max_clock_tiers && rng.gen_bool(0.35) {
                let k = tier_count;
                let guard = SigName::from(format!("{prefix}t{k}g"));
                let gexpr = {
                    let ctx = Ctx { tiers: &tiers, sporadic: sporadic.as_ref() };
                    gen_bool(rng, &ctx, k - 1, 2)
                };
                b = b.local(guard.clone(), ValueType::Bool).equation(guard.clone(), gexpr);
                tiers.bools[k - 1].push(guard.clone());
                tiers.guards.push(guard.clone());

                let seed = SigName::from(format!("{prefix}t{k}v"));
                let sexpr = {
                    let ctx = Ctx { tiers: &tiers, sporadic: sporadic.as_ref() };
                    gen_int(rng, &ctx, k - 1, 2).when(Expr::var(guard))
                };
                b = b.local(seed.clone(), ValueType::Int).equation(seed.clone(), sexpr);
                tiers.ints[k].push(seed.clone());
                defined_per_tier[k].push(seed);
                tier_count += 1;
            }

            let tier = rng.gen_range(0..tier_count);
            let ty = if rng.gen_bool(0.7) { ValueType::Int } else { ValueType::Bool };
            let name = SigName::from(format!("{prefix}s{j}"));
            let mut rhs = {
                let ctx = Ctx { tiers: &tiers, sporadic: sporadic.as_ref() };
                let src_tier = tier.saturating_sub(1);
                let e = match ty {
                    ValueType::Int => gen_int(rng, &ctx, src_tier, config.max_expr_depth),
                    ValueType::Bool => gen_bool(rng, &ctx, src_tier, config.max_expr_depth),
                };
                if tier > 0 {
                    e.when(Expr::var(tiers.guards[tier - 1].clone()))
                } else {
                    e
                }
            };
            // accumulator feedback: `x := … + pre k x` stays on x's clock
            if ty == ValueType::Int && rng.gen_bool(0.3) {
                rhs =
                    rhs.binop(Binop::Add, Expr::var(name.clone()).pre(Value::Int(small_int(rng))));
            }
            let is_output = rng.gen_bool(0.5) || (j == nsig - 1 && output_count == 0);
            b = if is_output {
                output_count += 1;
                b.output(name.clone(), ty)
            } else {
                b.local(name.clone(), ty)
            };
            b = b.equation(name.clone(), rhs);
            match ty {
                ValueType::Int => tiers.ints[tier].push(name.clone()),
                ValueType::Bool => tiers.bools[tier].push(name.clone()),
            }
            defined_per_tier[tier].push(name.clone());
            if is_output && ty == ValueType::Int && tier == 0 {
                exports.push(name);
            }
        }

        // sync constraints only over signals of one tier — same clock by
        // construction, so the constraint can never contradict
        for names in &defined_per_tier {
            if names.len() >= 2 && rng.gen_bool(0.4) {
                b = b.sync(names.iter().cloned());
            }
        }
        components.push(b.build());
    }

    let name = if components.len() == 1 { components[0].name.clone() } else { "main".to_string() };
    let program = Program { name, components };
    let scenario = free_scenario(rng, &plan, config.scenario_steps);
    GenCase { shape: Shape::Free, program, scenario, est_scenario: None }
}

/// Drives every root and flag at every instant (anchoring tier 0) and each
/// sporadic input at random instants.
fn free_scenario(rng: &mut StdRng, plan: &InputPlan, steps: usize) -> Scenario {
    let mut s = Scenario::new();
    for _ in 0..steps {
        let mut step: BTreeMap<SigName, Value> = BTreeMap::new();
        for r in &plan.roots {
            step.insert(r.clone(), Value::Int(rng.gen_range(-4..5)));
        }
        for f in &plan.flags {
            step.insert(f.clone(), Value::Bool(rng.gen_bool(0.5)));
        }
        for sp in &plan.sporadics {
            if rng.gen_bool(0.6) {
                step.insert(sp.clone(), Value::Int(rng.gen_range(-4..5)));
            }
        }
        s.push_step(step);
    }
    s
}

// ---------------------------------------------------------------------------
// pipeline shape: a channel chain desynchronization can cut
// ---------------------------------------------------------------------------

/// Expressions for a pipeline stage: a "cone" over the stage's single
/// source signal, so every value is a flow function of the source's flow
/// and desynchronization preserves it (Theorems 1–2).
struct Cone {
    vars: Vec<SigName>,
}

fn gen_cone_int(rng: &mut StdRng, cone: &Cone, depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| Expr::var(pick(rng, &cone.vars).clone());
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..7) {
        0 | 1 => leaf(rng),
        2 => {
            let l = gen_cone_int(rng, cone, depth - 1);
            let r = gen_cone_int(rng, cone, depth - 1);
            let op = if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub };
            l.binop(op, r)
        }
        3 => gen_cone_int(rng, cone, depth - 1).binop(
            if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub },
            Expr::int(small_int(rng)),
        ),
        // growth stays bounded: multiplication only by a small constant
        4 => gen_cone_int(rng, cone, depth - 1).binop(Binop::Mul, Expr::int(rng.gen_range(-2..3))),
        5 => gen_cone_int(rng, cone, depth - 1).pre(Value::Int(small_int(rng))),
        _ => {
            let body = gen_cone_int(rng, cone, depth - 1);
            let cond =
                gen_cone_int(rng, cone, depth - 1).binop(cmp_op(rng), Expr::int(small_int(rng)));
            let fallback = gen_cone_int(rng, cone, depth - 1);
            body.when(cond).default(fallback)
        }
    }
}

fn generate_pipeline(rng: &mut StdRng, config: &GenConfig) -> GenCase {
    let nstages = rng.gen_range(2..=config.max_stages.max(2));
    let mut components: Vec<Component> = Vec::new();

    for j in 0..nstages {
        let source =
            if j == 0 { SigName::from("a0") } else { SigName::from(format!("s{}", j - 1)) };
        let out = SigName::from(format!("s{j}"));
        let mut b = ComponentBuilder::new(format!("P{j}"));
        b = b.input(source.clone(), ValueType::Int);
        let mut cone = Cone { vars: vec![source] };

        // a few locals deepen the cone (each may feed later expressions)
        let nlocal = rng.gen_range(0..=config.max_signals.min(2));
        for l in 0..nlocal {
            let name = SigName::from(format!("p{j}_l{l}"));
            let mut rhs = gen_cone_int(rng, &cone, config.max_expr_depth.min(2));
            if rng.gen_bool(0.4) {
                rhs =
                    rhs.binop(Binop::Add, Expr::var(name.clone()).pre(Value::Int(small_int(rng))));
            }
            b = b.local(name.clone(), ValueType::Int).equation(name.clone(), rhs);
            cone.vars.push(name);
        }

        let mut rhs = gen_cone_int(rng, &cone, config.max_expr_depth.min(2));
        if rng.gen_bool(0.3) {
            rhs = rhs.binop(Binop::Add, Expr::var(out.clone()).pre(Value::Int(small_int(rng))));
        }
        b = b.output(out.clone(), ValueType::Int).equation(out.clone(), rhs);
        components.push(b.build());
    }

    let name = if components.len() == 1 { components[0].name.clone() } else { "main".to_string() };
    let program = Program { name, components };

    // writer scenario: `a0` on a periodic pattern with random values
    let steps = config.scenario_steps;
    let write_period = rng.gen_range(1..=2usize);
    let mut writer = Scenario::new();
    let mut writer_long = Scenario::new();
    let est_steps = steps * 4;
    for i in 0..est_steps {
        let mut step: BTreeMap<SigName, Value> = BTreeMap::new();
        if i < steps && i % write_period == 0 {
            step.insert(SigName::from("a0"), Value::Int(rng.gen_range(-3..4)));
        }
        if i < steps {
            writer.push_step(step.clone());
        }
        writer_long.push_step(step);
    }

    // desynchronized-side environment: writer pattern ∪ master tick ∪ one
    // read-request pattern per channel (consumed cross-component signals)
    let mut est = writer_long;
    let mut tick = Scenario::new();
    for _ in 0..est_steps {
        let mut step = BTreeMap::new();
        step.insert(SigName::from("tick"), Value::TRUE);
        tick.push_step(step);
    }
    est = est.zip_union(&tick);
    for j in 0..nstages.saturating_sub(1) {
        let period = rng.gen_range(1..=3usize);
        let phase = rng.gen_range(0..period);
        let mut rd = Scenario::new();
        for i in 0..est_steps {
            let mut step = BTreeMap::new();
            if i % period == phase {
                step.insert(fifo_port(&format!("s{j}"), FifoPort::Rd), Value::TRUE);
            }
            rd.push_step(step);
        }
        est = est.zip_union(&rd);
    }

    GenCase { shape: Shape::Pipeline, program, scenario: writer, est_scenario: Some(est) }
}

// ---------------------------------------------------------------------------
// ring shape: a channel cycle with delayed feedback through `default`
// ---------------------------------------------------------------------------

/// A `when`-free int expression over same-clock variables: presence is a
/// monotone, value-independent function of the operands' presence, which
/// is exactly what the federated deadlock analysis needs to derive send
/// schedules (`crates/analyze/src/federated.rs`), and what keeps every
/// ring stage endochronous.
fn gen_when_free_int(rng: &mut StdRng, vars: &[SigName], depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| Expr::var(pick(rng, vars).clone());
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..6) {
        0 => leaf(rng),
        1 => {
            let l = gen_when_free_int(rng, vars, depth - 1);
            let r = gen_when_free_int(rng, vars, depth - 1);
            let op = if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub };
            l.binop(op, r)
        }
        2 => gen_when_free_int(rng, vars, depth - 1).binop(
            if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub },
            Expr::int(small_int(rng)),
        ),
        3 => gen_when_free_int(rng, vars, depth - 1)
            .binop(Binop::Mul, Expr::int(rng.gen_range(-2..3))),
        4 => gen_when_free_int(rng, vars, depth - 1).pre(Value::Int(small_int(rng))),
        _ => {
            let l = gen_when_free_int(rng, vars, depth - 1);
            let r = gen_when_free_int(rng, vars, depth - 1);
            l.default(r)
        }
    }
}

/// A ring of `n` stages closed over a feedback channel: the head `R0`
/// merges fresh external input `a0` with the delayed feedback `f` through
/// `default`, interior stages transform their single channel input, and
/// the last stage sends `f := pre … (…)` back to the head — the `pre`
/// breaks instantaneous causality (`PA003`), the `default` keeps the head
/// alive when feedback lags. Every stage is `when`-free and dead-code
/// free, so the corpus lints clean apart from the head's deliberate
/// exochrony (`a0` and `f` tick independently), which carries a documented
/// waiver. Under the canonical deployment the head polls (it has an
/// external input) and every interior stage is a single-input data-driven
/// federate: the Kahn sufficiency condition applies, and the deployment is
/// provably deadlock-free — while the all-data-driven variant of the same
/// program deadlocks, which is the [`crate::oracle::OracleKind::FederatedSafety`]
/// oracle's negative half.
fn generate_ring(rng: &mut StdRng, config: &GenConfig) -> GenCase {
    let nstages = rng.gen_range(2..=config.max_stages.max(2));
    let mut components: Vec<Component> = Vec::new();

    // head: fresh input merged with the delayed feedback
    {
        let mut b = ComponentBuilder::new("R0");
        b = b.input(SigName::from("a0"), ValueType::Int);
        b = b.input(SigName::from("f"), ValueType::Int);
        let mut rhs = Expr::var(SigName::from("f")).default(Expr::var(SigName::from("a0")));
        if rng.gen_bool(0.5) {
            rhs = rhs.binop(
                if rng.gen_bool(0.5) { Binop::Add } else { Binop::Sub },
                Expr::int(small_int(rng)),
            );
        }
        b = b.output(SigName::from("s0"), ValueType::Int).equation(SigName::from("s0"), rhs);
        components.push(b.build());
    }

    // interior stages, the last one closing the cycle through `pre`
    for j in 1..nstages {
        let source = SigName::from(format!("s{}", j - 1));
        let last = j == nstages - 1;
        let out = if last { SigName::from("f") } else { SigName::from(format!("s{j}")) };
        let mut b = ComponentBuilder::new(format!("R{j}"));
        b = b.input(source.clone(), ValueType::Int);
        let mut vars = vec![source];
        if rng.gen_bool(0.5) {
            let local = SigName::from(format!("r{j}_l"));
            let lrhs = gen_when_free_int(rng, &vars, 2);
            b = b.local(local.clone(), ValueType::Int).equation(local.clone(), lrhs);
            vars.push(local);
        }
        let mut rhs = gen_when_free_int(rng, &vars, config.max_expr_depth.min(2));
        if vars.len() > 1 {
            // anchor the local in the output so it is never dead (PA010)
            rhs = Expr::var(vars[1].clone()).binop(Binop::Add, rhs);
        }
        if last {
            rhs = rhs.pre(Value::Int(small_int(rng)));
        }
        b = b.output(out.clone(), ValueType::Int).equation(out, rhs);
        components.push(b.build());
    }

    let program = Program { name: "main".to_string(), components };

    // `a0` at every instant: the head's send schedule never depends on how
    // feedback arrivals interleave
    let mut scenario = Scenario::new();
    for _ in 0..config.scenario_steps {
        let mut step: BTreeMap<SigName, Value> = BTreeMap::new();
        step.insert(SigName::from("a0"), Value::Int(rng.gen_range(-4..5)));
        scenario.push_step(step);
    }

    GenCase { shape: Shape::Ring, program, scenario, est_scenario: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::resolve::resolve_program;
    use polysig_lang::types::check_program;
    use rand::SeedableRng;

    #[test]
    fn free_cases_resolve_and_typecheck() {
        let config = GenConfig::default();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = generate_case(&mut rng, &config, Shape::Free);
            resolve_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: resolve failed: {e}"));
            check_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: typecheck failed: {e}"));
            assert_eq!(case.scenario.len(), config.scenario_steps);
        }
    }

    #[test]
    fn pipeline_cases_resolve_and_typecheck() {
        let config = GenConfig::default();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = generate_case(&mut rng, &config, Shape::Pipeline);
            resolve_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: resolve failed: {e}"));
            check_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: typecheck failed: {e}"));
            let est = case.est_scenario.expect("pipeline cases carry an estimation scenario");
            assert_eq!(est.len(), config.scenario_steps * 4);
        }
    }

    #[test]
    fn ring_cases_resolve_typecheck_and_close_a_cycle() {
        let config = GenConfig::default();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = generate_case(&mut rng, &config, Shape::Ring);
            resolve_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: resolve failed: {e}"));
            check_program(&case.program)
                .unwrap_or_else(|e| panic!("seed {seed}: typecheck failed: {e}"));
            assert_eq!(case.scenario.len(), config.scenario_steps);
            assert!(case.est_scenario.is_none());
            // the head consumes the feedback the last stage produces
            let head = &case.program.components[0];
            assert!(head.decl(&SigName::from("f")).is_some(), "seed {seed}: no feedback input");
            let last = case.program.components.last().unwrap();
            assert!(
                last.defining_equation(&SigName::from("f")).is_some(),
                "seed {seed}: no feedback producer"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GenConfig::default();
        for shape in [Shape::Free, Shape::Pipeline, Shape::Ring] {
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            let ca = generate_case(&mut a, &config, shape);
            let cb = generate_case(&mut b, &config, shape);
            assert_eq!(ca.program, cb.program);
            assert_eq!(
                ca.scenario.iter().collect::<Vec<_>>(),
                cb.scenario.iter().collect::<Vec<_>>()
            );
        }
    }
}
