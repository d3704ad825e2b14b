//! The bounded model checking driver: lazy unrolling, iterative deepening,
//! lexicographic counterexample minimization and bounded maximization.
//!
//! The transition relation is unrolled one step at a time, and each step's
//! feasibility constraints are asserted as *hard* clauses only once every
//! shorter depth has been queried — so a depth-`j` query is never
//! contaminated by step `j+1`'s constraints (a violating trace may well end
//! in a state with no feasible successor). The violation condition itself is
//! only ever passed as a solve-time *assumption*, never asserted.
//!
//! Because depths are queried in ascending order, the first satisfiable
//! depth is the minimal counterexample length — the same length the
//! explicit breadth-first checker finds. Within that depth the trace is
//! then minimized move by move in ascending letter order under the
//! violation assumption, which reproduces the explicit checker's
//! lexicographically-least counterexample exactly (BFS expands layers in
//! arena order and moves in letter order, so the first violation it reports
//! is the lexicographically-least shortest trace).

use std::collections::BTreeMap;

use minicdcl::Lit;
use polysig_lang::Program;
use polysig_sim::schedule::CompiledComponent;
use polysig_sim::Reactor;
use polysig_tagged::{SigName, Value, ValueType};

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::bound::BoundResult;
use crate::error::VerifyError;
use crate::prop::{DenseCheck, Property};
use crate::reach::{CheckOptions, CheckResult};

use super::cnf::{Bit, Cnf};
use super::decode;
use super::encode::{encode_step, sym_of_value, SymFlow, SymVal};

fn unsupported(reason: impl Into<String>) -> VerifyError {
    VerifyError::BmcUnsupported { reason: reason.into() }
}

fn internal(reason: impl Into<String>) -> VerifyError {
    VerifyError::BmcInternal { reason: reason.into() }
}

/// One permitted environment move at one step of the unrolling.
struct Move {
    /// Source automaton state.
    state: u32,
    /// Letter index into the alphabet.
    letter: u32,
    /// Successor automaton state.
    next: u32,
    /// Selection bit: true iff the trace takes this move here.
    bit: Bit,
}

/// The lazily-unrolled transition relation.
struct Unroller {
    cnf: Cnf,
    cc: CompiledComponent,
    /// Per letter, per input (aligned with `cc.input_slots`): the driven
    /// value, `None` when the letter leaves the input absent.
    letters: Vec<Vec<Option<Value>>>,
    /// Environment automaton moves, tabulated per state in letter order.
    moves_of: Vec<Vec<(u32, u32)>>,
    /// Symbolic register file entering the next step.
    regs: Vec<SymVal>,
    /// Concretely-reachable automaton states at the current frontier, with
    /// their one-hot activation bits, in ascending state order.
    cur_states: Vec<(u32, Bit)>,
    /// Per encoded step: its moves, in (state, letter) order.
    step_moves: Vec<Vec<Move>>,
}

impl Unroller {
    fn new(
        program: &Program,
        alphabet: &Alphabet,
        env: Option<&EnvAutomaton>,
    ) -> Result<(Unroller, Reactor), VerifyError> {
        let reactor = Reactor::for_program(program)?;
        let Some(cc) = reactor.compiled_schedule().cloned() else {
            let why = reactor.lower_failure().map(|f| format!(": {f}")).unwrap_or_default();
            return Err(unsupported(format!("program does not lower to a static schedule{why}")));
        };

        // compile every letter onto the schedule's input layout; anything
        // the schedule would reject per-reaction (a driven non-input, an
        // ill-typed value) is rejected for the whole run instead
        let mut letters: Vec<Vec<Option<Value>>> = Vec::with_capacity(alphabet.len());
        for letter in alphabet.letters() {
            let mut row: Vec<Option<Value>> = vec![None; cc.input_slots.len()];
            for (name, v) in letter {
                let Some(id) = reactor.sig_id(name) else {
                    return Err(polysig_sim::SimError::NotAnInput { name: name.clone() }.into());
                };
                let Some(k) = cc.input_slots.iter().position(|&slot| slot as usize == id.index())
                else {
                    return Err(unsupported(format!("letter drives non-input signal `{name}`")));
                };
                if v.ty() != cc.input_types[k] {
                    return Err(unsupported(format!("letter value for `{name}` is ill-typed")));
                }
                row[k] = Some(*v);
            }
            letters.push(row);
        }

        let free_env;
        let env = match env {
            Some(e) => e,
            None => {
                free_env = EnvAutomaton::free(alphabet);
                &free_env
            }
        };
        let moves_of: Vec<Vec<(u32, u32)>> = (0..env.state_count())
            .map(|s| env.moves(s).map(|(li, to)| (li as u32, to as u32)).collect())
            .collect();

        let cnf = Cnf::new();
        let regs: Vec<SymVal> =
            reactor.registers().iter().map(|v| sym_of_value(&cnf, *v)).collect();
        let un = Unroller {
            cnf,
            cc,
            letters,
            moves_of,
            regs,
            cur_states: vec![(0, Bit::Const(true))],
            step_moves: Vec::new(),
        };
        Ok((un, reactor))
    }

    /// Encodes one more step of the transition relation, returning the
    /// step's decided signal flows. All feasibility constraints are hard;
    /// nothing here mentions the property.
    fn push_step(&mut self) -> Result<Vec<SymFlow>, VerifyError> {
        // the step's environment moves, from concretely-reachable states.
        // The live states are one-hot and a move is available only from a
        // live state, so a state's only move fires exactly when the state
        // is live: it takes the state's own bit. Under a deterministic
        // automaton every bit is then a constant and the whole unrolling
        // folds while encoding; only a choice gets fresh literals.
        let mut moves: Vec<Move> = Vec::new();
        for &(s, sbit) in &self.cur_states {
            let out = &self.moves_of[s as usize];
            for &(li, next) in out {
                let bit = if out.len() == 1 {
                    sbit
                } else {
                    let lit = self.cnf.fresh_lit();
                    // a move is only available when its source state is live
                    self.cnf.assert_clause(&[Bit::Lit(!lit), sbit]);
                    Bit::Lit(lit)
                };
                moves.push(Move { state: s, letter: li, next, bit });
            }
        }
        let move_bits: Vec<Bit> = moves.iter().map(|m| m.bit).collect();
        self.cnf.exactly_one(&move_bits);

        // successor automaton states: one-hot by construction (exactly one
        // move fires and each move has one target)
        let mut incoming: BTreeMap<u32, Vec<Bit>> = BTreeMap::new();
        for m in &moves {
            incoming.entry(m.next).or_default().push(m.bit);
        }
        self.cur_states = incoming
            .into_iter()
            .map(|(s, bits)| {
                let b = self.cnf.or_many(&bits);
                (s, b)
            })
            .collect();

        // the step's inputs, as multiplexers over the selected move
        let mut inputs: Vec<(Bit, SymVal)> = Vec::with_capacity(self.cc.input_slots.len());
        for k in 0..self.cc.input_slots.len() {
            let driving: Vec<(&Move, Value)> = moves
                .iter()
                .filter_map(|m| self.letters[m.letter as usize][k].map(|v| (m, v)))
                .collect();
            let pres_bits: Vec<Bit> = driving.iter().map(|(m, _)| m.bit).collect();
            let pres = self.cnf.or_many(&pres_bits);
            let val = match self.cc.input_types[k] {
                ValueType::Bool => {
                    let on: Vec<Bit> =
                        driving.iter().filter(|(_, v)| v.is_true()).map(|(m, _)| m.bit).collect();
                    SymVal::B(self.cnf.or_many(&on))
                }
                ValueType::Int => {
                    let mut word = Vec::with_capacity(super::cnf::W);
                    for j in 0..super::cnf::W {
                        let on: Vec<Bit> = driving
                            .iter()
                            .filter(|(_, v)| matches!(v, Value::Int(i) if (*i >> j) & 1 == 1))
                            .map(|(m, _)| m.bit)
                            .collect();
                        word.push(self.cnf.or_many(&on));
                    }
                    SymVal::I(word)
                }
            };
            inputs.push((pres, val));
        }

        let io = encode_step(&mut self.cnf, &self.cc, &self.regs, &inputs).map_err(unsupported)?;
        self.regs = io.regs_out;
        self.step_moves.push(moves);
        Ok(io.outputs)
    }

    /// After a SAT answer at the deepest encoded step, fixes the trace one
    /// move at a time in ascending letter order under the violation
    /// assumption, tracking the automaton state concretely. Returns the
    /// letter index sequence — the lexicographically-least shortest
    /// violating trace.
    fn lex_minimize(&mut self, viol: Lit) -> Result<Vec<usize>, VerifyError> {
        let mut fixed: Vec<Lit> = Vec::new();
        let mut seq: Vec<usize> = Vec::new();
        let mut state = 0u32;
        for t in 0..self.step_moves.len() {
            let mut chosen: Option<(u32, u32)> = None;
            for m in self.step_moves[t].iter().filter(|m| m.state == state) {
                let lit = self.cnf.lit(m.bit);
                let mut assumptions = fixed.clone();
                assumptions.push(lit);
                assumptions.push(viol);
                if self.cnf.solver.solve_assuming(&assumptions) {
                    chosen = Some((m.letter, m.next));
                    fixed.push(lit);
                    break;
                }
            }
            let Some((letter, next)) = chosen else {
                return Err(internal(format!(
                    "no feasible move at step {t} while minimizing a satisfiable trace"
                )));
            };
            seq.push(letter as usize);
            state = next;
        }
        Ok(seq)
    }
}

/// The violation bit of one step's outputs: true iff this reaction breaks
/// the property. Every signal slot is decided, so the bit is exact; a
/// property over an undeclared signal is never violated.
fn violation_bit(cnf: &mut Cnf, outputs: &[SymFlow], check: DenseCheck<'_>) -> Bit {
    let Some(id) = check.id else { return Bit::Const(false) };
    match (check.property, &outputs[id.index()]) {
        (Property::NeverTrue(_), SymFlow::Dyn { pres, val: Some(SymVal::B(b)), .. }) => {
            cnf.and(*pres, *b)
        }
        (Property::NeverPresent(_), SymFlow::Dyn { pres, .. }) => *pres,
        (Property::InRange(_, lo, hi), SymFlow::Dyn { pres, val: Some(SymVal::I(w)), .. }) => {
            let low = cnf.word_const(*lo);
            let high = cnf.word_const(*hi);
            let below = cnf.slt(w, &low);
            let above = cnf.slt(&high, w);
            let out = cnf.or(below, above);
            cnf.and(*pres, out)
        }
        // constant slots never tick, and a slot of the wrong type (or a
        // never-valued one) is never present with `Value::TRUE` or with
        // an out-of-range integer
        _ => Bit::Const(false),
    }
}

/// Bounded check of `property` up to `depth` reactions — the
/// [`crate::bmc::Backend::Bmc`] implementation behind [`crate::check`],
/// which has already refused an empty alphabet.
pub(crate) fn run_check(
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    options: &CheckOptions,
    depth: usize,
) -> Result<CheckResult, VerifyError> {
    let (mut un, mut reactor) = Unroller::new(program, alphabet, options.env.as_ref())?;
    let check = property.bind(&reactor);

    for _ in 0..depth {
        let outputs = un.push_step()?;
        let viol = violation_bit(&mut un.cnf, &outputs, check);
        let vlit = un.cnf.lit(viol);
        if un.cnf.solver.solve_assuming(&[vlit]) {
            let seq = un.lex_minimize(vlit)?;
            reactor.reset();
            let cx = decode::replay(&mut reactor, alphabet, &seq, check)?;
            return Ok(CheckResult {
                holds: false,
                counterexample: Some(cx),
                states_explored: 0,
                transitions: 0,
                pruned: 0,
                depth_bounded: false,
            });
        }
    }
    Ok(CheckResult {
        holds: true,
        counterexample: None,
        states_explored: 0,
        transitions: 0,
        pruned: 0,
        depth_bounded: true,
    })
}

/// Bounded maximization of an integer signal up to `depth` reactions — the
/// [`crate::bmc::Backend::Bmc`] implementation behind
/// [`crate::bound::max_signal_value`], which has already refused an empty
/// alphabet.
pub(crate) fn run_bound(
    program: &Program,
    alphabet: &Alphabet,
    signal: &SigName,
    options: &CheckOptions,
    depth: usize,
) -> Result<BoundResult, VerifyError> {
    let (mut un, reactor) = Unroller::new(program, alphabet, options.env.as_ref())?;
    // an undeclared signal never ticks, exactly like the explicit bound
    let Some(ix) = reactor.sig_id(signal).map(|id| id.index()) else {
        return Ok(BoundResult {
            max: None,
            states_explored: 0,
            transitions: 0,
            depth_bounded: true,
        });
    };
    drop(reactor);

    let mut best: Option<i64> = None;
    for _ in 0..depth {
        let outputs = un.push_step()?;
        let (pres, word) = match &outputs[ix] {
            SymFlow::Dyn { pres, val: Some(SymVal::I(w)), .. } => (*pres, w.clone()),
            // boolean, never-valued or constant slots contribute no value
            _ => continue,
        };
        // threshold maximization: repeatedly demand a strictly larger
        // observation at this step until the solver refutes one
        loop {
            let above = match best {
                None => Bit::Const(true),
                Some(b) => {
                    let bw = un.cnf.word_const(b);
                    un.cnf.slt(&bw, &word)
                }
            };
            let q = un.cnf.and(pres, above);
            let qlit = un.cnf.lit(q);
            if un.cnf.solver.solve_assuming(&[qlit]) {
                best = Some(un.cnf.word_model(&word));
            } else {
                break;
            }
        }
    }
    Ok(BoundResult { max: best, states_explored: 0, transitions: 0, depth_bounded: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Letter;
    use polysig_gals::nfifo::nfifo_component;

    /// A 2-place FIFO, its integer alphabet, and the write, write, read,
    /// read cycle over it.
    fn fifo_cycle() -> (Program, Alphabet, EnvAutomaton) {
        let p = Program::single(nfifo_component("ch", 2));
        let mut alphabet = Alphabet::exhaustive(&p, &[1, 2]).unwrap();
        let letter = |pairs: &[(&str, Value)]| -> Letter {
            pairs.iter().map(|(n, v)| (SigName::from(*n), *v)).collect()
        };
        let write = |v| letter(&[("tick", Value::TRUE), ("ch_in", Value::Int(v))]);
        let read = letter(&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)]);
        let env = EnvAutomaton::cycle(&mut alphabet, &[write(1), write(2), read.clone(), read]);
        (p, alphabet, env)
    }

    #[test]
    fn a_cycle_automaton_unrolls_to_constants() {
        let (p, alphabet, env) = fifo_cycle();
        let (mut un, _) = Unroller::new(&p, &alphabet, Some(&env)).unwrap();
        for _ in 0..9 {
            un.push_step().unwrap();
        }
        // every move is forced, so every bit folds: the pinned `true`
        // literal is the only variable
        assert_eq!(un.cnf.solver.num_vars(), 1);
        assert!(un.step_moves.iter().flatten().all(|m| m.bit == Bit::Const(true)));
    }

    #[test]
    fn a_branching_state_keeps_fresh_literals() {
        let (p, alphabet, mut env) = fifo_cycle();
        // open the first state to every letter: its moves become a choice,
        // and every later state's bit is symbolic
        for li in 0..alphabet.len() {
            if env.moves(0).all(|(l, _)| l != li) {
                env.allow(0, li, 1);
            }
        }
        let (mut un, _) = Unroller::new(&p, &alphabet, Some(&env)).unwrap();
        un.push_step().unwrap();
        assert!(un.step_moves[0].len() > 1);
        assert!(un.step_moves[0].iter().all(|m| matches!(m.bit, Bit::Lit(_))));
        // state 1's only move takes state 1's symbolic bit: no fresh literal
        let (state, sbit) = un.cur_states[0];
        assert_eq!((state, un.cur_states.len()), (1, 1));
        assert!(matches!(sbit, Bit::Lit(_)));
        let vars = un.cnf.solver.num_vars();
        un.push_step().unwrap();
        assert_eq!(un.step_moves[1].len(), 1);
        assert_eq!(un.step_moves[1][0].bit, sbit);
        assert!(vars > 1);
    }
}
