//! Section 5.1: the `n`-place FIFO as a chain of one-place stages.
//!
//! The paper composes `n` copies of the Example-1 buffer and wires the
//! `in_i`/`out_i` control signals so that items ripple forward; an `alarm`
//! is raised for every unsuccessful write attempt and `ok` for every
//! successful one. We generate the chain as a single component with indexed
//! stage signals (`<name>_d1 … <name>_dn`, `<name>_f1 … <name>_fn`):
//!
//! * an item written into stage 1 ripples one stage per tick toward stage
//!   `n` (bubble-collapsing: a stage may shift forward in the same tick its
//!   successor shifts out);
//! * a read (`<name>_rd`) succeeds when stage `n` holds an item, delivering
//!   it on `<name>_out`;
//! * a write (`<name>_in`) succeeds when stage 1 is free or frees up this
//!   very tick; otherwise `<name>_alarm` fires (value `true`).
//!
//! The component also exposes `<name>_count`, the number of occupied stages
//! at the previous tick — the occupancy series used by the estimation
//! experiments.

use polysig_lang::{Binop, Component, ComponentBuilder, Expr};
use polysig_tagged::{SigName, Value, ValueType};

/// The component name [`nfifo_component`] generates for channel `name`.
pub fn fifo_component_name(name: &str) -> String {
    format!("Fifo_{name}")
}

/// A port of a channel's FIFO or, for [`FifoPort::MaxMiss`], of its
/// Figure-4 monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoPort {
    /// `<x>_in`: write attempts (the producer's renamed output).
    In,
    /// `<x>_rd`: read requests, which the environment drives.
    Rd,
    /// `<x>_out`: successful reads (the consumer's renamed input).
    Out,
    /// `<x>_alarm`: true on a rejected write.
    Alarm,
    /// `<x>_ok`: true on an accepted write.
    Ok,
    /// `<x>_count`: occupied stages as of the previous tick.
    Count,
    /// `<x>_full`: stage 1 occupied at the end of the tick.
    Full,
    /// `<x>_maxmiss`: the monitor's max-consecutive-miss register.
    MaxMiss,
}

/// The one place a channel's port names are spelled: the signal
/// [`nfifo_component`] or [`crate::instrument::monitor_component`]
/// declares as `port` of channel `name`.
pub fn fifo_port(name: &str, port: FifoPort) -> SigName {
    let suffix = match port {
        FifoPort::In => "in",
        FifoPort::Rd => "rd",
        FifoPort::Out => "out",
        FifoPort::Alarm => "alarm",
        FifoPort::Ok => "ok",
        FifoPort::Count => "count",
        FifoPort::Full => "full",
        FifoPort::MaxMiss => "maxmiss",
    };
    SigName::from(format!("{name}_{suffix}"))
}

/// Builds the `n`-place FIFO component for channel `name`.
///
/// Interface (all clocked by the master input `tick`):
///
/// * `"<name>_in": int` — write attempts (input);
/// * `"<name>_rd": bool` — read requests (input);
/// * `"<name>_out": int` — successful reads (output);
/// * `"<name>_alarm" / "<name>_ok": bool` — present at write attempts
///   (output), true on rejection / acceptance respectively;
/// * `"<name>_count": int` — occupied stages as of the previous tick
///   (output, present at every tick);
/// * `"<name>_full": bool` — stage 1 occupied at the *end* of the tick
///   (output, present at every tick): if true, a write in the next tick
///   will be rejected unless stage 1 frees up in that same tick — the
///   conservative indicator for Section 5.2's producer clock masking.
///
/// # Panics
///
/// Panics if `n == 0` (a zero-place buffer is the synchronous wire the
/// transformation starts from).
pub fn nfifo_component(name: &str, n: usize) -> Component {
    assert!(n > 0, "an n-place FIFO needs n >= 1");
    // every name is made once; each use shares its string
    let port = |p: FifoPort| fifo_port(name, p);
    let (input, rd, out) = (port(FifoPort::In), port(FifoPort::Rd), port(FifoPort::Out));
    let (alarm, ok) = (port(FifoPort::Alarm), port(FifoPort::Ok));
    let (count, full) = (port(FifoPort::Count), port(FifoPort::Full));
    let local = |suffix: &str| SigName::from(format!("{name}_{suffix}"));
    let stages = |kind: &str| -> Vec<SigName> {
        (1..=n).map(|i| SigName::from(format!("{name}_{kind}{i}"))).collect()
    };
    let (inw, rdw_flag) = (local("inw"), local("rdw"));
    let tick = SigName::from("tick");
    let (ds, fs, fps, mvs) = (stages("d"), stages("f"), stages("fp"), stages("mv"));
    let d = |i: usize| &ds[i - 1];
    let f = |i: usize| &fs[i - 1];
    let fp = |i: usize| &fps[i - 1];
    let mv = |i: usize| &mvs[i - 1];

    let mut b = ComponentBuilder::new(fifo_component_name(name))
        .input(&input, ValueType::Int)
        .input(&rd, ValueType::Bool)
        .input(&tick, ValueType::Bool)
        .output(&out, ValueType::Int)
        .output(&alarm, ValueType::Bool)
        .output(&ok, ValueType::Bool)
        .output(&count, ValueType::Int)
        .output(&full, ValueType::Bool)
        .local(&inw, ValueType::Bool)
        .local(&rdw_flag, ValueType::Bool);
    for i in 1..=n {
        b = b
            .local(d(i), ValueType::Int)
            .local(f(i), ValueType::Bool)
            .local(fp(i), ValueType::Bool)
            .local(mv(i), ValueType::Bool);
    }
    // the stage registers and the count live on the master clock
    let mut sync_names = vec![&tick, &count];
    for i in 1..=n {
        sync_names.push(d(i));
        sync_names.push(f(i));
    }
    b = b.sync(sync_names);

    // write / read attempts as booleans at the master clock
    b = b.equation(
        &inw,
        Expr::var(&input).clock().default(Expr::bool(false).when(Expr::var(&tick))),
    );
    b = b.equation(&rdw_flag, Expr::var(&rd).default(Expr::bool(false).when(Expr::var(&tick))));

    // previous occupancy per stage
    for i in 1..=n {
        b = b.equation(fp(i), Expr::var(f(i)).pre(Value::FALSE).when(Expr::var(&tick)));
    }

    // movement chain, back to front:
    //   mv_n = take = rdw ∧ fp_n
    //   mv_i = fp_i ∧ (¬fp_{i+1} ∨ mv_{i+1})        (i < n)
    b = b.equation(mv(n), Expr::var(&rdw_flag).binop(Binop::And, Expr::var(fp(n))));
    for i in (1..n).rev() {
        b = b.equation(
            mv(i),
            Expr::var(fp(i)).binop(
                Binop::And,
                Expr::var(fp(i + 1)).not().binop(Binop::Or, Expr::var(mv(i + 1))),
            ),
        );
    }

    // put = inw ∧ (¬fp_1 ∨ mv_1)
    let put = Expr::var(&inw)
        .binop(Binop::And, Expr::var(fp(1)).not().binop(Binop::Or, Expr::var(mv(1))));

    // occupancy updates: f_i' = (fp_i ∧ ¬mv_i) ∨ incoming_i
    for i in 1..=n {
        let incoming = if i == 1 { put.clone() } else { Expr::var(mv(i - 1)) };
        b = b.equation(
            f(i),
            Expr::var(fp(i)).binop(Binop::And, Expr::var(mv(i)).not()).binop(Binop::Or, incoming),
        );
    }

    // data movement: stage 1 takes the fresh write, stage i > 1 takes the
    // predecessor's previous value when it shifts
    b = b.equation(
        d(1),
        Expr::var(&input)
            .when(put.clone())
            .default(Expr::var(d(1)).pre(Value::Int(0)).when(Expr::var(&tick))),
    );
    for i in 2..=n {
        b = b.equation(
            d(i),
            Expr::var(d(i - 1))
                .pre(Value::Int(0))
                .when(Expr::var(mv(i - 1)))
                .default(Expr::var(d(i)).pre(Value::Int(0)).when(Expr::var(&tick))),
        );
    }

    // output: stage n's stored value on a successful read
    b = b.equation(&out, Expr::var(d(n)).pre(Value::Int(0)).when(Expr::var(mv(n))));

    // Section 5.1 instrumentation hooks: alarm/ok at write attempts
    let rejected = Expr::var(fp(1)).binop(Binop::And, Expr::var(mv(1)).not());
    b = b.equation(&alarm, rejected.clone().when(Expr::var(&inw)));
    b = b.equation(&ok, rejected.not().when(Expr::var(&inw)));

    // masking indicator: stage 1 occupied at the end of this tick
    b = b.equation(&full, Expr::var(f(1)));

    // occupancy count (previous tick)
    let mut sum = Expr::var(fp(1)).if_int();
    for i in 2..=n {
        sum = sum.binop(Binop::Add, Expr::var(fp(i)).if_int());
    }
    b = b.equation(&count, sum);

    b.build()
}

/// Helper: encode a boolean expression as `1`/`0` at the same clock.
trait IfInt {
    fn if_int(self) -> Expr;
}

impl IfInt for Expr {
    fn if_int(self) -> Expr {
        Expr::int(1).when(self.clone()).default(Expr::int(0).when(self.not()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_sim::{Scenario, Simulator};
    use polysig_tagged::{is_afifo_behavior, is_nfifo_behavior, Behavior, SigName, Value};

    fn sim(n: usize) -> Simulator {
        Simulator::for_component(&nfifo_component("ch", n)).unwrap()
    }

    fn step(s: Scenario, write: Option<i64>, read: bool) -> Scenario {
        let mut s = s.on("tick", Value::TRUE);
        if let Some(v) = write {
            s = s.on("ch_in", Value::Int(v));
        }
        if read {
            s = s.on("ch_rd", Value::TRUE);
        }
        s.tick()
    }

    /// Drives the FIFO with (write?, read?) commands and returns the run.
    fn drive(n: usize, cmds: &[(Option<i64>, bool)]) -> polysig_sim::Run {
        let mut scenario = Scenario::new();
        for &(w, r) in cmds {
            scenario = step(scenario, w, r);
        }
        sim(n).run(&scenario).unwrap()
    }

    #[test]
    fn single_item_ripples_to_the_output() {
        // depth 3: written item needs 3 ticks to become readable
        let run = drive(
            3,
            &[
                (Some(7), false),
                (None, true), // too early: still rippling
                (None, true), // too early
                (None, true), // now at stage 3
            ],
        );
        assert_eq!(run.flow(&"ch_out".into()), vec![Value::Int(7)]);
        assert_eq!(run.presence(&"ch_out".into()), vec![3]);
    }

    #[test]
    fn preserves_fifo_order() {
        let run = drive(
            2,
            &[(Some(1), false), (Some(2), false), (None, true), (None, true), (None, true)],
        );
        assert_eq!(run.flow(&"ch_out".into()), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn overflowing_writes_raise_alarm_and_are_dropped() {
        // depth 1: second immediate write is rejected
        let run = drive(1, &[(Some(1), false), (Some(2), false), (None, true)]);
        assert_eq!(run.flow(&"ch_alarm".into()), vec![Value::FALSE, Value::TRUE]);
        assert_eq!(run.flow(&"ch_ok".into()), vec![Value::TRUE, Value::FALSE]);
        assert_eq!(run.flow(&"ch_out".into()), vec![Value::Int(1)]);
    }

    #[test]
    fn capacity_matches_depth() {
        // depth 3 absorbs a 3-burst without alarms; the 4th write trips
        let run =
            drive(3, &[(Some(1), false), (Some(2), false), (Some(3), false), (Some(4), false)]);
        let alarms = run.flow(&"ch_alarm".into());
        assert_eq!(alarms, vec![Value::FALSE, Value::FALSE, Value::FALSE, Value::TRUE]);
    }

    #[test]
    fn full_throughput_after_pipeline_fill() {
        // depth 2, alternating write+read once primed: one item per tick
        let run = drive(
            2,
            &[
                (Some(1), false),
                (Some(2), false),
                (Some(3), true),
                (Some(4), true),
                (None, true),
                (None, true),
                (None, true),
            ],
        );
        assert_eq!(run.flow(&"ch_out".into()), (1..=4).map(Value::Int).collect::<Vec<_>>());
        assert!(run.flow(&"ch_alarm".into()).iter().all(|v| *v == Value::FALSE));
    }

    #[test]
    fn count_reports_previous_occupancy() {
        let run = drive(2, &[(Some(1), false), (Some(2), false), (None, false)]);
        assert_eq!(run.flow(&"ch_count".into()), vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn chain_satisfies_nfifo_spec() {
        for n in 1..=4 {
            let cmds: Vec<(Option<i64>, bool)> = (0..20)
                .map(|i| {
                    let w = if i % 2 == 0 { Some(i as i64) } else { None };
                    let r = i % 3 == 0;
                    (w, r)
                })
                .collect();
            let run = drive(n, &cmds);
            // accepted writes vs delivered reads must satisfy Definition 9
            // with bound n (occupancy counted between accept and deliver)
            let mut b = Behavior::new();
            b.declare("w");
            b.declare("r");
            let ok = run.behavior.trace(&SigName::from("ch_ok")).unwrap().clone();
            for e in run.behavior.trace(&SigName::from("ch_in")).unwrap().iter() {
                if ok.value_at(e.tag()) == Some(Value::TRUE) {
                    b.push_event("w", e.tag(), e.value());
                }
            }
            for e in run.behavior.trace(&SigName::from("ch_out")).unwrap().iter() {
                b.push_event("r", e.tag(), e.value());
            }
            assert!(
                is_afifo_behavior(&b, &"w".into(), &"r".into()),
                "depth {n}: AFifo spec violated:\n{b}"
            );
            assert!(
                is_nfifo_behavior(&b, &"w".into(), &"r".into(), n),
                "depth {n}: nFifo bound violated:\n{b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn zero_depth_rejected() {
        let _ = nfifo_component("ch", 0);
    }

    #[test]
    fn reads_on_empty_are_silent_forever() {
        let run = drive(2, &[(None, true), (None, true), (None, true)]);
        assert!(run.flow(&"ch_out".into()).is_empty());
        assert!(run.flow(&"ch_alarm".into()).is_empty()); // no write attempts
    }
}
