//! Figure 4: the instrumentation circuitry around a FIFO channel.
//!
//! Every unsuccessful write (`alarm` true) increments a counter; every
//! successful write (`ok` true) resets it; a register keeps the maximum the
//! counter ever reached — "the number of times we consecutively missed a
//! write to the buffer". The estimation loop of Section 5.2 reads this
//! register after a simulation run and grows the buffer by that amount.

use polysig_lang::{Binop, Component, ComponentBuilder, Expr};
use polysig_tagged::{SigName, Value, ValueType};

use crate::nfifo::{fifo_port, FifoPort};

/// The component name [`monitor_component`] generates for channel `name`.
pub fn monitor_component_name(name: &str) -> String {
    format!("Monitor_{name}")
}

/// Builds the monitor component for channel `name`.
///
/// Interface:
///
/// * inputs — `<name>_alarm: bool`, `<name>_ok: bool` (from
///   [`crate::nfifo::nfifo_component`]), `tick: bool`;
/// * outputs — `<name>_misses: int` (current consecutive-miss counter,
///   present at every tick) and `<name>_maxmiss: int` (the max register,
///   present at every tick).
pub fn monitor_component(name: &str) -> Component {
    let port = |p: FifoPort| fifo_port(name, p);
    let (alarm, ok, maxmiss) = (port(FifoPort::Alarm), port(FifoPort::Ok), port(FifoPort::MaxMiss));
    let local = |suffix: &str| SigName::from(format!("{name}_{suffix}"));
    let (misses, mprev, xprev) = (local("misses"), local("mprev"), local("xprev"));
    let tick = SigName::from("tick");

    ComponentBuilder::new(monitor_component_name(name))
        .input(&alarm, ValueType::Bool)
        .input(&ok, ValueType::Bool)
        .input(&tick, ValueType::Bool)
        .output(&misses, ValueType::Int)
        .output(&maxmiss, ValueType::Int)
        .local(&mprev, ValueType::Int)
        .local(&xprev, ValueType::Int)
        .sync([&tick, &misses, &maxmiss])
        .equation(&mprev, Expr::var(&misses).pre(Value::Int(0)).when(Expr::var(&tick)))
        .equation(&xprev, Expr::var(&maxmiss).pre(Value::Int(0)).when(Expr::var(&tick)))
        // counter: +1 on a missed write, reset on a successful write,
        // otherwise hold
        .equation(
            &misses,
            Expr::var(&mprev)
                .binop(Binop::Add, Expr::int(1))
                .when(Expr::var(&alarm))
                .default(Expr::int(0).when(Expr::var(&ok)).default(Expr::var(&mprev))),
        )
        // register: maximum the counter ever reached
        .equation(
            &maxmiss,
            Expr::var(&misses)
                .when(Expr::var(&misses).binop(Binop::Gt, Expr::var(&xprev)))
                .default(Expr::var(&xprev)),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfifo::nfifo_component;
    use polysig_lang::Program;
    use polysig_sim::{Scenario, Simulator};
    use polysig_tagged::Value;

    /// FIFO + monitor wired through the shared alarm/ok signals.
    fn monitored_fifo(n: usize) -> Program {
        let mut p = Program::new("monitored");
        p.components.push(nfifo_component("ch", n));
        p.components.push(monitor_component("ch"));
        p
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

    #[test]
    fn counter_counts_consecutive_misses() {
        let mut sim = Simulator::for_program(&monitored_fifo(1)).unwrap();
        let mut s = Scenario::new();
        // fill, then three rejected writes, then drain and a good write
        s = step(s, Some(1), false);
        s = step(s, Some(2), false);
        s = step(s, Some(3), false);
        s = step(s, Some(4), false);
        s = step(s, None, true);
        s = step(s, Some(5), false);
        let run = sim.run(&s).unwrap();
        assert_eq!(
            run.flow(&"ch_misses".into()),
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(3), // held during the read-only tick
                Value::Int(0), // reset by the successful write
            ]
        );
        assert_eq!(run.flow(&"ch_maxmiss".into()).last(), Some(&Value::Int(3)));
    }

    #[test]
    fn register_keeps_maximum_across_episodes() {
        let mut sim = Simulator::for_program(&monitored_fifo(1)).unwrap();
        let mut s = Scenario::new();
        // episode 1: two misses; drain; episode 2: one miss
        s = step(s, Some(1), false);
        s = step(s, Some(2), false);
        s = step(s, Some(3), false);
        s = step(s, None, true);
        s = step(s, Some(4), false);
        s = step(s, Some(5), false);
        let run = sim.run(&s).unwrap();
        assert_eq!(run.flow(&"ch_maxmiss".into()).last(), Some(&Value::Int(2)));
    }

    #[test]
    fn no_misses_keeps_register_zero() {
        let mut sim = Simulator::for_program(&monitored_fifo(2)).unwrap();
        let mut s = Scenario::new();
        s = step(s, Some(1), false);
        s = step(s, None, false);
        s = step(s, None, true);
        s = step(s, Some(2), true);
        let run = sim.run(&s).unwrap();
        assert!(run.flow(&"ch_maxmiss".into()).iter().all(|v| *v == Value::Int(0)));
    }
}
