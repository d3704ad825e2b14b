//! Identifying the explicit data dependencies of a program (Definition 7).
//!
//! A program's components are wired by shared names: a signal that is an
//! output of one component and an input of another is an explicit data
//! dependency `P →x Q` with `P` its single producer (the single-writer rule
//! is enforced by `polysig_lang::resolve`). [`channels_of_program`] lists
//! them, ready to be cut by the desynchronization transformation;
//! [`channel_edges`] is the same walk for a program that may break the
//! single-consumer rule, which the static analyzer reports rather than
//! refuses.

use polysig_lang::{Program, Role};
use polysig_tagged::{SigName, ValueType};

use crate::error::GalsError;

/// One explicit data dependency: producer component, consumer components,
/// the shared signal and its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The shared signal (the `x` of `P →x Q`).
    pub signal: SigName,
    /// Name of the producing component.
    pub producer: String,
    /// Name of the consuming component (the paper assumes a single
    /// consumer per channel; multi-consumer signals must go through explicit
    /// fork components, are rejected by [`channels_of_program`], and get one
    /// spec per consumer from [`channel_edges`]).
    pub consumer: String,
    /// The value type carried.
    pub ty: ValueType,
}

/// Lists every cross-component data dependency of the program.
///
/// # Errors
///
/// * [`GalsError::MultiConsumer`] for the first shared signal read by more
///   than one component (the paper's single-producer/single-consumer
///   restriction; use explicit copy/fork components for fan-out);
/// * [`GalsError::Lang`] if the program does not resolve.
pub fn channels_of_program(p: &Program) -> Result<Vec<ChannelSpec>, GalsError> {
    polysig_lang::resolve::resolve_program(p)?;
    let (channels, fanout) = channel_edges(p);
    match fanout.into_iter().next() {
        Some((signal, consumers)) => Err(GalsError::MultiConsumer { signal, consumers }),
        None => Ok(channels),
    }
}

/// The tolerant walk behind [`channels_of_program`]: every
/// producer→consumer edge (a fanned-out signal yields one edge per
/// consumer), in producer, output-declaration, then consumer order, plus
/// each signal read by more than one component, listed with its
/// consumers. It neither resolves the program nor rejects fan-out, so a
/// static analysis can report a violation and keep going.
pub fn channel_edges(p: &Program) -> (Vec<ChannelSpec>, Vec<(SigName, Vec<String>)>) {
    let mut channels = Vec::new();
    let mut fanout = Vec::new();
    for producer in &p.components {
        for decl in producer.signals_with_role(Role::Output) {
            let consumers: Vec<&str> = p
                .components
                .iter()
                .filter(|c| {
                    c.name != producer.name
                        && c.decl(&decl.name).is_some_and(|d| d.role == Role::Input)
                })
                .map(|c| c.name.as_str())
                .collect();
            if consumers.len() > 1 {
                fanout.push((decl.name.clone(), consumers.iter().map(|c| c.to_string()).collect()));
            }
            channels.extend(consumers.into_iter().map(|consumer| ChannelSpec {
                signal: decl.name.clone(),
                producer: producer.name.clone(),
                consumer: consumer.to_string(),
                ty: decl.ty,
            }));
        }
    }
    (channels, fanout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;

    #[test]
    fn finds_directed_channels() {
        let p = parse_program(
            "process A { input a: int; output x: int; x := a + 1; } \
             process B { input x: int; output y: int; y := x * 2; } \
             process C { input y: int; output z: bool; z := y > 0; }",
        )
        .unwrap();
        let chans = channels_of_program(&p).unwrap();
        assert_eq!(chans.len(), 2);
        assert_eq!(chans[0].signal.as_str(), "x");
        assert_eq!(chans[0].producer, "A");
        assert_eq!(chans[0].consumer, "B");
        assert_eq!(chans[1].signal.as_str(), "y");
        assert_eq!(chans[1].ty, ValueType::Int);
    }

    #[test]
    fn bidirectional_links_are_two_channels() {
        // x flows A→B, k flows B→A (no instantaneous cycle: k goes through pre)
        let p = parse_program(
            "process A { input a: int, k: int; output x: int; x := a + (pre 0 k); } \
             process B { input x: int; output k: int; k := x * 2; }",
        )
        .unwrap();
        let chans = channels_of_program(&p).unwrap();
        assert_eq!(chans.len(), 2);
        let dirs: Vec<(&str, &str)> =
            chans.iter().map(|c| (c.producer.as_str(), c.consumer.as_str())).collect();
        assert!(dirs.contains(&("A", "B")));
        assert!(dirs.contains(&("B", "A")));
    }

    #[test]
    fn rejects_multi_consumer_channels() {
        let p = parse_program(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: int; output y: int; y := x; } \
             process C { input x: int; output z: int; z := x; }",
        )
        .unwrap();
        let err = channels_of_program(&p).unwrap_err();
        assert!(matches!(err, GalsError::MultiConsumer { .. }));
        // the tolerant walk reports the fan-out and keeps both edges
        let (chans, fanout) = channel_edges(&p);
        let consumers: Vec<&str> = chans.iter().map(|c| c.consumer.as_str()).collect();
        assert_eq!(consumers, ["B", "C"]);
        assert_eq!(fanout, vec![(SigName::from("x"), vec!["B".to_string(), "C".to_string()])]);
    }

    #[test]
    fn single_component_has_no_channels() {
        let p = parse_program("process A { input a: int; output x: int; x := a; }").unwrap();
        assert!(channels_of_program(&p).unwrap().is_empty());
    }
}
