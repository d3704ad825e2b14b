//! Dense per-signal flow recording for the federated runtime.
//!
//! Each federate records flows the same way the reactor itself does:
//! values accumulate into [`SigId`]-indexed `Vec` slots during the run —
//! no name-keyed map insert, no name clone, no per-value allocation beyond
//! the `Vec` push — and convert to the name-keyed boundary form exactly
//! once, when the run's report is assembled.
//!
//! [`SigId`]: polysig_tagged::SigId

use std::collections::BTreeMap;

use polysig_sim::DenseEnv;
use polysig_tagged::{SigName, Value};

/// A [`SigId`]-slot flow accumulator for one component's run.
///
/// [`SigId`]: polysig_tagged::SigId
#[derive(Debug, Clone)]
pub struct FlowRecorder {
    /// `flows[id.index()]` = that signal's values in activation order.
    flows: Vec<Vec<Value>>,
    /// The interner's name table, captured once at construction.
    names: Vec<SigName>,
}

impl FlowRecorder {
    /// A recorder for a reactor whose interner maps the given names (in id
    /// order).
    pub fn new(names: Vec<SigName>) -> FlowRecorder {
        FlowRecorder { flows: vec![Vec::new(); names.len()], names }
    }

    /// Appends every present value of one reaction to its signal's slot.
    #[inline]
    pub fn record(&mut self, present: &DenseEnv) {
        for (id, value) in present.iter() {
            self.flows[id.index()].push(value);
        }
    }

    /// The boundary conversion: name-keyed flows, keeping only signals
    /// that ever ticked (matching the historical name-keyed behavior).
    pub fn into_named(self) -> BTreeMap<SigName, Vec<Value>> {
        self.names.into_iter().zip(self.flows).filter(|(_, f)| !f.is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_tagged::SigId;

    #[test]
    fn records_densely_and_converts_once() {
        let mut rec = FlowRecorder::new(vec!["a".into(), "b".into(), "c".into()]);
        let mut env = DenseEnv::new(3);
        env.set(SigId(0), Value::Int(1));
        env.set(SigId(2), Value::Int(2));
        rec.record(&env);
        env.reset(3);
        env.set(SigId(0), Value::Int(3));
        rec.record(&env);
        let named = rec.into_named();
        assert_eq!(named[&SigName::from("a")], vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(named[&SigName::from("c")], vec![Value::Int(2)]);
        // `b` never ticked: absent from the boundary map
        assert!(!named.contains_key(&SigName::from("b")));
    }
}
