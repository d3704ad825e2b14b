//! Concrete validation of symbolic counterexamples.
//!
//! A SAT model is only trusted after it replays: the decoded letter
//! sequence is run on the [`Reactor`] the unrolling was transcribed from
//! (the same execution path the explicit checker uses), every reaction must
//! succeed, every intermediate
//! reaction must satisfy the property, and the final reaction must violate
//! it. Any disagreement is a [`VerifyError::BmcInternal`] — an unreplayable
//! model means the encoding and the executor diverged, and reporting the
//! trace anyway would be unsound.

use polysig_sim::{DenseEnv, Reactor};

use crate::alphabet::{Alphabet, Letter};
use crate::counterexample::Counterexample;
use crate::error::VerifyError;
use crate::prop::DenseCheck;

fn internal(reason: impl Into<String>) -> VerifyError {
    VerifyError::BmcInternal { reason: reason.into() }
}

/// Replays the letter-index sequence `seq` concretely on `reactor`, which
/// must be in its initial state, against the property `check` bound to that
/// reactor, and returns it as a [`Counterexample`], or a
/// [`VerifyError::BmcInternal`] when the symbolic trace does not reproduce
/// on the reactor.
pub(crate) fn replay(
    reactor: &mut Reactor,
    alphabet: &Alphabet,
    seq: &[usize],
    check: DenseCheck<'_>,
) -> Result<Counterexample, VerifyError> {
    let n = reactor.signal_count();

    let letters: Vec<Letter> = seq.iter().map(|&li| alphabet.letters()[li].clone()).collect();
    for (pos, letter) in letters.iter().enumerate() {
        let mut env = DenseEnv::new(n);
        for (name, v) in letter {
            let id = reactor
                .sig_id(name)
                .ok_or_else(|| internal(format!("trace letter names unknown signal `{name}`")))?;
            env.set(id, *v);
        }
        let reaction = reactor
            .react_dense(&env)
            .map_err(|e| internal(format!("symbolic trace does not replay at step {pos}: {e}")))?;
        let violated = !check.holds_dense(reaction);
        let last = pos + 1 == letters.len();
        if violated != last {
            return Err(internal(format!(
                "symbolic trace {} the property at step {pos}, expected {}",
                if violated { "violates" } else { "satisfies" },
                if last { "a violation" } else { "no violation" },
            )));
        }
    }
    Ok(Counterexample::new(letters))
}
