//! Correctness gates, all outside the timed region.
//!
//! The served prices are certified by the workload harness itself:
//! [`fedfl_workload::replay`] replays a plan's trace through a fresh
//! service and, every `spec.verify_every` steps, checks the served prices
//! against a from-scratch exact solve of its mirrored population —
//! bit-identical under the exact solver, within the fast-path
//! verification tolerance (1e-5 relative) under the fast path. A timed
//! replay of the same commands must then serve the same final prices,
//! bit for bit, as the harness's `price_checksum` says.

use crate::plan::Plan;
use fedfl_service::{Command, Response, ServiceSnapshot};
use fedfl_workload::generator::fnv1a;

/// Replay `plan` through the workload harness with its checkpoints and
/// return the checksum of the prices it served at the end.
///
/// # Errors
///
/// Returns the harness's error: a failed command or a checkpoint whose
/// served prices diverge from the from-scratch solve.
pub fn certified_checksum(plan: &Plan) -> Result<u64, String> {
    let outcome = fedfl_workload::replay(&plan.spec, &plan.trace()).map_err(|e| e.to_string())?;
    let last_step = plan.steps.last().map_or(0, |step| step.step);
    if outcome.verified_steps == 0 && last_step >= plan.spec.verify_every.max(1) {
        return Err("the harness certified no checkpoint".into());
    }
    Ok(outcome.price_checksum)
}

/// FNV-1a over a snapshot's `(id, price, q_eff)` bits, as the harness's
/// `price_checksum`: equal checksums mean bit-identical served
/// equilibria.
#[must_use]
pub fn checksum(snapshot: &ServiceSnapshot) -> u64 {
    let mut bytes = Vec::with_capacity(snapshot.ids.len() * 24);
    for ((id, price), q) in snapshot
        .ids
        .iter()
        .zip(&snapshot.prices)
        .zip(&snapshot.q_eff)
    {
        bytes.extend_from_slice(&id.0.to_le_bytes());
        bytes.extend_from_slice(&price.to_bits().to_le_bytes());
        bytes.extend_from_slice(&q.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Quotes a read must answer with: one per id for `GetPrices`, `None`
/// (a snapshot) otherwise.
#[must_use]
pub fn expected_quotes(command: &Command) -> Option<usize> {
    match command {
        Command::GetPrices(ids) => Some(ids.len()),
        _ => None,
    }
}

/// A read must answer with finite quotes, one per requested id, or with
/// a snapshot when `expected` is `None`.
///
/// # Errors
///
/// Returns what is wrong with the reply.
pub fn check_read(response: &Response, expected: Option<usize>) -> Result<(), String> {
    match (response, expected) {
        (Response::Prices(quotes), Some(n)) if quotes.len() == n => {
            if quotes
                .iter()
                .all(|q| q.price.is_finite() && q.q_eff.is_finite())
            {
                Ok(())
            } else {
                Err("a quote is not finite".into())
            }
        }
        (Response::Snapshot(_), None) => Ok(()),
        (other, _) => Err(format!("unexpected read reply {other:?}")),
    }
}
