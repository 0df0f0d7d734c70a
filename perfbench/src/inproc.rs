//! The in-process closed loop: `PricingService::execute`, one command at
//! a time, each under its own clock.

use crate::plan::{Kind, Plan};
use crate::run::{Round, RunError, Spans};
use crate::verify::{check_read, checksum, expected_quotes};
use fedfl_core::server::SolverMode;
use fedfl_obs::Registry;
use fedfl_service::{PricingService, ServiceError};
use std::sync::Arc;
use std::time::Instant;

/// Set up a fresh service: from empty to the first certified prices
/// served (the seeding `AddClients`, then a price read that absorbs the
/// cold solve). Returns the service and the set-up time in seconds.
fn setup(plan: &Plan, recorder: Option<Arc<Registry>>) -> Result<(PricingService, f64), RunError> {
    // Built before the clock starts.
    let (seed, first_read) = plan.setup_commands();
    let clock = Instant::now();
    let mut service = match recorder {
        Some(registry) => PricingService::with_recorder(plan.config, registry),
        None => PricingService::new(plan.config),
    }
    .map_err(|e| RunError::gate(format!("setup: {e}"), 0))?;
    let seeded = service.execute(seed);
    let first = service.execute(first_read);
    let setup_s = clock.elapsed().as_secs_f64();
    seeded.map_err(|e| failed("seeding AddClients", &e, 1))?;
    first.map_err(|e| failed("first GetPrices", &e, 2))?;
    Ok((service, setup_s))
}

/// One set-up on its own, for the `setup_s` median.
///
/// # Errors
///
/// Returns a [`RunError`] if the set-up fails.
pub fn setup_time(plan: &Plan) -> Result<f64, RunError> {
    setup(plan, None).map(|(_, seconds)| seconds)
}

/// One round: set up a fresh service, replay the plan with every command
/// under its own clock, and take the final served prices' checksum.
///
/// Between two timed commands the benchmark only checks the read it just
/// got (its quote count, and that every quote is finite); the prices
/// themselves are certified by [`crate::verify::certified_checksum`],
/// which the run compares with this round's checksum.
///
/// # Errors
///
/// Returns a [`RunError`] for a failed command or a malformed reply.
pub fn round(plan: &Plan, recorder: Option<Arc<Registry>>) -> Result<Round, RunError> {
    let traced = recorder.is_some();
    let (mut service, setup_s) = setup(plan, recorder)?;
    let mut reports = vec![*service
        .last_report()
        .ok_or_else(|| RunError::gate("setup served prices without a solve", 2))?];

    let mut spans = Spans::default();
    let mut replay_ns = 0.0;
    let mut commands = 0usize;
    for step in &plan.steps {
        for write in &step.writes {
            // Built before the clock starts.
            let command = write.command();
            let kind = Kind::of(&command);
            commands += 1;
            let clock = Instant::now();
            let result = service.execute(command);
            let nanos = clock.elapsed().as_nanos() as f64;
            result.map_err(|e| failed("write", &e, commands))?;
            replay_ns += nanos;
            spans.record(kind, nanos);
        }
        for command in &step.reads {
            let absorbs = service.is_dirty();
            let kind = if absorbs {
                Kind::Reprice
            } else {
                Kind::of(command)
            };
            let expected = expected_quotes(command);
            let owned = command.clone();
            commands += 1;
            let clock = Instant::now();
            let result = service.execute(owned);
            let nanos = clock.elapsed().as_nanos() as f64;
            let response = result.map_err(|e| failed("read", &e, commands))?;
            replay_ns += nanos;
            spans.record(kind, nanos);
            check_read(&response, expected).map_err(|e| RunError::gate(e, commands))?;
            if absorbs {
                reports.push(*service.last_report().ok_or_else(|| {
                    RunError::gate("a read re-solved without a report", commands)
                })?);
            }
        }
    }
    let snapshot = service
        .snapshot()
        .map_err(|e| failed("final Snapshot", &e, commands))?;
    if plan.config.fast_path {
        if let Some(bad) = reports
            .iter()
            .find(|r| r.solver_mode != SolverMode::ThresholdIndex)
        {
            return Err(RunError::gate(
                format!("fast workload solved with {:?}", bad.solver_mode),
                commands,
            ));
        }
    }
    Ok(Round {
        traced,
        setup_s,
        replay_s: replay_ns / 1e9,
        spans,
        reports,
        commands,
        checksum: checksum(&snapshot),
        wire: None,
        scrape: None,
    })
}

fn failed(what: &str, error: &ServiceError, attempted: usize) -> RunError {
    RunError {
        message: format!("{what} failed: {error}"),
        attempted: attempted.max(1),
        failed: 1,
    }
}
