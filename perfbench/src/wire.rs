//! The loopback replay of a traced run: a `fedfl_net` server inside this
//! process, one writer connection issuing plan steps at a fixed rate and
//! one reader connection sending `GetPrices` batches open-loop. It feeds
//! the `net.*` per-layer metrics; no end-to-end metric comes from it.
//!
//! A writer step is its writes, its price read (timed from the step's
//! intended start) and then its clean reads, back to back. The open-loop
//! reads are timed from their *intended* send time, so a read that
//! waited for its connection (behind a slow reply) is charged the wait
//! (the coordinated-omission correction HdrHistogram applies).

use crate::plan::{Kind, Plan, WireRates};
use crate::run::{Round, RunError, Spans, WireExtras};
use crate::verify::{check_read, checksum, expected_quotes};
use fedfl_net::{serve, ClientError, PricingClient, ServerHandle, ServerOptions};
use fedfl_service::{Command, PricingService, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One timed reader exchange.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    intended: Instant,
    sent: Instant,
    done: Instant,
}

/// When one writer step held the view stale: from its first write to the
/// reply of its price read.
#[derive(Debug, Clone, Copy)]
struct StepWindow {
    writes_from: Instant,
    done: Instant,
}

impl StepWindow {
    /// Whether a read's `[intended, done]` overlapped the stale window.
    fn overlaps(&self, read: &Exchange) -> bool {
        read.intended < self.done && read.done > self.writes_from
    }
}

/// A started server with its two connections.
struct Deployment {
    server: ServerHandle,
    writer: PricingClient,
    reader: PricingClient,
}

/// Start a server around a fresh service, connect the writer and the
/// reader, seed the population and read the first certified prices.
/// Returns the deployment and the set-up time in seconds.
fn setup(plan: &Plan) -> Result<(Deployment, f64), RunError> {
    // Built before the clock starts.
    let (seed, first_read) = plan.setup_commands();
    let clock = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| RunError::gate(format!("cannot bind loopback: {e}"), 0))?;
    let service =
        PricingService::new(plan.config).map_err(|e| RunError::gate(format!("setup: {e}"), 0))?;
    let server = serve(service, listener, ServerOptions::default(), None)
        .map_err(|e| RunError::gate(format!("cannot start server: {e}"), 0))?;
    let connect = |what: &str| {
        PricingClient::connect(server.addr())
            .map_err(|e| RunError::gate(format!("cannot connect the {what}: {e}"), 0))
    };
    let mut writer = connect("writer")?;
    let reader = connect("reader")?;
    let seeded = writer.call(&seed);
    let first = writer.call(&first_read);
    let setup_s = clock.elapsed().as_secs_f64();
    seeded.map_err(|e| failed("seeding AddClients", &e, 1))?;
    first.map_err(|e| failed("first GetPrices", &e, 2))?;
    Ok((
        Deployment {
            server,
            writer,
            reader,
        },
        setup_s,
    ))
}

/// Replay `plan` over loopback. At the end the server's registry is
/// scraped and the served prices' checksum taken; the run compares it
/// with the harness's certified replay of the same commands (the open
/// loop cannot pause for checkpoints without shifting its schedule).
/// `seed` drives the reader's schedule.
///
/// # Errors
///
/// Returns a [`RunError`] for a failed command, an error frame, a
/// malformed reply, or a server that cannot start.
pub fn round(plan: &Plan, rates: WireRates, seed: u64) -> Result<Round, RunError> {
    let step_period = Duration::from_secs_f64(1.0 / rates.steps_per_s);
    let phase = step_period * plan.steps.len() as u32;
    let schedule = reader_schedule(plan, seed, phase, rates)?;

    let (deployment, setup_s) = setup(plan)?;
    let Deployment {
        mut server,
        mut writer,
        mut reader,
    } = deployment;
    let stop = AtomicBool::new(false);
    let epoch = Instant::now() + Duration::from_millis(5);
    let mut spans = Spans::default();
    let mut call_ns = Vec::new();
    let mut windows: Vec<StepWindow> = Vec::new();
    let mut writer_commands = 0usize;
    let (writer_result, reader_result) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| read_open_loop(&mut reader, schedule, epoch, &stop));
        let result = (|| -> Result<Instant, RunError> {
            let mut last = epoch;
            for (k, step) in plan.steps.iter().enumerate() {
                let intended = epoch + step_period * k as u32;
                sleep_until(intended);
                let started = Instant::now();
                for write in &step.writes {
                    let command = write.command();
                    writer_commands += 1;
                    let sent = Instant::now();
                    let result = writer.call(&command);
                    let nanos = sent.elapsed().as_nanos() as f64;
                    result.map_err(|e| failed("write", &e, writer_commands))?;
                    spans.record(Kind::of(&command), nanos);
                    call_ns.push(nanos);
                }
                for (j, command) in step.reads.iter().enumerate() {
                    let expected = expected_quotes(command);
                    writer_commands += 1;
                    let sent = Instant::now();
                    let result = writer.call(command);
                    let done = Instant::now();
                    let response = result.map_err(|e| failed("read", &e, writer_commands))?;
                    check_read(&response, expected)
                        .map_err(|e| RunError::gate(e, writer_commands))?;
                    let nanos = (done - sent).as_nanos() as f64;
                    call_ns.push(nanos);
                    if j == 0 {
                        // The step's read was due when the step was: it is
                        // timed from the step's intended start, so its own
                        // writes, any lateness, and every re-solve they
                        // caused (whichever connection's read ran it) count.
                        spans.record(Kind::Reprice, (done - intended).as_nanos() as f64);
                        windows.push(StepWindow {
                            writes_from: started,
                            done,
                        });
                    } else {
                        spans.record(Kind::of(command), nanos);
                    }
                    last = done;
                }
            }
            Ok(last)
        })();
        stop.store(true, Ordering::Release);
        let reader_result = reader_thread.join();
        (result, reader_result)
    });
    let reader_result =
        reader_result.map_err(|_| RunError::gate("reader thread panicked", writer_commands))?;
    let (reads, reader_error) = match reader_result {
        Ok(reads) => (reads, None),
        Err((reads, error)) => (reads, Some(error)),
    };
    let commands = writer_commands + reads.len() + usize::from(reader_error.is_some());
    if let Some(error) = reader_error {
        return Err(RunError {
            message: format!("reader: {error}"),
            attempted: commands,
            failed: 1,
        });
    }
    let last = writer_result.map_err(|mut e| {
        e.attempted = commands;
        e
    })?;

    let mut extras = WireExtras::default();
    let mut prev_done = epoch;
    for read in &reads {
        let free = read.intended.max(prev_done);
        extras
            .send_lag_ns
            .push(read.sent.saturating_duration_since(free).as_nanos() as f64);
        prev_done = read.done;
        call_ns.push((read.done - read.sent).as_nanos() as f64);
        let latency = (read.done - read.intended).as_nanos() as f64;
        extras.open_loop_ns.push(latency);
        // A read that overlapped a step's stale window waited behind (or
        // ran) that step's re-solve.
        if windows.iter().any(|w| w.overlaps(read)) {
            extras.stale_read_ns.push(latency);
        }
    }
    extras.call_ns = call_ns;
    let replay_s = (last.max(reads.last().map_or(epoch, |r| r.done)) - epoch).as_secs_f64();

    // Outside the timed region: the served equilibrium and the server's
    // own counters.
    let snapshot = match writer.call(&Command::Snapshot) {
        Ok(Response::Snapshot(snapshot)) => snapshot,
        Ok(other) => {
            return Err(RunError::gate(
                format!("Snapshot answered with {other:?}"),
                commands,
            ))
        }
        Err(e) => return Err(failed("final Snapshot", &e, commands)),
    };
    let scrape = writer
        .metrics()
        .map_err(|e| failed("Metrics scrape", &e, commands))?
        .snapshot;
    drop(writer);
    server.shutdown();
    Ok(Round {
        traced: true,
        setup_s,
        replay_s,
        spans,
        reports: Vec::new(),
        commands,
        checksum: checksum(&snapshot),
        wire: Some(extras),
        scrape: Some(scrape),
    })
}

/// The reader's schedule over `phase`: Poisson arrivals at
/// `rates.reads_per_s` (so reads sample every point of a step, not a few
/// fixed offsets of it), each a batch of ids that no step removes. Offsets
/// are from the open loop's epoch.
fn reader_schedule(
    plan: &Plan,
    seed: u64,
    phase: Duration,
    rates: WireRates,
) -> Result<Vec<(Duration, Command)>, RunError> {
    if plan.stable_ids.is_empty() {
        return Err(RunError::gate("every seeded client is removed", 0));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        // Exponential gap: -ln(U) / rate, with U in (0, 1].
        at += -(1.0 - rng.random::<f64>()).ln() / rates.reads_per_s;
        if at >= phase.as_secs_f64() {
            return Ok(schedule);
        }
        let ids = (0..rates.read_batch)
            .map(|_| plan.stable_ids[rng.random_range(0..plan.stable_ids.len())])
            .collect();
        schedule.push((Duration::from_secs_f64(at), Command::GetPrices(ids)));
    }
}

/// Send each scheduled batch at its offset from `epoch` until `stop` is
/// raised. Returns the timed exchanges, plus the error that ended the
/// loop early.
#[allow(clippy::type_complexity)]
fn read_open_loop(
    reader: &mut PricingClient,
    schedule: Vec<(Duration, Command)>,
    epoch: Instant,
    stop: &AtomicBool,
) -> Result<Vec<Exchange>, (Vec<Exchange>, String)> {
    let mut reads = Vec::with_capacity(schedule.len());
    for (offset, command) in &schedule {
        let intended = epoch + *offset;
        sleep_until(intended);
        if stop.load(Ordering::Acquire) {
            return Ok(reads);
        }
        let expected = expected_quotes(command);
        let sent = Instant::now();
        let result = reader.call(command);
        let done = Instant::now();
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|response| check_read(&response, expected));
        if let Err(error) = checked {
            return Err((reads, error));
        }
        reads.push(Exchange {
            intended,
            sent,
            done,
        });
    }
    Ok(reads)
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

fn failed(what: &str, error: &ClientError, attempted: usize) -> RunError {
    RunError {
        message: format!("{what} failed: {error}"),
        attempted: attempted.max(1),
        failed: 1,
    }
}
