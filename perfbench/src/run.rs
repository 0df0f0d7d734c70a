//! One benchmark run: round by round, generate the plan, replay it timed
//! (untraced, then traced when asked, then a loopback replay where the
//! workload has one), and then certify what it served.
//!
//! A *round* is one fresh deployment: set up from an empty service (timed
//! as `setup_s`) and replay every plan step, timed command by command.
//! The timed replays do nothing else between two commands; the served
//! prices are certified afterwards by the workload harness's own verified
//! replay of the same commands (see [`crate::verify`]). The plans'
//! length, not a clock, fixes the work, so counts are exact for a fixed
//! seed.

use crate::plan::{Kind, Plan, Workload, LOOPBACK_RATES};
use crate::{inproc, wire};
use fedfl_obs::{MetricsSnapshot, Registry};
use fedfl_service::RepriceReport;
use std::sync::Arc;
use std::time::Instant;

/// A run needs at least this many reprices, so that ≥ 10 lie beyond p90.
pub const MIN_REPRICES: usize = 100;
/// A run needs at least this many clean reads.
pub const MIN_READS: usize = 1_000;
/// `setup_s` samples per run; the metric is their median.
pub const SETUPS: usize = 9;

/// Knobs of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Traced mode: each plan replayed untraced, then traced; the
    /// per-layer metrics come from the traced replays, and `net.*` from a
    /// loopback replay of the first round's first steps.
    pub trace: bool,
    /// `setup_s` samples a run takes (the rounds' own set-ups plus
    /// set-up-only repetitions).
    pub setups: usize,
    /// Fewest reprices and clean reads the untraced rounds must hold.
    pub min_reprices: usize,
    /// See `min_reprices`.
    pub min_reads: usize,
}

impl RunOptions {
    /// The options the benchmark command uses.
    #[must_use]
    pub fn benchmark(trace: bool) -> Self {
        Self {
            trace,
            setups: SETUPS,
            min_reprices: MIN_REPRICES,
            min_reads: MIN_READS,
        }
    }
}

/// Durations of one round's commands, in nanoseconds, by kind.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    by_kind: [Vec<f64>; 7],
}

impl Spans {
    /// Record one command's latency.
    pub fn record(&mut self, kind: Kind, nanos: f64) {
        self.by_kind[kind.index()].push(nanos);
    }

    /// The samples of `kind`.
    #[must_use]
    pub fn of(&self, kind: Kind) -> &[f64] {
        &self.by_kind[kind.index()]
    }

    /// Every write sample.
    #[must_use]
    pub fn writes(&self) -> Vec<f64> {
        Kind::ALL
            .iter()
            .filter(|k| k.is_write())
            .flat_map(|&k| self.of(k).iter().copied())
            .collect()
    }
}

/// What a loopback replay records beyond [`Spans`].
#[derive(Debug, Clone, Default)]
pub struct WireExtras {
    /// How late the reader sent each read after its connection was free
    /// and its intended time had come, nanoseconds.
    pub send_lag_ns: Vec<f64>,
    /// Client-side duration of every `PricingClient::call`, from actual
    /// send to reply, nanoseconds.
    pub call_ns: Vec<f64>,
    /// Latency of every open-loop reader read, from its intended send.
    pub open_loop_ns: Vec<f64>,
    /// The subset of `open_loop_ns` whose `[intended, done]` overlapped a
    /// writer step's stale window (first write to fresh prices): those
    /// reads waited behind, or ran, that step's re-solve.
    pub stale_read_ns: Vec<f64>,
}

/// Everything one round observed.
#[derive(Debug, Clone)]
pub struct Round {
    /// Whether the program recorded into a registry this round.
    pub traced: bool,
    /// Empty service → first certified prices served, seconds.
    pub setup_s: f64,
    /// Replay time the round's command throughput is measured against,
    /// seconds.
    pub replay_s: f64,
    /// Per-command latencies (reprice and open-loop reads include any
    /// lateness of their intended send).
    pub spans: Spans,
    /// Reports of the round's re-solves, the setup's cold solve first
    /// (in-process only).
    pub reports: Vec<RepriceReport>,
    /// Commands attempted in the replay (setup and checks excluded).
    pub commands: usize,
    /// FNV-1a of the final served equilibrium.
    pub checksum: u64,
    /// Loopback-only observations.
    pub wire: Option<WireExtras>,
    /// The server's registry at the end of a loopback round.
    pub scrape: Option<MetricsSnapshot>,
}

/// A failed run: why, and how many commands had been attempted.
#[derive(Debug, Clone)]
pub struct RunError {
    /// What failed.
    pub message: String,
    /// Commands attempted before the failure.
    pub attempted: usize,
    /// Commands that failed.
    pub failed: usize,
}

impl RunError {
    /// A failure that is not a failed command (a gate or a setup error).
    #[must_use]
    pub fn gate(message: impl Into<String>, attempted: usize) -> Self {
        Self {
            message: message.into(),
            attempted,
            failed: 0,
        }
    }
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload's name.
    pub workload: &'static str,
    /// Store shards of the deployment.
    pub shards: usize,
    /// FNV-1a over the rounds' plan fingerprints.
    pub fingerprint: u64,
    /// Trace generation and plan building, seconds.
    pub generate_s: f64,
    /// Every `setup_s` sample, seconds.
    pub setups: Vec<f64>,
    /// Every in-process round, in order.
    pub rounds: Vec<Round>,
    /// The registry of the traced in-process rounds.
    pub registry: MetricsSnapshot,
    /// The loopback replay of a traced run, when the workload has one.
    pub loopback: Option<Round>,
    /// The loopback server's registry, scraped at the end of its replay.
    pub net_registry: MetricsSnapshot,
    /// Highest `VmHWM` over the rounds, each reset after its plan was
    /// built and read right after its timed replays, MiB.
    pub peak_rss_mb: f64,
}

impl Run {
    /// Rounds whose latencies feed the end-to-end metrics (the untraced
    /// ones).
    pub fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    /// Commands attempted across all rounds.
    #[must_use]
    pub fn attempted(&self) -> usize {
        attempted(&self.rounds) + self.loopback.as_ref().map_or(0, |r| r.commands)
    }
}

fn attempted(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.commands).sum()
}

/// Run a workload. Round by round: generate the round's plan, take the
/// set-up samples (round 0), replay the plan timed (untraced, then traced
/// when asked), read the peak memory, and only then, outside
/// every timed region, certify the prices: the workload harness replays
/// the same commands with its checkpoints, and every timed replay must
/// have served the prices it certified, bit for bit. A traced run of a
/// workload with a loopback deployment then replays that deployment over
/// loopback, certified the same way.
///
/// # Errors
///
/// Returns a [`RunError`] when a command fails or a correctness gate does
/// not hold.
pub fn run(workload: &Workload, options: &RunOptions) -> Result<Run, RunError> {
    let registry = Arc::new(Registry::new());
    let mut setups = Vec::with_capacity(options.setups);
    let mut rounds: Vec<Round> = Vec::new();
    let mut loopback = None;
    let mut fingerprint = Vec::new();
    let mut generate_s = 0.0;
    let mut peak_rss_mb: f64 = 0.0;
    for index in 0..workload.rounds {
        let generated = Instant::now();
        let plan = workload
            .plan(index)
            .map_err(|e| RunError::gate(e, attempted(&rounds)))?;
        generate_s += generated.elapsed().as_secs_f64();
        fingerprint.extend_from_slice(&plan.fingerprint.to_le_bytes());
        // The trace the plan was built from, and the previous round's
        // certified replay, are freed: measure memory from here.
        crate::host::reset_peak_rss();
        if index == 0 {
            for _ in workload.rounds..options.setups {
                setups.push(inproc::setup_time(&plan)?);
            }
        }
        let first = rounds.len();
        for traced in [false, true]
            .into_iter()
            .take(1 + usize::from(options.trace))
        {
            let before = attempted(&rounds);
            let recorder = traced.then(|| Arc::clone(&registry));
            let round = inproc::round(&plan, recorder).map_err(|mut e| {
                e.attempted += before;
                e
            })?;
            if !traced {
                setups.push(round.setup_s);
            }
            rounds.push(round);
        }
        peak_rss_mb = peak_rss_mb.max(crate::host::peak_rss_mb());
        certify(&plan, &rounds[first..], &format!("round {index}"))
            .map_err(|e| RunError::gate(e, attempted(&rounds)))?;
    }
    if let (true, Some(deployment)) = (options.trace, &workload.loopback) {
        let before = attempted(&rounds);
        let plan = deployment.plan(0).map_err(|e| RunError::gate(e, before))?;
        let round = wire::round(&plan, LOOPBACK_RATES, workload.spec.seed).map_err(|mut e| {
            e.attempted += before;
            e
        })?;
        certify(&plan, std::slice::from_ref(&round), "the loopback replay")
            .map_err(|e| RunError::gate(e, before + round.commands))?;
        loopback = Some(round);
    }
    let loopback_commands = loopback.as_ref().map_or(0, |r: &Round| r.commands);
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let reprices: usize = untraced
        .iter()
        .map(|r| r.spans.of(Kind::Reprice).len())
        .sum();
    let reads: usize = untraced
        .iter()
        .map(|r| r.spans.of(Kind::GetPrices).len())
        .sum();
    if reprices < options.min_reprices || reads < options.min_reads {
        return Err(RunError::gate(
            format!(
                "too few samples: {reprices} reprices (need {}), {reads} clean reads (need {})",
                options.min_reprices, options.min_reads
            ),
            attempted(&rounds) + loopback_commands,
        ));
    }
    let net_registry = loopback
        .as_ref()
        .and_then(|round| round.scrape.clone())
        .unwrap_or_default();
    Ok(Run {
        workload: workload.name,
        shards: workload.spec.shards,
        fingerprint: fedfl_workload::generator::fnv1a(&fingerprint),
        generate_s,
        setups,
        rounds,
        registry: registry.snapshot(),
        loopback,
        net_registry,
        peak_rss_mb,
    })
}

/// The correctness gate of `replays` of `plan`: the harness's certified
/// replay of the same commands must have served the same final prices.
fn certify(plan: &Plan, replays: &[Round], what: &str) -> Result<(), String> {
    let certified = crate::verify::certified_checksum(plan).map_err(|e| format!("{what}: {e}"))?;
    match replays.iter().find(|round| round.checksum != certified) {
        Some(round) => Err(format!(
            "{what}: the {} replay served other prices ({:016x}) than the certified replay \
             ({certified:016x})",
            if round.traced { "traced" } else { "untraced" },
            round.checksum
        )),
        None => Ok(()),
    }
}
