//! The benchmark's workloads and the command plans generated from a seed.
//!
//! Every workload starts from a [`WorkloadSpec`] — the repo's own churn
//! traffic model — generated by [`fedfl_workload::generate`]. The plan
//! then groups the trace into *steps*: the step's writes, followed by its
//! reads. The first read after a step's writes absorbs the service's lazy
//! re-solve; the benchmark times it as a reprice.

use fedfl_service::{
    AvailabilityModel, AvailabilityPattern, ClientId, ClientParams, Command, ServiceConfig,
};
use fedfl_sim::availability::DiurnalCycle;
use fedfl_workload::generator::fnv1a;
use fedfl_workload::{generate, replay_config, Phase, Trace, TraceOp, TraceStep, WorkloadSpec};
use std::collections::HashSet;

/// Rates of a loopback replay: a writer connection issuing plan steps
/// at a fixed rate, a reader connection reading open-loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRates {
    /// Writer steps started per second.
    pub steps_per_s: f64,
    /// Reader `GetPrices` batches sent per second (Poisson arrivals).
    pub reads_per_s: f64,
    /// Client ids per reader batch.
    pub read_batch: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The traffic model the commands are generated from.
    pub spec: WorkloadSpec,
    /// Rounds per run, each from a fresh service with its own sub-seed
    /// (see [`Workload::round_spec`]).
    pub rounds: usize,
    /// Every this many trace steps, the budget redraw is moved after the
    /// step's first read so that its own reprice reuses the cached index
    /// (`0` never moves it; see [`Workload::trace`]).
    pub reuse_every: usize,
    /// `Some` when a traced run also replays this deployment over a
    /// loopback `fedfl_net` server at [`LOOPBACK_RATES`], for the `net.*`
    /// metrics.
    pub loopback: Option<Box<Workload>>,
}

/// The rates of the loopback replay: a writer step every 250 ms, and 30
/// open-loop reads of 64 ids a second.
pub const LOOPBACK_RATES: WireRates = WireRates {
    steps_per_s: 4.0,
    reads_per_s: 30.0,
    read_batch: 64,
};

/// Fewest reprices a benchmark-scale plan makes, so that at least ten
/// lie beyond p90.
pub const MIN_STEPS: usize = 100;

/// `GetPrices` batches per step of the in-process workloads.
const IN_PROCESS_READS_PER_STEP: usize = 48;

/// Steps of the loopback replay.
pub const LOOPBACK_STEPS: usize = 40;

/// Rounds a workload splits its steps into: `(most rounds, fewest trace
/// steps per round)`. Each round replays the traffic of its own sub-seed
/// against a fresh population. A re-solve's cost depends on the
/// population (strongly under the exact solver), so one population per
/// run would make the run's reprice percentiles a property of its seed;
/// at 100k clients, rounds also bound the memory a trace takes while it
/// is generated.
fn round_shape(name: &str) -> (usize, usize) {
    match name {
        "fast-dense-100k" => (4, 30),
        "fast-sparse-100k" => (4, 36),
        "exact-10k" => (40, 12),
        _ => (1, 1),
    }
}

/// The workload names, in `BENCHMARK.json` order. `exact-10k` is the
/// shape of the loopback replay a traced `fast-sparse-100k` run adds; it
/// runs on its own by name too, but is not a benchmark workload.
pub const WORKLOADS: [&str; 2] = ["fast-dense-100k", "fast-sparse-100k"];

impl Workload {
    /// The named workload at its benchmark scale, with a trace long
    /// enough that a whole run, the certified replay included, takes about
    /// `seconds` on a 2-core host (and never fewer than [`MIN_STEPS`]
    /// reprices).
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid workloads for an unknown name.
    pub fn named(
        name: &str,
        seed: u64,
        solver_threads: usize,
        seconds: f64,
    ) -> Result<Self, String> {
        // Trace steps per second of `seconds`, and steps that make at least
        // MIN_STEPS reprices (the sparse plan splits every 4th step in two).
        let (clients, steps_per_s, min_steps) = match name {
            "fast-dense-100k" => (100_000, 8.0, MIN_STEPS),
            "fast-sparse-100k" => (100_000, 10.0, MIN_STEPS * 4 / 5),
            "exact-10k" => (10_000, 60.0, MIN_STEPS),
            _ => {
                return Err(format!(
                    "unknown workload {name:?} (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        };
        let steps = ((seconds * steps_per_s).ceil() as usize).max(min_steps);
        Self::scaled(name, seed, solver_threads, clients, steps)
    }

    /// The named workload's shape at another population size and trace
    /// length (tests run the same shapes small). `steps` counts trace
    /// steps over all rounds.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown name or a zero thread count.
    pub fn scaled(
        name: &str,
        seed: u64,
        solver_threads: usize,
        clients: usize,
        steps: usize,
    ) -> Result<Self, String> {
        if solver_threads == 0 {
            return Err("--solver-threads must be at least 1 (0 would mean auto)".into());
        }
        // The reference traffic model: 8 diurnal cohorts, 150/150 churn
        // per step, 800-client flash crowds, heavy-tail budget redraws.
        let mut spec = WorkloadSpec::reference_10k();
        spec.seed = seed;
        spec.threads = solver_threads;
        spec.clients = clients;
        let (most_rounds, round_steps) = round_shape(name);
        let rounds = (steps / round_steps).clamp(1, most_rounds);
        spec.steps = steps.div_ceil(rounds);
        spec.min_population = (clients / 10).max(1);
        let scale = |n: usize| ((n * clients) / 10_000).clamp(1, n);
        let mut reuse_every = 0;
        let mut loopback = None;
        let name = match name {
            "fast-dense-100k" => {
                spec.fast_path = true;
                spec.reads_per_step = IN_PROCESS_READS_PER_STEP;
                spec.surge_size = scale(800);
                spec.arrivals_per_step = scale(150);
                spec.departures_per_step = scale(150);
                "fast-dense-100k"
            }
            "fast-sparse-100k" => {
                // No diurnal swing (trough = peak), no flash crowds, a few
                // dozen arrivals and departures, the budget every step.
                spec.fast_path = true;
                spec.diurnal = DiurnalCycle {
                    period: 12,
                    trough: 0.75,
                    peak: 0.75,
                };
                spec.arrivals_per_step = scale(24);
                spec.departures_per_step = scale(24);
                spec.surge_every = 0;
                spec.budget_every = 1;
                spec.reads_per_step = IN_PROCESS_READS_PER_STEP;
                spec.snapshot_every = 12;
                reuse_every = 4;
                loopback = Some(Box::new(Self::loopback(
                    seed,
                    solver_threads,
                    clients / 10,
                    steps.min(LOOPBACK_STEPS),
                )?));
                "fast-sparse-100k"
            }
            "exact-10k" => {
                spec.fast_path = false;
                spec.reads_per_step = IN_PROCESS_READS_PER_STEP;
                spec.surge_size = scale(800);
                spec.arrivals_per_step = scale(150);
                spec.departures_per_step = scale(150);
                "exact-10k"
            }
            _ => return Err(format!("unknown workload {name:?}")),
        };
        spec.validate().map_err(|e| e.to_string())?;
        Ok(Self {
            name,
            spec,
            rounds,
            reuse_every,
            loopback,
        })
    }

    /// The deployment the loopback replay drives: `exact-10k`'s shape at
    /// `clients`, one round of `steps` steps from `seed` itself.
    fn loopback(
        seed: u64,
        solver_threads: usize,
        clients: usize,
        steps: usize,
    ) -> Result<Self, String> {
        let mut workload = Self::scaled("exact-10k", seed, solver_threads, clients, steps)?;
        workload.rounds = 1;
        workload.spec.steps = steps;
        Ok(workload)
    }

    /// The traffic model of round `round`: a one-round workload uses the
    /// seed as given; round `r` of `k` uses sub-seed `seed·k + r`.
    #[must_use]
    pub fn round_spec(&self, round: usize) -> WorkloadSpec {
        let mut spec = self.spec.clone();
        if self.rounds > 1 {
            spec.seed = spec
                .seed
                .wrapping_mul(self.rounds as u64)
                .wrapping_add(round as u64);
        }
        spec
    }

    /// Generate the trace of round `round`, shaped for the benchmark on
    /// the trace itself, so that the workload harness's verified replay
    /// and the benchmark's timed replays send the same commands in the
    /// same order:
    ///
    /// * the set-up ends with a price read of the first seeded ids, which
    ///   absorbs the cold solve (the end of `setup_s`);
    /// * every `reuse_every`-th step that redraws the budget next to
    ///   other writes moves the redraw after the step's first read, so
    ///   that the next read re-solves a budget change alone and reuses the
    ///   cached index.
    ///
    /// # Errors
    ///
    /// Returns a message if the trace cannot be generated.
    pub fn trace(&self, round: usize) -> Result<(WorkloadSpec, Trace), String> {
        let spec = self.round_spec(round);
        let mut trace = generate(&spec).map_err(|e| e.to_string())?;
        let seeded = match trace.setup.first() {
            Some(TraceOp::AddClients(batch)) => batch.len(),
            _ => return Err("trace has no seeding batch".into()),
        };
        trace.setup.push(TraceOp::GetPrices(
            (0..seeded.min(64) as u64).map(ClientId).collect(),
        ));
        if self.reuse_every > 0 {
            for step in &mut trace.steps {
                if step.step.is_multiple_of(self.reuse_every) {
                    split_budget(&mut step.ops);
                }
            }
        }
        Ok((spec, trace))
    }

    /// Generate round `round`'s trace and keep it as a compact plan.
    ///
    /// # Errors
    ///
    /// Returns a message if the trace cannot be generated or replayed.
    pub fn plan(&self, round: usize) -> Result<Plan, String> {
        let (spec, trace) = self.trace(round)?;
        Plan::new(spec, trace)
    }
}

/// Move a step's budget redraw right after its first read, when other
/// writes precede it and at least one more read follows.
fn split_budget(ops: &mut Vec<TraceOp>) {
    let is_read = |op: &TraceOp| matches!(op, TraceOp::GetPrices(_) | TraceOp::Snapshot);
    let budget = ops
        .iter()
        .position(|op| matches!(op, TraceOp::UpdateBudgetFactor(_)));
    let first_read = ops.iter().position(is_read);
    if let (Some(budget), Some(first_read)) = (budget, first_read) {
        if budget > 0 && budget < first_read && ops.len() - first_read >= 2 {
            let op = ops.remove(budget);
            ops.insert(first_read, op);
        }
    }
}

/// A write as a plan stores it.
#[derive(Debug, Clone)]
pub enum Write {
    /// `AddClients`.
    AddClients(Vec<ClientParams>),
    /// `RemoveClients`.
    RemoveClients(Vec<ClientId>),
    /// `UpdateAvailability`, one pattern per client, kept run-length
    /// encoded as `(pattern, run length)` in insertion order (cohorts
    /// come in blocks of consecutive ids), so that the plan's own memory
    /// does not swamp the program's in `peak_rss_mb`.
    Availability(Vec<(AvailabilityPattern, usize)>),
    /// `UpdateBudget`: the trace's heavy-tail factor and the budget it
    /// gives, base budget × factor (the harness's arithmetic).
    Budget {
        /// The trace's factor.
        factor: f64,
        /// The budget sent.
        budget: f64,
    },
}

impl Write {
    /// The command to send (expanded and cloned: call it before the
    /// clock starts).
    #[must_use]
    pub fn command(&self) -> Command {
        match self {
            Write::AddClients(batch) => Command::AddClients(batch.clone()),
            Write::RemoveClients(ids) => Command::RemoveClients(ids.clone()),
            Write::Availability(runs) => Command::UpdateAvailability(
                AvailabilityModel::new(expand(runs)).expect("validated when the plan was built"),
            ),
            Write::Budget { budget, .. } => Command::UpdateBudget(*budget),
        }
    }

    fn op(&self) -> TraceOp {
        match self {
            Write::AddClients(batch) => TraceOp::AddClients(batch.clone()),
            Write::RemoveClients(ids) => TraceOp::RemoveClients(ids.clone()),
            Write::Availability(runs) => TraceOp::UpdateAvailability(expand(runs)),
            Write::Budget { factor, .. } => TraceOp::UpdateBudgetFactor(*factor),
        }
    }
}

fn expand(runs: &[(AvailabilityPattern, usize)]) -> Vec<AvailabilityPattern> {
    runs.iter()
        .flat_map(|&(pattern, n)| std::iter::repeat_n(pattern, n))
        .collect()
}

fn run_lengths(patterns: &[AvailabilityPattern]) -> Vec<(AvailabilityPattern, usize)> {
    let mut runs: Vec<(AvailabilityPattern, usize)> = Vec::new();
    for &pattern in patterns {
        match runs.last_mut() {
            Some((last, n)) if *last == pattern => *n += 1,
            _ => runs.push((pattern, 1)),
        }
    }
    runs
}

/// One step of a plan: writes, then reads. When `writes` is non-empty,
/// `reads[0]` absorbs the re-solve those writes cause. A trace step whose
/// budget redraw was split off makes two plan steps.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The trace step the commands come from.
    pub step: usize,
    /// Its traffic regime.
    pub phase: Phase,
    /// Mutating commands, in order.
    pub writes: Vec<Write>,
    /// `GetPrices` / `Snapshot` commands, in order.
    pub reads: Vec<Command>,
}

/// The commands of one round, ready to drive a fresh service: a compact
/// form of the shaped trace ([`Workload::trace`]), which [`Plan::trace`]
/// gives back op for op.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The round's traffic model (the harness's verified replay needs it).
    pub spec: WorkloadSpec,
    /// The deployment every round starts from (budget, shards, solver
    /// threads, fast path).
    pub config: ServiceConfig,
    /// The seeding `AddClients` batch.
    pub seed_batch: Vec<ClientParams>,
    /// The set-up's price read, which absorbs the cold solve.
    pub first_read: Vec<ClientId>,
    /// The traffic steps.
    pub steps: Vec<PlanStep>,
    /// Seeded ids that are never removed.
    pub stable_ids: Vec<ClientId>,
    /// The generator's fingerprint of the unshaped trace.
    pub trace_fingerprint: u64,
    /// FNV-1a over the trace fingerprint and the step layout: equal
    /// fingerprints mean the same commands in the same steps.
    pub fingerprint: u64,
}

impl Plan {
    /// The compact plan of a shaped trace.
    ///
    /// # Errors
    ///
    /// Returns a message for a trace without the shaped set-up or with an
    /// invalid availability model.
    pub fn new(spec: WorkloadSpec, trace: Trace) -> Result<Self, String> {
        let config = replay_config(&spec, &trace).map_err(|e| e.to_string())?;
        let base_budget = config.budget;
        let trace_fingerprint = trace.fingerprint;
        let (seed_batch, first_read) = match <[TraceOp; 2]>::try_from(trace.setup) {
            Ok([TraceOp::AddClients(batch), TraceOp::GetPrices(ids)]) => (batch, ids),
            _ => return Err("the set-up is not a seeding batch and a price read".into()),
        };

        let mut steps: Vec<PlanStep> = Vec::new();
        let mut removed: HashSet<ClientId> = HashSet::new();
        for step in trace.steps {
            let mut current = PlanStep {
                step: step.step,
                phase: step.phase,
                writes: Vec::new(),
                reads: Vec::new(),
            };
            for op in step.ops {
                let write = match op {
                    TraceOp::GetPrices(ids) => {
                        current.reads.push(Command::GetPrices(ids));
                        continue;
                    }
                    TraceOp::Snapshot => {
                        current.reads.push(Command::Snapshot);
                        continue;
                    }
                    TraceOp::AddClients(batch) => Write::AddClients(batch),
                    TraceOp::RemoveClients(ids) => {
                        removed.extend(ids.iter().copied());
                        Write::RemoveClients(ids)
                    }
                    TraceOp::UpdateAvailability(patterns) => {
                        AvailabilityModel::new(patterns.clone()).map_err(|e| e.to_string())?;
                        Write::Availability(run_lengths(&patterns))
                    }
                    TraceOp::UpdateBudgetFactor(factor) => Write::Budget {
                        factor,
                        budget: base_budget * factor,
                    },
                };
                // A write after reads starts the next plan step.
                if !current.reads.is_empty() {
                    let next = PlanStep {
                        step: current.step,
                        phase: current.phase,
                        writes: Vec::new(),
                        reads: Vec::new(),
                    };
                    steps.push(std::mem::replace(&mut current, next));
                }
                current.writes.push(write);
            }
            steps.push(current);
        }

        // Seeded clients that no step removes: the open-loop reader
        // samples only these, so no read can race a removal.
        let stable_ids: Vec<ClientId> = (0..seed_batch.len() as u64)
            .map(ClientId)
            .filter(|id| !removed.contains(id))
            .collect();

        let mut layout = trace_fingerprint.to_le_bytes().to_vec();
        for step in &steps {
            layout.extend_from_slice(&(step.writes.len() as u32).to_le_bytes());
            layout.extend_from_slice(&(step.reads.len() as u32).to_le_bytes());
        }
        Ok(Self {
            spec,
            config,
            seed_batch,
            first_read,
            steps,
            stable_ids,
            trace_fingerprint,
            fingerprint: fnv1a(&layout),
        })
    }

    /// The set-up's commands: the seeding `AddClients`, then the price
    /// read that absorbs the cold solve.
    #[must_use]
    pub fn setup_commands(&self) -> (Command, Command) {
        (
            Command::AddClients(self.seed_batch.clone()),
            Command::GetPrices(self.first_read.clone()),
        )
    }

    /// The shaped trace the plan was built from, op for op.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let mut steps: Vec<TraceStep> = Vec::new();
        for step in &self.steps {
            let ops = step
                .writes
                .iter()
                .map(Write::op)
                .chain(step.reads.iter().map(|read| match read {
                    Command::GetPrices(ids) => TraceOp::GetPrices(ids.clone()),
                    _ => TraceOp::Snapshot,
                }));
            match steps.last_mut() {
                Some(last) if last.step == step.step => last.ops.extend(ops),
                _ => steps.push(TraceStep {
                    step: step.step,
                    phase: step.phase,
                    ops: ops.collect(),
                }),
            }
        }
        Trace {
            setup: vec![
                TraceOp::AddClients(self.seed_batch.clone()),
                TraceOp::GetPrices(self.first_read.clone()),
            ],
            steps,
            fingerprint: self.trace_fingerprint,
        }
    }
}

/// The command kinds the benchmark times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `AddClients`.
    AddClients,
    /// `RemoveClients`.
    RemoveClients,
    /// `UpdateAvailability`.
    UpdateAvailability,
    /// `UpdateBudget`.
    UpdateBudget,
    /// A clean `GetPrices`.
    GetPrices,
    /// A clean `Snapshot`.
    Snapshot,
    /// The first read after a step's writes (absorbs the re-solve).
    Reprice,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::AddClients,
        Kind::RemoveClients,
        Kind::UpdateAvailability,
        Kind::UpdateBudget,
        Kind::GetPrices,
        Kind::Snapshot,
        Kind::Reprice,
    ];

    /// The kind of a command executed outside the reprice position.
    #[must_use]
    pub fn of(command: &Command) -> Kind {
        match command {
            Command::AddClients(_) => Kind::AddClients,
            Command::RemoveClients(_) => Kind::RemoveClients,
            Command::UpdateAvailability(_) => Kind::UpdateAvailability,
            Command::UpdateBudget(_) | Command::UpdateBound(_) => Kind::UpdateBudget,
            Command::Snapshot => Kind::Snapshot,
            Command::GetPrices(_) | Command::Reprice | Command::Metrics => Kind::GetPrices,
        }
    }

    /// Whether the kind is a write (acknowledgement latency).
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Kind::AddClients | Kind::RemoveClients | Kind::UpdateAvailability | Kind::UpdateBudget
        )
    }

    /// Slot in [`Kind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}
