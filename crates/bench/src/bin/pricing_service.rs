//! Churn-trace driver for the incremental pricing service.
//!
//! Replays a deterministic synthetic churn trace — batches of client
//! arrivals and departures drawn from the Table-I-like population spec —
//! through a [`fedfl_service::PricingService`], recording per-step solve
//! latency and the warm-start savings of the λ-bisection, and optionally
//! verifying at every step that the incremental prices are bit-identical
//! to a from-scratch `solve_kkt` over the same clients.
//!
//! ```text
//! pricing_service [--clients N] [--batches B] [--batch-size K]
//!                 [--threads T] [--shards S] [--seed S] [--budget-frac F]
//!                 [--availability P] [--verify-every V]
//!                 [--out PATH] [--no-out] [--json] [--json-out PATH]
//! ```
//!
//! Defaults: 10,000 initial clients, 120 batches of 50 adds + 50 removes,
//! auto threads, 256 store shards, seed 2023, budget at 45% of the
//! initial saturation path, always-on clients, verification every 10
//! steps, report appended to `results/pricing_service.txt`. The report
//! records the dirty-shard accounting — how many shards (and what
//! fraction of the population's columns) each churn batch actually
//! rebuilt. With `--json`, a machine-readable record is appended to
//! `results/BENCH_scale.json` (or the given path). Exits non-zero if any
//! verification or the service's per-solve Theorem 2 assertion fails.

use fedfl_core::bound::BoundParams;
use fedfl_core::population::{ClientProfile, Population, PopulationSpec};
use fedfl_core::server::{path_budget, solve_kkt, KktRequest, SolverOptions};
use fedfl_core::shard::ShardedPopulation;
use fedfl_num::rng::substream;
use fedfl_service::{AvailabilityPattern, ClientId, ClientParams, PricingService, ServiceConfig};
use rand::Rng;
use serde::Serialize;
use std::io::Write as _;
use std::time::Instant;

/// The machine-readable record `--json` appends (one object per line).
#[derive(Debug, Serialize)]
struct JsonRecord {
    bench: &'static str,
    clients: usize,
    batches: usize,
    batch_size: usize,
    threads: usize,
    shards: usize,
    seed: u64,
    availability: f64,
    budget: f64,
    cold_solve_seconds: f64,
    mean_resolve_seconds: f64,
    max_resolve_seconds: f64,
    mean_warm_iterations: f64,
    mean_dirty_shards: f64,
    mean_rebuilt_column_fraction: f64,
    max_rebuilt_column_fraction: f64,
    verified_steps: usize,
    worst_theorem2_residual: f64,
}

struct Args {
    clients: usize,
    batches: usize,
    batch_size: usize,
    threads: usize,
    shards: usize,
    seed: u64,
    budget_frac: f64,
    availability: f64,
    verify_every: usize,
    out: Option<String>,
    json: Option<String>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            clients: 10_000,
            batches: 120,
            batch_size: 50,
            threads: 0,
            shards: 256,
            seed: 2023,
            budget_frac: 0.45,
            availability: 0.0,
            verify_every: 10,
            out: Some("results/pricing_service.txt".into()),
            json: None,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--clients" => args.clients = parse(value("--clients")?)?,
                "--batches" => args.batches = parse(value("--batches")?)?,
                "--batch-size" => args.batch_size = parse(value("--batch-size")?)?,
                "--threads" => args.threads = parse(value("--threads")?)?,
                "--shards" => args.shards = parse(value("--shards")?)?,
                "--seed" => args.seed = parse(value("--seed")?)?,
                "--budget-frac" => args.budget_frac = parse(value("--budget-frac")?)?,
                "--availability" => args.availability = parse(value("--availability")?)?,
                "--verify-every" => args.verify_every = parse(value("--verify-every")?)?,
                "--out" => args.out = Some(value("--out")?),
                "--no-out" => args.out = None,
                "--json" => {
                    args.json
                        .get_or_insert_with(|| "results/BENCH_scale.json".into());
                }
                "--json-out" => args.json = Some(value("--json-out")?),
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --clients N, --batches B, \
                         --batch-size K, --threads T, --shards S, --seed S, \
                         --budget-frac F, --availability P, --verify-every V, \
                         --out PATH, --no-out, --json, --json-out PATH)"
                    ))
                }
            }
        }
        if args.clients == 0 || args.batches == 0 {
            return Err("--clients and --batches must be positive".into());
        }
        if args.shards == 0 {
            return Err("--shards must be positive".into());
        }
        if !(args.budget_frac > 0.0 && args.budget_frac <= 1.0) {
            return Err("--budget-frac must lie in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&args.availability) {
            return Err("--availability must lie in [0, 1]".into());
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(s: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value `{s}`: {e}"))
}

/// Client `index` of the synthetic arrival stream: the Table-I-like draw,
/// with every `availability`-th client (in expectation) made intermittent.
fn arrival(spec: &PopulationSpec, seed: u64, index: usize, availability: f64) -> ClientParams {
    let profile = spec
        .draw_client(seed, index)
        .expect("spec validated at startup");
    let mut rng = substream(seed ^ 0xA7A11, index as u64);
    let availability_pattern = if (rng.random::<u64>() as f64 / u64::MAX as f64) < availability {
        AvailabilityPattern::Random {
            probability: 0.05 + 0.95 * (rng.random::<u64>() as f64 / u64::MAX as f64),
        }
    } else {
        AvailabilityPattern::AlwaysOn
    };
    ClientParams {
        data_size: profile.weight, // raw, pre-normalisation draw
        g_squared: profile.g_squared,
        cost: profile.cost,
        value: profile.value,
        q_max: profile.q_max,
        availability: availability_pattern,
    }
}

/// From-scratch reference over the mirror population; returns prices,
/// q_eff and the cold bisection iteration count.
fn reference(
    mirror: &[(ClientId, ClientParams)],
    config: &ServiceConfig,
) -> (Vec<f64>, Vec<f64>, usize) {
    let rates: Vec<f64> = mirror
        .iter()
        .map(|(_, p)| {
            if config.availability_aware {
                p.availability.availability_rate()
            } else {
                1.0
            }
        })
        .collect();
    let included: Vec<bool> = mirror
        .iter()
        .zip(&rates)
        .map(|((_, p), &r)| r > 0.0 && p.q_max * r > config.solver.q_min)
        .collect();
    let profiles: Vec<ClientProfile> = mirror
        .iter()
        .zip(&included)
        .filter(|(_, &inc)| inc)
        .map(|((_, p), _)| p.raw_profile())
        .collect();
    let population = Population::from_raw(profiles).expect("reference population");
    let cols = population.columns();
    let included_rates: Vec<f64> = rates
        .iter()
        .zip(&included)
        .filter(|(_, &inc)| inc)
        .map(|(&r, _)| r)
        .collect();
    let eff = ShardedPopulation::from(cols.effective(&included_rates).expect("effective view"));
    let (solution, diag) = solve_kkt(&KktRequest::new(
        &eff,
        &bound(),
        config.budget,
        &config.solver,
    ))
    .expect("cold reference solve");
    let n = mirror.len();
    let mut prices = vec![0.0f64; n];
    let mut q_eff = vec![0.0f64; n];
    let mut j = 0;
    for i in 0..n {
        if included[i] {
            prices[i] = solution.prices[j];
            q_eff[i] = solution.q[j];
            j += 1;
        }
    }
    (prices, q_eff, diag.bisect_iterations)
}

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).expect("bound")
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("pricing_service: {msg}");
            std::process::exit(2);
        }
    };
    let spec = PopulationSpec::table1_like();
    let mut next_index = 0usize;
    let mut draw_batch = |k: usize| -> Vec<ClientParams> {
        let batch = (next_index..next_index + k)
            .map(|i| arrival(&spec, args.seed, i, args.availability))
            .collect();
        next_index += k;
        batch
    };

    println!(
        "seeding the service with {} clients (seed {}) ...",
        args.clients, args.seed
    );
    let initial = draw_batch(args.clients);
    let mut config = ServiceConfig::new(bound(), 0.0);
    config.solver = SolverOptions::with_threads(args.threads);
    config.availability_aware = args.availability > 0.0;
    config.shards = args.shards;
    // Budget from the initial always-on population's saturation path.
    let initial_population =
        Population::from_raw(initial.iter().map(ClientParams::raw_profile).collect())
            .expect("initial population");
    config.budget = path_budget(
        &ShardedPopulation::from(&initial_population),
        &bound(),
        &config.solver,
        args.budget_frac,
    );

    let (mut service, ids) =
        PricingService::with_clients(config, initial.clone()).expect("service");
    let mut mirror: Vec<(ClientId, ClientParams)> = ids.into_iter().zip(initial).collect();
    let mut rng = substream(args.seed, 0xC4112);

    let t0 = Instant::now();
    let first = service.reprice().expect("initial solve");
    let cold_latency = t0.elapsed().as_secs_f64();
    println!(
        "initial cold solve: {:.4}s ({} bisection iterations, residual {})",
        cold_latency,
        first.bisect_iterations,
        first
            .theorem2_residual
            .map_or("n/a".into(), |r| format!("{r:.2e}"))
    );

    let mut latencies = Vec::with_capacity(args.batches);
    let mut warm_iters_total = 0usize;
    let mut warm_iters_verified = 0usize;
    let mut cold_iters_total = 0usize;
    let mut warm_evals_total = 0usize;
    let mut depth_total = 0usize;
    let mut verified_steps = 0usize;
    let mut worst_residual = first.theorem2_residual.unwrap_or(0.0);
    let mut dirty_shards_total = 0usize;
    let mut rebuilt_fraction_total = 0.0f64;
    let mut rebuilt_fraction_max = 0.0f64;

    for step in 1..=args.batches {
        // One churn batch: `batch_size` arrivals, `batch_size` departures.
        let batch = draw_batch(args.batch_size);
        let new_ids = service.add_clients(batch.clone()).expect("add");
        mirror.extend(new_ids.into_iter().zip(batch));
        let departures = args.batch_size.min(mirror.len().saturating_sub(1));
        let mut doomed = Vec::with_capacity(departures);
        for _ in 0..departures {
            let pos = (rng.random::<u64>() % mirror.len() as u64) as usize;
            doomed.push(mirror.remove(pos).0);
        }
        service.remove_clients(&doomed).expect("remove");

        let t = Instant::now();
        let report = service.reprice().expect("re-solve (asserts Theorem 2)");
        let latency = t.elapsed().as_secs_f64();
        latencies.push(latency);
        warm_iters_total += report.bisect_iterations;
        warm_evals_total += report.bisect_evaluations;
        depth_total += report.warm_start_depth;
        worst_residual = worst_residual.max(report.theorem2_residual.unwrap_or(0.0));
        dirty_shards_total += report.dirty_shards;
        let rebuilt_fraction = report.rebuilt_columns as f64 / report.clients.max(1) as f64;
        rebuilt_fraction_total += rebuilt_fraction;
        rebuilt_fraction_max = rebuilt_fraction_max.max(rebuilt_fraction);

        let verify = args.verify_every > 0 && step % args.verify_every == 0;
        if verify {
            let snapshot = service.snapshot().expect("snapshot");
            let (ref_prices, ref_q, cold_iters) = reference(&mirror, service.config());
            for (i, (a, b)) in snapshot.prices.iter().zip(&ref_prices).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step}: price[{i}] diverged from from-scratch solve: {a} vs {b}"
                );
            }
            for (i, (a, b)) in snapshot.q_eff.iter().zip(&ref_q).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step}: q_eff[{i}] diverged from from-scratch solve: {a} vs {b}"
                );
            }
            assert!(
                report.bisect_iterations <= cold_iters,
                "step {step}: warm {} > cold {cold_iters} iterations",
                report.bisect_iterations
            );
            cold_iters_total += cold_iters;
            warm_iters_verified += report.bisect_iterations;
            verified_steps += 1;
        }
        if step % 20 == 0 || step == args.batches {
            println!(
                "  step {step:>4}: {} clients, {:.4}s, warm depth {:>2}, {} iters{}",
                report.clients,
                latency,
                report.warm_start_depth,
                report.bisect_iterations,
                if verify { " [verified]" } else { "" }
            );
        }
    }

    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let max = latencies.iter().cloned().fold(0.0f64, f64::max);
    let mean_dirty_shards = dirty_shards_total as f64 / args.batches as f64;
    let mean_rebuilt_fraction = rebuilt_fraction_total / args.batches as f64;
    let mut report = String::new();
    report.push_str(&format!(
        "clients={} batches={} batch_size={} threads={} shards={} seed={} availability={} \
         budget={:.6e}\n",
        args.clients,
        args.batches,
        args.batch_size,
        args.threads,
        args.shards,
        args.seed,
        args.availability,
        service.config().budget
    ));
    report.push_str(&format!(
        "  initial cold solve: {cold_latency:.4}s ({} iterations)\n",
        first.bisect_iterations
    ));
    report.push_str(&format!(
        "  re-solve latency: mean {:.4}s  max {:.4}s  over {} steps\n",
        mean,
        max,
        latencies.len()
    ));
    report.push_str(&format!(
        "  warm starts: mean depth {:.1}, mean {:.1} iterations, mean {:.1} spend evaluations per re-solve\n",
        depth_total as f64 / args.batches as f64,
        warm_iters_total as f64 / args.batches as f64,
        warm_evals_total as f64 / args.batches as f64
    ));
    if verified_steps > 0 {
        report.push_str(&format!(
            "  verified bit-identical to from-scratch solve_kkt on {verified_steps} steps; \
             warm vs cold iterations on those steps: {warm_iters_verified} vs {cold_iters_total}\n"
        ));
    }
    report.push_str(&format!(
        "  dirty-shard rebuilds: mean {:.1} of {} shards, mean {:.1}% / max {:.1}% of columns \
         per batch\n",
        mean_dirty_shards,
        args.shards,
        100.0 * mean_rebuilt_fraction,
        100.0 * rebuilt_fraction_max
    ));
    report.push_str(&format!(
        "  worst theorem2 residual: {worst_residual:.3e} (asserted < {:.1e} every step)\n",
        service.config().residual_tolerance
    ));
    print!("{report}");

    if let Some(path) = &args.out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open report file");
        file.write_all(report.as_bytes()).expect("write report");
        println!("appended to {path}");
    }

    if let Some(path) = &args.json {
        let record = JsonRecord {
            bench: "pricing_service",
            clients: args.clients,
            batches: args.batches,
            batch_size: args.batch_size,
            threads: args.threads,
            shards: args.shards,
            seed: args.seed,
            availability: args.availability,
            budget: service.config().budget,
            cold_solve_seconds: cold_latency,
            mean_resolve_seconds: mean,
            max_resolve_seconds: max,
            mean_warm_iterations: warm_iters_total as f64 / args.batches as f64,
            mean_dirty_shards,
            mean_rebuilt_column_fraction: mean_rebuilt_fraction,
            max_rebuilt_column_fraction: rebuilt_fraction_max,
            verified_steps,
            worst_theorem2_residual: worst_residual,
        };
        let line = serde_json::to_string(&record).expect("serialize json record");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open json record file");
        writeln!(file, "{line}").expect("write json record");
        println!("appended JSON record to {path}");
    }
}
