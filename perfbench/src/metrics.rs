//! The metric contract: names, units and directions, the values computed
//! from a [`Run`], and the workload-shape guards.
//!
//! `BENCHMARK.json` lists the same names; the tests hold the two lists
//! equal.

use crate::plan::Kind;
use crate::run::{Round, Run, WireExtras};
use crate::stats::{median, percentile};
use fedfl_obs::MetricsSnapshot;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: [MetricDef; 10] = [
    def("setup_s", "s", "lower"),
    def("reprice_p50_ms", "ms", "lower"),
    def("reprice_p90_ms", "ms", "lower"),
    def("read_p50_us", "us", "lower"),
    def("read_p99_us", "us", "lower"),
    def("write_p50_us", "us", "lower"),
    def("write_p90_us", "us", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("ok_rate", "fraction", "higher"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer metrics, printed by a traced run.
pub const PER_LAYER: [MetricDef; 32] = [
    def("workload.generate_s", "s", "lower"),
    def("workload.send_lag_p99_us", "us", "lower"),
    def("service.add_clients_us_p50", "us", "lower"),
    def("service.remove_clients_us_p50", "us", "lower"),
    def("service.update_availability_us_p50", "us", "lower"),
    def("service.update_budget_us_p50", "us", "lower"),
    def("service.get_prices_us_p50", "us", "lower"),
    def("service.snapshot_ms_p50", "ms", "lower"),
    def("service.reprice_ms_p50", "ms", "lower"),
    def("service.unspanned_ms_per_reprice", "ms", "lower"),
    def("service.dirty_shard_frac", "fraction", "lower"),
    def("service.rebuilt_column_frac", "fraction", "lower"),
    def("service.warm_solve_frac", "fraction", "higher"),
    def("core.solve_ms_per_reprice", "ms", "lower"),
    def("core.bisect_iterations_per_solve", "count", "lower"),
    def("core.probe_evaluations_per_solve", "count", "lower"),
    def("core.fallback_frac", "fraction", "lower"),
    def("core.active_set.build_ms", "ms", "lower"),
    def("core.active_set.patch_ms_p50", "ms", "lower"),
    def(
        "core.active_set.segments_rebuilt_per_patch",
        "count",
        "lower",
    ),
    def("core.active_set.segment_reuse_frac", "fraction", "higher"),
    def("core.active_set.index_reuse_frac", "fraction", "higher"),
    def("net.call_us_p50", "us", "lower"),
    def("net.request_us_p50", "us", "lower"),
    def("net.wire_self_us_p50", "us", "lower"),
    def("net.reads_behind_reprice_frac", "fraction", "lower"),
    def("net.open_loop_read_p99_us", "us", "lower"),
    def("net.stale_read_p90_us", "us", "lower"),
    def("net.bytes_per_request", "bytes", "lower"),
    def("net.bytes_per_reply", "bytes", "lower"),
    def("net.error_frames", "count", "lower"),
    def("obs.trace_overhead_frac", "fraction", "lower"),
];

/// A computed metric: value plus the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The definition.
    pub def: MetricDef,
    /// The measured value.
    pub value: f64,
    /// Samples (or runs, rounds) the value summarises.
    pub samples: usize,
}

fn spans_of<'a>(rounds: impl Iterator<Item = &'a Round>, kind: Kind) -> Vec<f64> {
    rounds
        .flat_map(|r| r.spans.of(kind).iter().copied())
        .collect()
}

fn pct(samples: &[f64], p: f64, scale: f64) -> f64 {
    percentile(samples, p).map_or(0.0, |v| v / scale)
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Value> {
    let rounds: Vec<&Round> = run.untraced().collect();
    let setups = &run.setups;
    let reprices = spans_of(rounds.iter().copied(), Kind::Reprice);
    let reads = spans_of(rounds.iter().copied(), Kind::GetPrices);
    let writes: Vec<f64> = rounds.iter().flat_map(|r| r.spans.writes()).collect();
    let commands: usize = rounds.iter().map(|r| r.commands).sum();
    let replay_s: f64 = rounds.iter().map(|r| r.replay_s).sum();
    let values = [
        (median(setups).unwrap_or(0.0), setups.len()),
        (pct(&reprices, 0.50, 1e6), reprices.len()),
        (pct(&reprices, 0.90, 1e6), reprices.len()),
        (pct(&reads, 0.50, 1e3), reads.len()),
        (pct(&reads, 0.99, 1e3), reads.len()),
        (pct(&writes, 0.50, 1e3), writes.len()),
        (pct(&writes, 0.90, 1e3), writes.len()),
        (commands as f64 / replay_s.max(f64::MIN_POSITIVE), commands),
        // Every command succeeded: a failed command fails the run.
        (1.0, commands),
        (run.peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&def, (value, samples))| Value {
            def,
            value,
            samples,
        })
        .collect()
}

/// Counter and histogram lookups over a registry snapshot.
struct Registry<'a>(&'a MetricsSnapshot);

impl Registry<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.0.counter(name).unwrap_or(0) as f64
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.histogram(name).map_or(0.0, |h| h.sum as f64)
    }

    fn count(&self, name: &str) -> f64 {
        self.0.histogram(name).map_or(0.0, |h| h.count as f64)
    }

    fn p50(&self, name: &str) -> f64 {
        self.0
            .histogram(name)
            .filter(|h| !h.is_empty())
            .map_or(0.0, |h| h.quantile(0.5) as f64)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: `service.*`, `core.*` and
/// `obs.*` from the traced in-process replays, `net.*` and the open-loop
/// `workload.*` from the loopback replay. A metric of a layer the run
/// does not exercise (`net.*` without a loopback replay, the index on the
/// `exact-10k` shape) reads 0.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Value> {
    let traced: Vec<&Round> = run.rounds.iter().filter(|r| r.traced).collect();
    let reg = Registry(&run.registry);
    let net = Registry(&run.net_registry);
    let span_p50 = |kind: Kind, scale: f64| {
        let samples = spans_of(traced.iter().copied(), kind);
        (pct(&samples, 0.5, scale), samples.len())
    };

    let reprices = reg.counter("fedfl_service_reprices_total");
    let solves = reg.counter("fedfl_solver_solves_total");
    let reprice_ns = reg.sum("fedfl_service_reprice_ns");
    let solve_ns = reg.sum("fedfl_solver_solve_ns");
    let build_ns = reg.sum("fedfl_solver_index_build_ns");
    let patch_ns = reg.sum("fedfl_solver_index_patch_ns");
    let patches = reg.counter("fedfl_service_index_patches_total");
    // Segments a cold build sorts: every segment, as the setup's cold
    // build reports them.
    let cold_segments = traced
        .iter()
        .find_map(|r| r.reports.first())
        .map_or(0.0, |report| report.index_segments_rebuilt as f64);
    let patched_segments = (reg.counter("fedfl_solver_index_segments_rebuilt_total")
        - reg.counter("fedfl_solver_index_builds_total") * cold_segments)
        .max(0.0);
    let reused_segments = reg.counter("fedfl_solver_index_segments_reused_total");
    let repaired_segments = reg.counter("fedfl_solver_index_segments_repaired_total");
    let solved_clients: f64 = traced
        .iter()
        .flat_map(|r| r.reports.iter())
        .map(|report| report.clients as f64)
        .sum();

    let wire = run.loopback.as_ref().and_then(|r| r.wire.as_ref());
    let of_wire = |pick: fn(&WireExtras) -> &Vec<f64>| wire.map_or(&[][..], |w| &pick(w)[..]);
    let calls = of_wire(|w| &w.call_ns);
    let lags = of_wire(|w| &w.send_lag_ns);
    let stale = of_wire(|w| &w.stale_read_ns);
    let open_loop = of_wire(|w| &w.open_loop_ns);
    let call_p50 = pct(calls, 0.5, 1e3);
    let request_p50 = net.p50("fedfl_net_request_ns") / 1e3;
    let frames = net.counter("fedfl_net_frames_read_total");
    let replies = net.counter("fedfl_net_replies_sent_total");

    let replay_traced: Vec<f64> = traced.iter().map(|r| r.replay_s).collect();
    let replay_untraced: Vec<f64> = run.untraced().map(|r| r.replay_s).collect();
    let overhead = match (median(&replay_traced), median(&replay_untraced)) {
        (Some(t), Some(u)) if u > 0.0 => (t - u) / u,
        _ => 0.0,
    };
    let n = reprices as usize;

    let values: [(f64, usize); 32] = [
        (run.generate_s, 1),
        (pct(lags, 0.99, 1e3), lags.len()),
        span_p50(Kind::AddClients, 1e3),
        span_p50(Kind::RemoveClients, 1e3),
        span_p50(Kind::UpdateAvailability, 1e3),
        span_p50(Kind::UpdateBudget, 1e3),
        span_p50(Kind::GetPrices, 1e3),
        span_p50(Kind::Snapshot, 1e6),
        (reg.p50("fedfl_service_reprice_ns") / 1e6, n),
        (
            ratio(reprice_ns - solve_ns - build_ns - patch_ns, reprices) / 1e6,
            n,
        ),
        (
            ratio(
                reg.counter("fedfl_service_dirty_shards_total"),
                reprices * run.shards as f64,
            ),
            n,
        ),
        (
            ratio(
                reg.counter("fedfl_service_rebuilt_columns_total"),
                solved_clients,
            ),
            n,
        ),
        (
            ratio(reg.counter("fedfl_service_warm_solves_total"), reprices),
            n,
        ),
        (ratio(solve_ns, reprices) / 1e6, n),
        (
            ratio(reg.counter("fedfl_solver_bisect_iterations_total"), solves),
            solves as usize,
        ),
        (
            ratio(reg.counter("fedfl_solver_probe_evaluations_total"), solves),
            solves as usize,
        ),
        (
            ratio(
                reg.counter("fedfl_solver_fallback_solves_total"),
                reg.counter("fedfl_solver_fast_solves_total"),
            ),
            solves as usize,
        ),
        (
            ratio(build_ns, reg.count("fedfl_solver_index_build_ns")) / 1e6,
            reg.count("fedfl_solver_index_build_ns") as usize,
        ),
        (
            reg.p50("fedfl_solver_index_patch_ns") / 1e6,
            patches as usize,
        ),
        (ratio(patched_segments, patches), patches as usize),
        (
            ratio(
                reused_segments,
                reused_segments + patched_segments + repaired_segments,
            ),
            patches as usize,
        ),
        (
            ratio(reg.counter("fedfl_service_index_reuses_total"), reprices),
            n,
        ),
        (call_p50, calls.len()),
        (request_p50, net.count("fedfl_net_request_ns") as usize),
        (call_p50 - request_p50, calls.len()),
        (
            ratio(stale.len() as f64, open_loop.len() as f64),
            open_loop.len(),
        ),
        (pct(open_loop, 0.99, 1e3), open_loop.len()),
        (pct(stale, 0.90, 1e3), stale.len()),
        (
            ratio(net.counter("fedfl_net_bytes_read_total"), frames),
            frames as usize,
        ),
        (
            ratio(net.counter("fedfl_net_bytes_written_total"), replies),
            replies as usize,
        ),
        (net.counter("fedfl_net_error_frames_total"), frames as usize),
        (overhead, replay_traced.len()),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&def, (value, samples))| Value {
            def,
            value,
            samples,
        })
        .collect()
}

/// The workload-shape guards: a run whose shape drifted is not the
/// measurement its name promises.
///
/// # Errors
///
/// Returns the violated guard.
pub fn guards(run: &Run) -> Result<(), String> {
    let replay_reports = || run.rounds.iter().flat_map(|r| r.reports.iter().skip(1));
    let mean_dirty = || {
        let (sum, n) = replay_reports().fold((0.0, 0usize), |(sum, n), report| {
            (
                sum + report.dirty_shards as f64 / report.shard_count.max(1) as f64,
                n + 1,
            )
        });
        ratio(sum, n as f64)
    };
    let fallbacks = run
        .registry
        .counter("fedfl_solver_fallback_solves_total")
        .unwrap_or(0);
    // Solver modes are checked per reprice inside each round.
    if fallbacks != 0 {
        return Err(format!("{fallbacks} fast-path fallbacks"));
    }
    let dirty = mean_dirty();
    if run.workload == "fast-dense-100k" && dirty < 0.8 {
        return Err(format!("mean dirty-shard fraction {dirty:.3} < 0.8"));
    }
    if run.workload == "fast-sparse-100k" {
        if dirty > 0.1 {
            return Err(format!("mean dirty-shard fraction {dirty:.3} > 0.1"));
        }
        let reuses = replay_reports()
            .filter(|r| r.index_rebuild_ns == 0 && r.index_segments_rebuilt == 0)
            .count();
        if reuses == 0 {
            return Err("no reprice reused the cached index".into());
        }
    }
    if let Some(wire) = run.loopback.as_ref().and_then(|r| r.wire.as_ref()) {
        let frames = run
            .net_registry
            .counter("fedfl_net_error_frames_total")
            .unwrap_or(0);
        if frames != 0 {
            return Err(format!("{frames} error frames"));
        }
        let lag_p99 = pct(&wire.send_lag_ns, 0.99, 1e3);
        let read_p99 = pct(&wire.open_loop_ns, 0.99, 1e3);
        if lag_p99 > 0.5 * read_p99 {
            return Err(format!(
                "reader send lag p99 {lag_p99:.1} us is not well below the open-loop \
                 read p99 {read_p99:.1} us: the load generator, not the server, set the tail"
            ));
        }
    }
    Ok(())
}
