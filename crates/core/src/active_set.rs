//! Threshold-indexed active sets: sub-linear λ-probes for the Stage-I
//! solver, with incremental segment rebuilds under churn.
//!
//! Every probe of the budget bisection in [`crate::server`] evaluates the
//! path spend `Σ_n P(q_n(t))·q_n(t)` — an O(N) sweep. But the KKT path is
//! piecewise in `t = 1/λ`: client `n` sits at the floor `q_min` until the
//! closed-form **entry threshold**
//!
//! ```text
//! t_entry,n = v_n + c_n·q_min³ / ((α/4R)·a_n²G_n²)
//! ```
//!
//! and at its cap `q_max,n` from the **saturation threshold**
//!
//! ```text
//! t_sat,n = v_n + c_n·q_max,n³ / ((α/4R)·a_n²G_n²)
//! ```
//!
//! (the same expression [`crate::server`]'s `saturation_t` maximises).
//! Sorting clients by each threshold — O(N log N) per cold build — and
//! holding prefix sums of the per-client spend constants and interior
//! moments in threshold order turns each probe into binary searches plus
//! an O(1) closed-form evaluation:
//!
//! * floored clients (`t <= t_entry`) contribute the constant
//!   `2c·q_min² − v·(α/R)·a²G²/q_min` — a suffix sum in entry order;
//! * saturated clients (`t_sat < t`) contribute the constant
//!   `2c·q_max² − v·(α/R)·a²G²/q_max` — a prefix sum in saturation order;
//! * interior clients contribute `A_n(t−v_n)^{2/3} − D_n(t−v_n)^{−1/3}`
//!   with `A_n = 2c_n^{1/3}((α/4R)a_n²G_n²)^{2/3}` and
//!   `D_n = v_n(α/R)a_n²G_n²·(c_n/((α/4R)a_n²G_n²))^{1/3}`. That term is
//!   not separable in `(n, t)` for heterogeneous values, so the index
//!   evaluates a third-order binomial expansion in `v_n/t` — **exact**
//!   for zero-value clients and relatively off by `O((v/t)⁴)` otherwise —
//!   from eight moment prefix sums (`A`, `Av`, `Av²`, `Av³`, `D`, `Dv`,
//!   `Dv²`, `Dv³`) held in *both* threshold orders.
//!
//! # Two-level segmented layout
//!
//! The index is a list of [`IndexSegment`]s — each one sorted threshold
//! run (entry and saturation order) with its own prefix-summed spend
//! constants and interior moments — walked in a fixed segment order by
//! every probe: per segment a boundary check (the "directory scan":
//! first/last threshold short-circuit all-floored / all-saturated
//! segments), an in-segment binary search otherwise, and one closed-form
//! interior evaluation over the accumulated moments at the end.
//!
//! Segments are keyed: [`ActiveSetIndex::build_keyed`] buckets clients by
//! a caller-chosen stable key, preserving global insertion order within
//! each bucket, and the partition depends on the keys alone — never on
//! how the caller shards or threads. Two key choices are in use:
//!
//! * **Chunk keys** ([`chunk_keys`]): row `i` keys on `i / DEFAULT_CHUNK`,
//!   the chunk grid of `fedfl_num::parallel`. Solver shards are
//!   chunk-aligned contiguous partitions, so the segment list is a pure
//!   function of the concatenated columns — the standalone index a
//!   one-off fast solve or a bench builds.
//! * **Id-block keys** (the pricing service, aligned with its store
//!   shards): a churn batch that only touches some buckets re-sorts
//!   **only those segments** — [`ActiveSetIndex::patch`] rebuilds dirty
//!   segments in O(dirty·(N/S)·log(N/S)) sort work and revalidates clean
//!   ones in O(N/S) each, producing an index **bit-identical** to a cold
//!   [`ActiveSetIndex::build_keyed`] over the same rows.
//!
//! # Scale factorisation (why patching survives weight renormalisation)
//!
//! The normalised `a²G² = (w/W)²·G²` column depends on the global raw
//! weight total `W`, so *any* churn moves *every* threshold — fatal for
//! segment reuse if thresholds were stored. Segments therefore store
//! only **scale-free unit values** derived from the caller's `w²G²`
//! column (raw `w_raw²·G²` in the service, the normalised column with
//! `scale = 1` standalone), and the index evaluates thresholds on the
//! fly at its current `scale = σ` (the service passes `σ = W²`):
//!
//! ```text
//! t_entry = v + σ·e      e = c·q_min³/((α/4R)·w²G²)
//! t_sat   = max(v + σ·f, t_entry)
//! floor   = F0 − F1/σ    F0 = 2c·q_min²,  F1 = v·(α/R)·w²G²/q_min
//! sat     = S0 − S1/σ    (q_max analogues)
//! A, D    = A0·σ^{−2/3}, D0·σ^{−2/3}
//! ```
//!
//! so every prefix array is σ-independent and the σ corrections apply
//! once per probe. A weight drift can still *reorder* thresholds inside
//! a clean segment (keys are `v + σ·e`, and lines cross); the patch
//! validates each clean segment's stored permutation is still *the*
//! stable argsort at the new σ (an O(len) adjacent scan — sorted keys
//! with ties in ascending insertion order characterise the stable
//! argsort uniquely) and re-sorts the rare violators ("repaired"), so
//! reuse never costs bit-identity.
//!
//! The evaluation is a **model**, not the exact chunked reduction: its
//! summation order differs from the exact solver's fixed chunk tree and
//! its interior term truncates the value series, so it can never be
//! bit-pinned to the goldens. [`crate::server::solve_kkt`] therefore
//! treats an index it is handed as a probe accelerator only: the root it
//! finds is certified against *exact* spend probes and the Theorem-2
//! residual, and violations fall back to the exact solver.

use crate::population::PopulationColumns;
use fedfl_num::parallel::{resolve_threads, DEFAULT_CHUNK};
use fedfl_num::prefix::{exclusive_prefix_sums, gather, sort_permutation};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Interior moment columns: `A`, `Av`, `Av²`, `Av³`, `D`, `Dv`, `Dv²`,
/// `Dv³`.
const MOMENTS: usize = 8;

/// Chunk keys for [`ActiveSetIndex::build_keyed`]: row `i` keys on
/// `i / DEFAULT_CHUNK`, returned with the segment count that covers them
/// (at least 1). Built over normalised columns at `scale = 1`, the index
/// splits on the chunked reductions' grid, so it is the same for any
/// shard or thread count of the population it models.
pub fn chunk_keys(len: usize) -> (Vec<u32>, usize) {
    let keys = (0..len).map(|i| (i / DEFAULT_CHUNK) as u32).collect();
    (keys, len.div_ceil(DEFAULT_CHUNK).max(1))
}

/// Borrowed scale-free index inputs: the `w²G²` column (raw
/// `w_raw²·G²` when probing at `scale = W²`, the normalised `a²G²`
/// column at `scale = 1`), effective costs, values, and caps.
#[derive(Debug, Clone, Copy)]
pub struct IndexColumns<'a> {
    /// Squared-weight gradient column (see above for the scale contract).
    pub w2g2: &'a [f64],
    /// Effective per-client costs.
    pub cost: &'a [f64],
    /// Per-client values.
    pub value: &'a [f64],
    /// Effective participation caps.
    pub q_max: &'a [f64],
}

impl<'a> IndexColumns<'a> {
    /// View normalised population columns as unit inputs (`scale = 1`).
    pub fn from_population(cols: &'a PopulationColumns) -> Self {
        IndexColumns {
            w2g2: &cols.a2g2,
            cost: &cols.cost,
            value: &cols.value,
            q_max: &cols.q_max,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.w2g2.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.w2g2.is_empty()
    }
}

/// Accounting of one [`ActiveSetIndex::patch`]: how each segment was
/// produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Segments re-sorted because their rows were dirty.
    pub rebuilt: usize,
    /// Clean segments re-sorted because the scale drift reordered their
    /// thresholds (the order-validation scan failed).
    pub repaired: usize,
    /// Clean segments reused verbatim (validation passed — zero sort
    /// work).
    pub reused: usize,
}

/// One sorted view of a segment: the stable argsort permutation of an
/// on-the-fly-evaluated threshold key, with exclusive prefix sums of the
/// spend constants and interior moments gathered in that order.
#[derive(Debug, Clone, PartialEq)]
struct SortedView {
    /// Sorted slot → row index within the segment (insertion order).
    perm: Vec<u32>,
    /// Prefix sums of the σ-free spend constant (`F0` / `S0`).
    c0_prefix: Vec<f64>,
    /// Prefix sums of the `/σ` spend constant (`F1` / `S1`).
    c1_prefix: Vec<f64>,
    /// Prefix sums of the unit interior moments.
    moment_prefix: [Vec<f64>; MOMENTS],
}

impl SortedView {
    fn build(keys: &[f64], c0: &[f64], c1: &[f64], moments: &[Vec<f64>; MOMENTS]) -> Self {
        let perm = sort_permutation(keys);
        SortedView {
            c0_prefix: exclusive_prefix_sums(&gather(c0, &perm)),
            c1_prefix: exclusive_prefix_sums(&gather(c1, &perm)),
            moment_prefix: std::array::from_fn(|k| {
                exclusive_prefix_sums(&gather(&moments[k], &perm))
            }),
            perm,
        }
    }

    /// Whether `perm` is still *the* stable argsort of the evaluated key
    /// (non-decreasing under `total_cmp`, ties in ascending row order,
    /// every key finite). Passing proves a cold rebuild at the current
    /// scale would reproduce this view bit for bit.
    fn is_stable_sorted(&self, eval: impl Fn(usize) -> f64) -> bool {
        let mut prev: Option<(f64, u32)> = None;
        for &row in &self.perm {
            let key = eval(row as usize);
            if !key.is_finite() {
                return false;
            }
            if let Some((prev_key, prev_row)) = prev {
                match prev_key.total_cmp(&key) {
                    Ordering::Less => {}
                    Ordering::Equal if prev_row < row => {}
                    _ => return false,
                }
            }
            prev = Some((key, row));
        }
        true
    }
}

/// Scale-free per-row unit values of one segment, in segment insertion
/// order (a stable subsequence of the global client order).
#[derive(Debug, Clone, PartialEq, Default)]
struct UnitColumns {
    v: Vec<f64>,
    e: Vec<f64>,
    f: Vec<f64>,
    f0: Vec<f64>,
    f1: Vec<f64>,
    s0: Vec<f64>,
    s1: Vec<f64>,
    moments: [Vec<f64>; MOMENTS],
    finite: bool,
}

impl UnitColumns {
    fn with_capacity(n: usize) -> Self {
        UnitColumns {
            v: Vec::with_capacity(n),
            e: Vec::with_capacity(n),
            f: Vec::with_capacity(n),
            f0: Vec::with_capacity(n),
            f1: Vec::with_capacity(n),
            s0: Vec::with_capacity(n),
            s1: Vec::with_capacity(n),
            moments: std::array::from_fn(|_| Vec::with_capacity(n)),
            finite: true,
        }
    }

    /// Derive one row's unit values. Columns are assumed already
    /// validated by the solver entry points (positive `w²G²`/`cost`,
    /// `q_max > q_min`); degenerate floating values don't panic — they
    /// mark the segment non-finite, which makes the fast solver fall
    /// back to the exact path.
    fn push_row(&mut self, cols: &IndexColumns<'_>, i: usize, aor: f64, q_min: f64) {
        let w2g2 = cols.w2g2[i];
        let cost = cols.cost[i];
        let value = cols.value[i];
        let q_max = cols.q_max[i];
        let ka = (aor / 4.0) * w2g2;
        let e = cost * q_min.powi(3) / ka;
        let f = cost * q_max.powi(3) / ka;
        let f0 = 2.0 * cost * q_min * q_min;
        let f1 = value * aor * w2g2 / q_min;
        let s0 = 2.0 * cost * q_max * q_max;
        let s1 = value * aor * w2g2 / q_max;
        let a0 = 2.0 * cost.cbrt() * (ka * ka).cbrt();
        let d0 = value * aor * w2g2 * (cost / ka).cbrt();
        let moments = [
            a0,
            a0 * value,
            a0 * value * value,
            a0 * value * value * value,
            d0,
            d0 * value,
            d0 * value * value,
            d0 * value * value * value,
        ];
        self.finite = self.finite
            && e.is_finite()
            && f.is_finite()
            && f0.is_finite()
            && f1.is_finite()
            && s0.is_finite()
            && s1.is_finite()
            && moments.iter().all(|m| m.is_finite());
        self.v.push(value);
        self.e.push(e);
        self.f.push(f);
        self.f0.push(f0);
        self.f1.push(f1);
        self.s0.push(s0);
        self.s1.push(s1);
        for (k, m) in moments.into_iter().enumerate() {
            self.moments[k].push(m);
        }
    }
}

/// The entry threshold `v + σ·e`, evaluated on the fly so stored segment
/// data stays σ-free. `σ = 1` makes the multiply bit-neutral.
#[inline]
fn entry_key(v: f64, e: f64, scale: f64) -> f64 {
    v + scale * e
}

/// The saturation threshold `max(v + σ·f, t_entry)`. `q_max > q_min`
/// makes it exceed the entry threshold analytically, but a
/// value-dominated sum can round them equal; the max keeps the invariant
/// `t_entry <= t_sat` the lookup relies on.
#[inline]
fn sat_key(v: f64, e: f64, f: f64, scale: f64) -> f64 {
    (v + scale * f).max(entry_key(v, e, scale))
}

/// One segment of the two-level index: scale-free unit rows plus both
/// threshold-sorted prefix views. Shared by `Arc` so a patch reuses
/// clean segments without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSegment {
    len: usize,
    unit: UnitColumns,
    entry: SortedView,
    sat: SortedView,
    /// Unit values *and* the evaluated keys at the build scale are
    /// finite. Clean-segment reuse re-proves key finiteness at the new
    /// scale through the validation scan.
    finite: bool,
}

impl IndexSegment {
    fn from_unit(unit: UnitColumns, scale: f64) -> Self {
        let n = unit.v.len();
        let mut entry_keys = Vec::with_capacity(n);
        let mut sat_keys = Vec::with_capacity(n);
        let mut finite = unit.finite;
        for i in 0..n {
            let ek = entry_key(unit.v[i], unit.e[i], scale);
            let sk = sat_key(unit.v[i], unit.e[i], unit.f[i], scale);
            finite = finite && ek.is_finite() && sk.is_finite();
            entry_keys.push(ek);
            sat_keys.push(sk);
        }
        let entry = SortedView::build(&entry_keys, &unit.f0, &unit.f1, &unit.moments);
        let sat = SortedView::build(&sat_keys, &unit.s0, &unit.s1, &unit.moments);
        IndexSegment {
            len: n,
            unit,
            entry,
            sat,
            finite,
        }
    }

    /// Build from an explicit member list in ascending row order.
    fn build_members(
        cols: &IndexColumns<'_>,
        members: &[u32],
        aor: f64,
        q_min: f64,
        scale: f64,
    ) -> Self {
        let mut unit = UnitColumns::with_capacity(members.len());
        for &i in members {
            unit.push_row(cols, i as usize, aor, q_min);
        }
        Self::from_unit(unit, scale)
    }

    /// Re-sort the stored unit rows at a new scale (the "repair" path —
    /// same rows, drifted threshold order).
    fn resorted(&self, scale: f64) -> Self {
        Self::from_unit(self.unit.clone(), scale)
    }

    /// Whether both stored sort orders are still the stable argsorts of
    /// the on-the-fly keys at `scale` — the clean-segment reuse proof.
    fn is_sorted_at(&self, scale: f64) -> bool {
        let unit = &self.unit;
        self.entry
            .is_stable_sorted(|i| entry_key(unit.v[i], unit.e[i], scale))
            && self
                .sat
                .is_stable_sorted(|i| sat_key(unit.v[i], unit.e[i], unit.f[i], scale))
    }

    /// Number of clients in the segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no clients.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Count of rows with entry threshold strictly below `t` at `scale`
    /// (`total_cmp` semantics, matching `fedfl_num::prefix::count_below`).
    /// First/last boundary checks short-circuit all-floored and
    /// all-past-entry segments — the directory half of a probe.
    fn count_entry_below(&self, t: f64, scale: f64) -> usize {
        let unit = &self.unit;
        self.count_below(&self.entry, t, |i| entry_key(unit.v[i], unit.e[i], scale))
    }

    /// Count of rows with saturation threshold strictly below `t`.
    fn count_sat_below(&self, t: f64, scale: f64) -> usize {
        let unit = &self.unit;
        self.count_below(&self.sat, t, |i| {
            sat_key(unit.v[i], unit.e[i], unit.f[i], scale)
        })
    }

    fn count_below(&self, view: &SortedView, t: f64, eval: impl Fn(usize) -> f64) -> usize {
        let below = |slot: usize| eval(view.perm[slot] as usize).total_cmp(&t) == Ordering::Less;
        if self.len == 0 || !below(0) {
            return 0;
        }
        if below(self.len - 1) {
            return self.len;
        }
        view.perm
            .partition_point(|&row| eval(row as usize).total_cmp(&t) == Ordering::Less)
    }

    /// Largest evaluated saturation threshold (`None` when empty).
    fn top_sat_key(&self, scale: f64) -> Option<f64> {
        let slot = self.len.checked_sub(1)?;
        let i = self.sat.perm[slot] as usize;
        Some(sat_key(
            self.unit.v[i],
            self.unit.e[i],
            self.unit.f[i],
            scale,
        ))
    }
}

/// The segmented, prefix-summed threshold index over a whole population
/// — the structure every fast λ-probe walks.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSetIndex {
    len: usize,
    aor: f64,
    q_min: f64,
    /// The scale σ thresholds are evaluated at (`W²` in the service,
    /// `1` standalone).
    scale: f64,
    inv_scale: f64,
    inv_scale23: f64,
    segments: Vec<Arc<IndexSegment>>,
    finite: bool,
}

impl ActiveSetIndex {
    fn assemble(segments: Vec<Arc<IndexSegment>>, aor: f64, q_min: f64, scale: f64) -> Self {
        let len = segments.iter().map(|s| s.len).sum();
        let scale_ok = scale.is_finite() && scale > 0.0;
        let finite = scale_ok && segments.iter().all(|s| s.finite);
        let cbrt = scale.cbrt();
        ActiveSetIndex {
            len,
            aor,
            q_min,
            scale,
            inv_scale: 1.0 / scale,
            inv_scale23: 1.0 / (cbrt * cbrt),
            segments,
            finite,
        }
    }

    /// Build a keyed index: row `i` lands in segment
    /// `seg_keys[i] % segment_count`, keeping ascending row order within
    /// each segment. The partition depends only on the keys — never on
    /// how the caller shards or threads — and [`Self::patch`] can later
    /// rebuild any key subset incrementally.
    ///
    /// `scale` is the σ thresholds are evaluated at (pass the squared
    /// raw-weight total with a raw `w²G²` column, or `1.0` with
    /// normalised columns). Segment builds run on `n_threads` workers
    /// (`0` = one per core); the segment order is fixed, so the result is
    /// thread-count independent.
    ///
    /// # Panics
    ///
    /// Panics if `seg_keys.len()` differs from the column length or
    /// `segment_count` is zero.
    pub fn build_keyed(
        cols: &IndexColumns<'_>,
        seg_keys: &[u32],
        segment_count: usize,
        aor: f64,
        q_min: f64,
        scale: f64,
        n_threads: usize,
    ) -> Self {
        assert_eq!(seg_keys.len(), cols.len(), "one segment key per row");
        assert!(segment_count > 0, "segment_count must be positive");
        let members = bucket_members(seg_keys, segment_count);
        let segments = run_tasks(segment_count, n_threads, |k| {
            Arc::new(IndexSegment::build_members(
                cols,
                &members[k],
                aor,
                q_min,
                scale,
            ))
        });
        Self::assemble(segments, aor, q_min, scale)
    }

    /// Incrementally rebuild a keyed index after churn: segments flagged
    /// in `dirty` are re-sorted from the current rows; clean segments
    /// are revalidated at the new `scale` and reused (or re-sorted when
    /// scale drift reordered their thresholds). The result is
    /// **bit-identical** to [`Self::build_keyed`] over the same inputs.
    ///
    /// Contract (the caller's dirty tracking must guarantee it): a clean
    /// segment's member rows — values, order, and membership — are
    /// unchanged since this index was built. The service derives this
    /// from its per-shard store version counters; flagging a segment
    /// dirty is always safe, missing one is not.
    ///
    /// Sort work is O(Σ_dirty len·log len) instead of the cold build's
    /// O(N log N); clean segments cost one O(len) validation scan.
    ///
    /// # Panics
    ///
    /// Panics if `seg_keys.len()` differs from the column length or
    /// `dirty.len()` from the segment count.
    pub fn patch(
        &self,
        cols: &IndexColumns<'_>,
        seg_keys: &[u32],
        dirty: &[bool],
        scale: f64,
        n_threads: usize,
    ) -> (Self, PatchStats) {
        assert_eq!(seg_keys.len(), cols.len(), "one segment key per row");
        assert_eq!(
            dirty.len(),
            self.segment_count(),
            "one dirty flag per segment"
        );
        let segment_count = dirty.len();
        let members = bucket_members(seg_keys, segment_count);
        // 0 = reused, 1 = repaired, 2 = rebuilt — per-segment outcome.
        let outcomes: Vec<(Arc<IndexSegment>, u8)> = run_tasks(segment_count, n_threads, |k| {
            if dirty[k] {
                let segment =
                    IndexSegment::build_members(cols, &members[k], self.aor, self.q_min, scale);
                (Arc::new(segment), 2)
            } else if self.segments[k].is_sorted_at(scale) {
                (Arc::clone(&self.segments[k]), 0)
            } else {
                (Arc::new(self.segments[k].resorted(scale)), 1)
            }
        });
        let mut stats = PatchStats::default();
        let mut segments = Vec::with_capacity(segment_count);
        for (segment, outcome) in outcomes {
            match outcome {
                0 => stats.reused += 1,
                1 => stats.repaired += 1,
                _ => stats.rebuilt += 1,
            }
            segments.push(segment);
        }
        (Self::assemble(segments, self.aor, self.q_min, scale), stats)
    }

    /// Number of indexed clients.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index covers no clients.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (empty ones included).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The `α/R` the index was built at (fast solves must match it).
    pub fn aor(&self) -> f64 {
        self.aor
    }

    /// The participation floor the index was built at.
    pub fn q_min(&self) -> f64 {
        self.q_min
    }

    /// The scale σ probes currently evaluate thresholds at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Whether some unit value or evaluated threshold overflowed f64. A
    /// degenerate index cannot model spends; the fast solver falls back
    /// to the exact path immediately.
    pub fn is_degenerate(&self) -> bool {
        !self.finite
    }

    /// A path parameter strictly above every saturation threshold — the
    /// upper bisection bracket, mirroring the exact solver's
    /// `saturation_t` epsilon inflation.
    pub fn bracket_hi(&self) -> f64 {
        let top = self
            .segments
            .iter()
            .filter_map(|s| s.top_sat_key(self.scale))
            .fold(f64::NEG_INFINITY, f64::max);
        let top = if top.is_finite() { top } else { 0.0 };
        top.max(0.0) * (1.0 + 1e-12) + 1e-12
    }

    /// Total spend with every client at its cap — exact up to the split
    /// `S0 − S1/σ` summation (one prefix-sum read per segment), used for
    /// the O(1) saturation check.
    pub fn saturated_spend(&self) -> f64 {
        let mut s0 = 0.0f64;
        let mut s1 = 0.0f64;
        for seg in &self.segments {
            s0 += seg.sat.c0_prefix[seg.len];
            s1 += seg.sat.c1_prefix[seg.len];
        }
        s0 - s1 * self.inv_scale
    }

    /// Total spend with every client at the floor (the `t <= 0` limit).
    pub fn floor_spend(&self) -> f64 {
        let mut f0 = 0.0f64;
        let mut f1 = 0.0f64;
        for seg in &self.segments {
            f0 += seg.entry.c0_prefix[seg.len];
            f1 += seg.entry.c1_prefix[seg.len];
        }
        f0 - f1 * self.inv_scale
    }

    /// The modelled path spend at `t` — the sub-linear λ-probe.
    ///
    /// Walks the segment directory in fixed order; per segment the
    /// boundary checks classify all-floored/all-saturated segments with
    /// two key evaluations, otherwise binary searches split the segment
    /// into floored / interior / saturated ranges. Spend constants and
    /// interior moments accumulate across segments in directory order
    /// (deterministic — the segment partition never depends on shard or
    /// thread counts), and the closed-form interior series plus the σ
    /// corrections apply once at the end.
    pub fn spend(&self, t: f64) -> f64 {
        let scale = self.scale;
        let mut floored0 = 0.0f64;
        let mut floored1 = 0.0f64;
        let mut sat0 = 0.0f64;
        let mut sat1 = 0.0f64;
        let mut m = [0.0f64; MOMENTS];
        let mut any_interior = false;
        for seg in &self.segments {
            if seg.len == 0 {
                continue;
            }
            let past_entry = seg.count_entry_below(t, scale);
            let saturated = seg.count_sat_below(t, scale);
            floored0 += seg.entry.c0_prefix[seg.len] - seg.entry.c0_prefix[past_entry];
            floored1 += seg.entry.c1_prefix[seg.len] - seg.entry.c1_prefix[past_entry];
            sat0 += seg.sat.c0_prefix[saturated];
            sat1 += seg.sat.c1_prefix[saturated];
            if past_entry > saturated {
                any_interior = true;
                for (k, slot) in m.iter_mut().enumerate() {
                    *slot += seg.entry.moment_prefix[k][past_entry]
                        - seg.sat.moment_prefix[k][saturated];
                }
            }
        }
        let floored = floored0 - floored1 * self.inv_scale;
        let saturated_spend = sat0 - sat1 * self.inv_scale;
        let interior = if any_interior {
            // Interior clients exist only for t above some positive
            // entry threshold, so t > 0 and the series in v/t is sound.
            let u = t.cbrt();
            let inv = 1.0 / t;
            // (1 − v/t)^{2/3}  ≈ 1 − (2/3)x − (1/9)x² − (4/81)x³
            // (1 − v/t)^{−1/3} ≈ 1 + (1/3)x + (2/9)x² + (14/81)x³
            let a_series = m[0]
                - inv
                    * (m[1] * (2.0 / 3.0) + inv * (m[2] * (1.0 / 9.0) + inv * m[3] * (4.0 / 81.0)));
            let d_series = m[4]
                + inv
                    * (m[5] * (1.0 / 3.0)
                        + inv * (m[6] * (2.0 / 9.0) + inv * m[7] * (14.0 / 81.0)));
            ((u * u) * a_series - d_series / u) * self.inv_scale23
        } else {
            0.0
        };
        floored + saturated_spend + interior
    }

    /// Modelled [`crate::server::path_budget`]: the spend at
    /// `frac · bracket_hi()`. Same certification caveat as
    /// [`Self::spend`].
    pub fn path_budget(&self, frac: f64) -> f64 {
        self.spend(frac.clamp(0.0, 1.0) * self.bracket_hi())
    }

    /// Cost of one modelled probe in per-client spend-evaluation units:
    /// two binary searches per non-empty segment
    /// (`2·⌈log₂(len+1)⌉` each) plus the O(1) closed form. The
    /// `probe_evaluations` diagnostics count fast probes at this cost,
    /// making them directly comparable with the exact solver's
    /// N-per-probe sweeps.
    pub fn probe_cost(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| 2 * u64::from(u64::BITS - (s.len as u64).leading_zeros()))
            .sum::<u64>()
            + 1
    }
}

/// Bucket rows by `key % segment_count`, preserving ascending row order
/// within each bucket (the stable-subsequence contract segments rely
/// on).
fn bucket_members(seg_keys: &[u32], segment_count: usize) -> Vec<Vec<u32>> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); segment_count];
    for (i, &key) in seg_keys.iter().enumerate() {
        members[key as usize % segment_count].push(i as u32);
    }
    members
}

/// Deterministic parallel task fill: `build(i)` for `i in 0..count`,
/// results in task order, workers pulling from an atomic counter (the
/// same crew pattern as the sharded solvers — output is independent of
/// the worker count).
fn run_tasks<T: Send>(count: usize, n_threads: usize, build: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = resolve_threads(n_threads).min(count).max(1);
    if workers <= 1 {
        return (0..count).map(build).collect();
    }
    let next = AtomicUsize::new(0);
    let built: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let build = &build;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, build(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index task panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in built.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundParams;
    use crate::population::{ParamDist, Population, PopulationSpec, Q_MIN};
    use crate::shard::ShardedPopulation;

    /// The chunk-keyed index of normalised columns.
    fn chunk_index(cols: &PopulationColumns, n_threads: usize) -> ActiveSetIndex {
        let (keys, segments) = chunk_keys(cols.len());
        ActiveSetIndex::build_keyed(
            &IndexColumns::from_population(cols),
            &keys,
            segments,
            aor(),
            Q_MIN,
            1.0,
            n_threads,
        )
    }

    fn aor() -> f64 {
        BoundParams::new(4_000.0, 100.0, 1_000)
            .unwrap()
            .alpha_over_r()
    }

    /// The exact per-client path spend the index models.
    fn naive_spend(cols: &PopulationColumns, aor: f64, q_min: f64, t: f64) -> f64 {
        let coef = aor / 4.0;
        (0..cols.len())
            .map(|i| {
                let slack = (t - cols.value[i]).max(0.0);
                let q = (coef * cols.a2g2[i] * slack / cols.cost[i])
                    .cbrt()
                    .clamp(q_min, cols.q_max[i]);
                2.0 * cols.cost[i] * q * q - cols.value[i] * aor * cols.a2g2[i] / q
            })
            .sum()
    }

    #[test]
    fn model_is_near_exact_for_zero_value_populations() {
        // With v = 0 the interior series truncates nothing: the model
        // differs from the exact sweep only by summation order.
        let spec = PopulationSpec {
            value: ParamDist::Constant(0.0),
            ..PopulationSpec::table1_like()
        };
        let p = Population::synthesize(700, &spec, 3).unwrap();
        let cols = p.columns();
        let index = chunk_index(&cols, 1);
        assert!(!index.is_degenerate());
        let hi = index.bracket_hi();
        for frac in [0.0, 1e-6, 0.01, 0.3, 0.7, 0.999, 1.0, 1.5] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            let scale = exact.abs().max(1.0);
            assert!(
                (model - exact).abs() <= 1e-9 * scale,
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
        assert!(
            (index.floor_spend() - naive_spend(&cols, aor(), Q_MIN, 0.0)).abs()
                <= 1e-9 * index.floor_spend().abs().max(1.0)
        );
        assert!(
            (index.saturated_spend() - naive_spend(&cols, aor(), Q_MIN, hi)).abs()
                <= 1e-9 * index.saturated_spend().abs().max(1.0)
        );
    }

    #[test]
    fn model_tracks_exact_spend_for_valued_populations() {
        // Heterogeneous values exercise the truncated series; at the
        // equilibrium scales of table1-like populations (t far above v)
        // the relative error is far below the certification band.
        let p = Population::synthesize(500, &PopulationSpec::table1_like(), 11).unwrap();
        let cols = p.columns();
        let index = chunk_index(&cols, 1);
        let hi = index.bracket_hi();
        for frac in [0.05, 0.2, 0.5, 0.9] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            assert!(
                (model - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
    }

    #[test]
    fn chunk_keyed_builds_are_shard_and_thread_invariant() {
        // The index of an N-shard population, built over its shards'
        // concatenation with chunk keys, equals the one-shard build
        // segment for segment — one segment per chunk of the global
        // order — and probes it bit for bit.
        let spec = PopulationSpec::table1_like();
        let chunk = DEFAULT_CHUNK;
        for n in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17] {
            let flat = chunk_index(&Population::synthesize(n, &spec, 7).unwrap().columns(), 1);
            let lens: Vec<usize> = flat.segments.iter().map(|s| s.len()).collect();
            let grid: Vec<usize> = (0..n.div_ceil(chunk))
                .map(|k| chunk.min(n - k * chunk))
                .collect();
            assert_eq!(lens, grid, "n {n}: segments off the chunk grid");
            let hi = flat.bracket_hi();
            for shard_count in [1, 2, 7] {
                let sharded = ShardedPopulation::synthesize(n, &spec, 7, shard_count).unwrap();
                for threads in [1, 3] {
                    let index = chunk_index(&sharded.concat(), threads);
                    assert_eq!(
                        index.segments, flat.segments,
                        "n {n} shards {shard_count} threads {threads}"
                    );
                    for k in 0..=16 {
                        let t = hi * f64::from(k) / 16.0;
                        assert_eq!(
                            index.spend(t).to_bits(),
                            flat.spend(t).to_bits(),
                            "n {n} shards {shard_count} threads {threads} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_build_is_bit_identical_to_flat() {
        // Any chunk-aligned sharding, concatenated back into the global
        // order, builds the flat population's index on any thread count.
        let n = DEFAULT_CHUNK + 997;
        let p = Population::synthesize(n, &PopulationSpec::table1_like(), 7).unwrap();
        let cols = p.columns();
        let flat = chunk_index(&cols, 1);
        assert_eq!(flat.segment_count(), 2, "chunk keys split at DEFAULT_CHUNK");
        for shard_count in [1usize, 2, 7, 32] {
            let sharded = ShardedPopulation::from_columns(&cols, shard_count).unwrap();
            for threads in [1usize, 3] {
                let index = chunk_index(&sharded.concat(), threads);
                assert_eq!(
                    index, flat,
                    "index diverged at shard_count {shard_count} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn single_bucket_keyed_index_probes_like_the_flat_grid() {
        // Below one chunk, a single keyed bucket at scale 1 holds the
        // same rows in the same order as the chunk-keyed build, so every
        // probe agrees bit for bit.
        let p = Population::synthesize(900, &PopulationSpec::table1_like(), 13).unwrap();
        let cols = p.columns();
        let grid = chunk_index(&cols, 1);
        assert_eq!(grid.segment_count(), 1);
        let keys = vec![0u32; cols.len()];
        let keyed = ActiveSetIndex::build_keyed(
            &IndexColumns::from_population(&cols),
            &keys,
            1,
            aor(),
            Q_MIN,
            1.0,
            1,
        );
        assert_eq!(keyed.segment_count(), 1);
        assert_eq!(keyed.len(), grid.len());
        assert_eq!(
            keyed.bracket_hi().to_bits(),
            grid.bracket_hi().to_bits(),
            "bracket"
        );
        let hi = grid.bracket_hi();
        for k in 0..=50 {
            let t = hi * k as f64 / 50.0;
            assert_eq!(keyed.spend(t).to_bits(), grid.spend(t).to_bits(), "t {t}");
        }
    }

    #[test]
    fn spend_is_monotone_on_a_probe_grid() {
        let p = Population::synthesize(300, &PopulationSpec::table1_like(), 5).unwrap();
        let index = chunk_index(&p.columns(), 1);
        let hi = index.bracket_hi();
        let mut last = f64::NEG_INFINITY;
        for k in 0..=200 {
            let s = index.spend(hi * k as f64 / 200.0);
            assert!(
                s >= last - 1e-9 * s.abs().max(1.0),
                "model spend decreased at grid point {k}"
            );
            last = s;
        }
    }

    #[test]
    fn degenerate_columns_are_flagged_not_modelled() {
        // A denormal a2g2 against a huge cost overflows the threshold.
        let cols = PopulationColumns {
            a2g2: vec![1e-300, 1.0],
            cost: vec![1e300, 30.0],
            value: vec![0.0, 2.0],
            q_max: vec![1.0, 1.0],
        };
        let index = chunk_index(&cols, 1);
        assert!(index.is_degenerate());
    }

    #[test]
    fn probe_cost_is_logarithmic() {
        let cols = PopulationColumns {
            a2g2: vec![1.0; 1024],
            cost: vec![30.0; 1024],
            value: vec![0.0; 1024],
            q_max: vec![1.0; 1024],
        };
        let index = chunk_index(&cols, 1);
        assert_eq!(index.len(), 1024);
        assert!(index.probe_cost() <= 2 * 11 + 1);
        assert!(index.probe_cost() >= 2 * 10);
    }

    #[test]
    fn scaled_keyed_index_models_the_normalised_population() {
        // Raw w²G² columns probed at σ = W² track the exact spend of
        // the W-normalised population — the factorisation the service's
        // incremental patching rests on.
        let p = Population::synthesize(400, &PopulationSpec::table1_like(), 17).unwrap();
        let cols = p.columns();
        // Fabricate raw weights: w_raw = a·W for an arbitrary W.
        let total_w = 137.5f64;
        let scale = total_w * total_w;
        let w2g2: Vec<f64> = cols.a2g2.iter().map(|&a2g2| a2g2 * scale).collect();
        let keys: Vec<u32> = (0..cols.len() as u32).map(|i| (i / 32) % 7).collect();
        let index = ActiveSetIndex::build_keyed(
            &IndexColumns {
                w2g2: &w2g2,
                cost: &cols.cost,
                value: &cols.value,
                q_max: &cols.q_max,
            },
            &keys,
            7,
            aor(),
            Q_MIN,
            scale,
            1,
        );
        assert!(!index.is_degenerate());
        let hi = index.bracket_hi();
        for frac in [0.05, 0.3, 0.7, 0.95] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            assert!(
                (model - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
    }

    #[test]
    fn patch_rebuilds_dirty_segments_and_reuses_clean_ones() {
        let p = Population::synthesize(600, &PopulationSpec::table1_like(), 23).unwrap();
        let cols = p.columns();
        let keys: Vec<u32> = (0..cols.len() as u32).map(|i| i % 8).collect();
        let unit = IndexColumns::from_population(&cols);
        let index = ActiveSetIndex::build_keyed(&unit, &keys, 8, aor(), Q_MIN, 1.0, 1);

        // Same rows, same scale, two dirty segments: those rebuild, the
        // other six reuse, and the result matches a cold build exactly.
        let mut dirty = vec![false; 8];
        dirty[1] = true;
        dirty[5] = true;
        let (patched, stats) = index.patch(&unit, &keys, &dirty, 1.0, 1);
        assert_eq!(
            stats,
            PatchStats {
                rebuilt: 2,
                repaired: 0,
                reused: 6
            }
        );
        let cold = ActiveSetIndex::build_keyed(&unit, &keys, 8, aor(), Q_MIN, 1.0, 1);
        assert_eq!(patched, cold, "patched index diverged from cold build");

        // A scale change alone (no dirty rows) revalidates every
        // segment; the patched index must equal a cold build at the new
        // scale whether segments were reused or repaired.
        let (rescaled, restats) = index.patch(&unit, &keys, &[false; 8], 4.0, 1);
        assert_eq!(restats.rebuilt, 0);
        assert_eq!(restats.reused + restats.repaired, 8);
        let cold_rescaled = ActiveSetIndex::build_keyed(&unit, &keys, 8, aor(), Q_MIN, 4.0, 1);
        assert_eq!(rescaled, cold_rescaled);
    }

    #[test]
    #[should_panic(expected = "one dirty flag per segment")]
    fn patch_rejects_a_dirty_mask_of_another_length() {
        let p = Population::synthesize(100, &PopulationSpec::table1_like(), 29).unwrap();
        let cols = p.columns();
        let unit = IndexColumns::from_population(&cols);
        let keys: Vec<u32> = (0..cols.len() as u32).map(|i| i % 2).collect();
        let index = ActiveSetIndex::build_keyed(&unit, &keys, 2, aor(), Q_MIN, 1.0, 1);
        let _ = index.patch(&unit, &keys, &[false; 3], 1.0, 1);
    }
}
