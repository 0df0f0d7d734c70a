//! The service's sharded client store: raw-weighted profiles under churn,
//! with per-shard dirty tracking.
//!
//! Clients are routed to a fixed set of shards by id block
//! (`shard = (id / 32) % shards`, so one registration batch lands in few
//! shards). Ids are issued in ascending order and never reused, so the
//! **global client order** — the order every solve, snapshot, and
//! from-scratch verifier uses — is ascending id order, and so is each
//! shard's client list: both are appended in issue order and compacted
//! order-preservingly. That invariant replaces any per-client lookup
//! table:
//!
//! - Walks over the global order ([`ShardedClientStore::assemble`],
//!   [`ShardedClientStore::set_availability`]) keep one cursor per shard:
//!   the next id routed to shard `s` is that shard's client at
//!   `cursor[s]`.
//! - [`ShardedClientStore::remove`] sorts the departing ids, finds them
//!   in the touched shards by binary search, and closes the gaps in those
//!   shards and in the global order, with no per-survivor bookkeeping.
//! - [`ShardedClientStore::position`] answers id → global position from a
//!   directory of live route blocks: each block keeps its first global
//!   position and a bitmask of its live ids, and a block's live ids are
//!   contiguous in the global order, so the position is `first` plus the
//!   live ids below it in the block. The directory holds one entry per
//!   live block, and a removal re-stamps `first` once per live block.
//!
//! Each shard caches the per-client solver inputs that are expensive to
//! recompute under churn (availability rates, inclusion masks, the
//! effective-cost transform `c/rate²` and cap `q_max·rate`); a delta
//! dirties only the shards it touches, and
//! [`ShardedClientStore::ensure_caches`] rebuilds only those. The
//! per-solve [`ShardedClientStore::assemble`] pass then gathers the cached
//! columns in insertion order, normalises raw weights with the same
//! left-fold `Population::from_raw` performs, and splits the result into
//! chunk-aligned solver shards — so the sharded service's prices are
//! bit-identical to a from-scratch solve over the same clients for any
//! shard count.
//!
//! The store keeps *raw* data weights (`d_n`, not the normalised `a_n`):
//! normalisation depends on who else is currently registered, so it is
//! re-derived at solve time in the assembly pass.

use crate::error::ServiceError;
use crate::{ClientId, ClientParams};
use fedfl_core::active_set::IndexColumns;
use fedfl_core::population::{ClientProfile, PopulationColumns};
use fedfl_core::shard::ShardedPopulation;
use fedfl_core::GameError;
use fedfl_num::parallel::ShardPlan;
use fedfl_sim::availability::{AvailabilityModel, AvailabilityPattern};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Consecutive ids routed to the same shard. A churn batch of up to this
/// many registrations dirties at most two shards; removals dirty the
/// shards of the departing ids. One block's live ids fit one
/// [`Block::live`] mask.
const ROUTE_BLOCK: u64 = u32::BITS as u64;

/// Segment count of the service's keyed threshold index. Clients key on
/// the same id blocks the store routes by (`(id / ROUTE_BLOCK) %
/// INDEX_SEGMENTS`), so whenever the store's shard count divides this,
/// every index segment nests inside exactly one store shard — the mapping
/// that turns per-shard dirty bits into dirty index segments. 256 keeps
/// segments fine-grained (a one-shard churn re-sorts 1/256th of the
/// population at the reference shard count) without bloating the segment
/// directory walk.
pub(crate) const INDEX_SEGMENTS: usize = 256;

/// Cached per-client solver inputs of one shard, aligned with its clients.
///
/// Everything here is a pure per-client function of the client's
/// parameters and the service's fixed `(availability_aware, q_min)` knobs
/// — never of the rest of the population — which is what makes the cache
/// shard-local. The weight-normalisation (and the `a²G²` column that
/// depends on it) is global and recomputed in the assembly pass.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    rate: Vec<f64>,
    included: Vec<bool>,
    w_raw: Vec<f64>,
    g2: Vec<f64>,
    cost_eff: Vec<f64>,
    value: Vec<f64>,
    q_max_eff: Vec<f64>,
}

/// One store shard: its clients in ascending id order, one column per
/// field (availability updates walk only their own column), plus the
/// lazily rebuilt cache (`None` = dirty).
#[derive(Debug, Clone, Default)]
struct StoreShard {
    ids: Vec<ClientId>,
    /// Raw-weighted profiles (`weight` = the submitted `data_size`).
    profiles: Vec<ClientProfile>,
    availability: Vec<AvailabilityPattern>,
    cache: Option<ShardCache>,
}

/// Directory entry of one live route block (`id / ROUTE_BLOCK`).
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Global position of the block's first live id.
    first: u32,
    /// Bit `id % ROUTE_BLOCK` is set for every live id of the block.
    live: u32,
}

impl Block {
    /// Global position of the id at `bit` (`1 << id % ROUTE_BLOCK`), if
    /// it is live: the block's live ids are contiguous in the global
    /// order, so it sits after the live ids below it.
    fn position(&self, bit: u32) -> Option<usize> {
        (self.live & bit != 0)
            .then(|| self.first as usize + (self.live & (bit - 1)).count_ones() as usize)
    }
}

/// Multiplicative hashing for the directory's block keys. The keys are
/// ids the store issued itself, so SipHash's flooding resistance buys
/// nothing, and a lookup is on every `GetPrices` id's path. An odd
/// multiplier permutes the low bits (consecutive blocks land in distinct
/// buckets) and mixes them into the high bits the table tags with.
#[derive(Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Live route blocks by `id / ROUTE_BLOCK`.
type Directory = HashMap<u64, Block, BuildHasherDefault<BlockHasher>>;

/// The directory key and live-mask bit of an id.
fn block_of(id: u64) -> (u64, u32) {
    (id / ROUTE_BLOCK, 1 << (id % ROUTE_BLOCK))
}

/// Remove the entries at positions `at` (ascending, distinct, in bounds)
/// from `items`, moving each run of survivors down once.
fn remove_positions<T: Copy>(items: &mut Vec<T>, at: &[usize]) {
    let Some(&first) = at.first() else { return };
    let mut write = first;
    for (k, &hole) in at.iter().enumerate() {
        let end = at.get(k + 1).copied().unwrap_or(items.len());
        items.copy_within(hole + 1..end, write);
        write += end - hole - 1;
    }
    items.truncate(write);
}

/// Rebuild statistics of one [`ShardedClientStore::ensure_caches`] call —
/// the observable half of the dirty-shard contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardStats {
    /// Shards whose caches were rebuilt.
    pub dirty_shards: usize,
    /// Clients whose cached columns were recomputed (the sum of the dirty
    /// shards' sizes).
    pub rebuilt_columns: usize,
}

/// Scale-free threshold-index inputs of the included clients, in
/// insertion order — the raw-weight twin of the normalised solver
/// columns.
///
/// The normalised `a²G² = (w/W)²G²` column moves with every change of the
/// raw-weight total `W`, so an index over it could never reuse segments
/// across churn. These columns carry `w²G²` from *raw* weights instead
/// and the squared total as [`IndexInputs::scale`]; the index evaluates
/// thresholds at that scale on the fly, keeping its stored segments
/// `W`-independent (see `fedfl_core::active_set`).
#[derive(Debug)]
pub(crate) struct IndexInputs {
    /// `w_raw²·G²` per included client.
    pub w2g2: Vec<f64>,
    /// Effective costs (same values the solver columns carry).
    pub cost: Vec<f64>,
    /// Client values.
    pub value: Vec<f64>,
    /// Effective caps.
    pub q_max: Vec<f64>,
    /// Index segment key per included client:
    /// `(id / ROUTE_BLOCK) % INDEX_SEGMENTS` — a pure function of the id,
    /// so the segment partition never depends on shard or thread counts.
    pub seg_keys: Vec<u32>,
    /// The probe scale `σ = W²` (squared raw-weight total).
    pub scale: f64,
}

impl IndexInputs {
    /// Borrow as the index builder's column view.
    pub fn columns(&self) -> IndexColumns<'_> {
        IndexColumns {
            w2g2: &self.w2g2,
            cost: &self.cost,
            value: &self.value,
            q_max: &self.q_max,
        }
    }
}

/// The assembled solver view of the current population.
#[derive(Debug)]
pub(crate) struct AssembledView {
    /// Effective solver columns of the included clients, in insertion
    /// order, split into chunk-aligned solver shards.
    pub population: ShardedPopulation,
    /// Global inclusion mask, aligned with [`ShardedClientStore::ids`].
    pub included: Vec<bool>,
    /// Number of included clients.
    pub included_count: usize,
    /// Total raw weight of the included clients (the warm-start rescale
    /// reference).
    pub total_raw_weight: f64,
    /// Scale-free inputs for the fast path's keyed threshold index.
    pub index: IndexInputs,
}

/// Sharded client store with id lookup, per-shard dirty tracking, and
/// batched delta apply.
#[derive(Debug, Clone)]
pub(crate) struct ShardedClientStore {
    shards: Vec<StoreShard>,
    /// Client ids in global insertion order, which is ascending id order.
    order: Vec<ClientId>,
    /// Live route blocks (see [`Block`]).
    blocks: Directory,
    next_id: u64,
    /// Monotonically increasing mutation stamp: bumped by every delta that
    /// can change the assembled solver view (adds, removes, effective
    /// availability changes). Caches derived from an assembled view — the
    /// fast path's threshold index — key on this stamp to detect reuse.
    version: u64,
    /// Per-shard mutation stamps: `shard_versions[s]` is the global
    /// [`Self::version`] of the last delta that touched shard `s` (0 =
    /// never touched). A cache stamped at global version `v` can tell
    /// exactly which shards changed since: `{s | shard_versions[s] > v}`
    /// — the dirty set the fast path's incremental index patch rebuilds.
    shard_versions: Vec<u64>,
}

impl ShardedClientStore {
    /// Create an empty store with `shard_count >= 1` shards.
    pub fn new(shard_count: usize) -> Self {
        Self {
            shards: vec![StoreShard::default(); shard_count.max(1)],
            order: Vec::new(),
            blocks: Directory::default(),
            next_id: 0,
            version: 0,
            shard_versions: vec![0; shard_count.max(1)],
        }
    }

    /// The current mutation stamp (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-shard mutation stamps (see the `shard_versions` field): the
    /// global version of the last delta that touched each shard.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of store shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Client ids in global insertion order.
    pub fn ids(&self) -> &[ClientId] {
        &self.order
    }

    /// Position of `id` in the global insertion order, if registered.
    pub fn position(&self, id: ClientId) -> Option<usize> {
        let (key, bit) = block_of(id.0);
        self.blocks.get(&key)?.position(bit)
    }

    /// The shard an id is (or would be) routed to.
    fn route(&self, id: u64) -> usize {
        ((id / ROUTE_BLOCK) % self.shards.len() as u64) as usize
    }

    /// Append validated clients, assigning fresh ids and dirtying only the
    /// shards the new ids route to.
    pub fn add(&mut self, batch: Vec<ClientParams>) -> Result<Vec<ClientId>, ServiceError> {
        for (index, params) in batch.iter().enumerate() {
            params
                .validate()
                .map_err(|reason| ServiceError::InvalidClient { index, reason })?;
        }
        // Global positions are `u32`, the index layer's population cap.
        let room = (u32::MAX as usize).saturating_sub(self.order.len());
        if batch.len() > room {
            return Err(ServiceError::InvalidClient {
                index: room,
                reason: format!("the service holds at most {} clients", u32::MAX),
            });
        }
        if !batch.is_empty() {
            self.version += 1;
        }
        let mut ids = Vec::with_capacity(batch.len());
        for params in batch {
            let id = ClientId(self.next_id);
            self.next_id += 1;
            let s = self.route(id.0);
            self.shard_versions[s] = self.version;
            // A fresh id is above every live one, so it lands last both in
            // its shard and in the global order (and so in its block).
            let (key, bit) = block_of(id.0);
            let first = self.order.len() as u32;
            self.blocks
                .entry(key)
                .or_insert(Block { first, live: 0 })
                .live |= bit;
            let shard = &mut self.shards[s];
            shard.cache = None;
            shard.ids.push(id);
            shard.profiles.push(params.raw_profile());
            shard.availability.push(params.availability);
            self.order.push(id);
            ids.push(id);
        }
        Ok(ids)
    }

    /// Remove a batch of ids (order-preserving compaction of the touched
    /// shards and the global order), dirtying only the touched shards.
    ///
    /// Rejects the whole batch — mutating nothing — if any id is unknown
    /// or duplicated within the batch, naming the first offender in batch
    /// order.
    pub fn remove(&mut self, ids: &[ClientId]) -> Result<usize, ServiceError> {
        if ids.is_empty() {
            return Ok(0);
        }
        // Sort (id, batch index) pairs: duplicates become neighbours, and
        // the first offender is the one with the smallest batch index — an
        // unknown id at its first occurrence, a duplicate at its second.
        let mut sorted: Vec<(u64, usize)> =
            ids.iter().enumerate().map(|(at, id)| (id.0, at)).collect();
        sorted.sort_unstable();
        let mut offender: Option<(usize, ServiceError)> = None;
        let mut global = Vec::with_capacity(sorted.len());
        for (k, &(id, at)) in sorted.iter().enumerate() {
            let error = match self.position(ClientId(id)) {
                None => ServiceError::UnknownClient(ClientId(id)),
                Some(_) if k > 0 && sorted[k - 1].0 == id => {
                    ServiceError::DuplicateRemoval(ClientId(id))
                }
                Some(position) => {
                    global.push(position);
                    continue;
                }
            };
            if offender.as_ref().is_none_or(|&(first, _)| at < first) {
                offender = Some((at, error));
            }
        }
        if let Some((_, error)) = offender {
            return Err(error);
        }
        let doomed: Vec<u64> = sorted.into_iter().map(|(id, _)| id).collect();
        self.version += 1;
        // Compact each touched shard: group the doomed ids by shard (a
        // stable sort keeps them ascending within a group) and find each
        // in its shard's ascending ids.
        let mut by_shard: Vec<(usize, u64)> =
            doomed.iter().map(|&id| (self.route(id), id)).collect();
        by_shard.sort_by_key(|&(shard, _)| shard);
        for group in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let s = group[0].0;
            let shard = &mut self.shards[s];
            shard.cache = None;
            self.shard_versions[s] = self.version;
            let local: Vec<usize> = group
                .iter()
                .map(|&(_, id)| {
                    shard
                        .ids
                        .binary_search(&ClientId(id))
                        .expect("live id is in its shard")
                })
                .collect();
            remove_positions(&mut shard.ids, &local);
            remove_positions(&mut shard.profiles, &local);
            remove_positions(&mut shard.availability, &local);
        }
        remove_positions(&mut self.order, &global);
        // Clear the departed ids' bits, dropping blocks left empty.
        for &id in &doomed {
            let (key, bit) = block_of(id);
            let block = self.blocks.get_mut(&key).expect("live id has a block");
            block.live &= !bit;
            if block.live == 0 {
                self.blocks.remove(&key);
            }
        }
        // Every departure below a block moved its live ids down one place.
        for (&key, block) in &mut self.blocks {
            block.first -= doomed.partition_point(|&id| id < key * ROUTE_BLOCK) as u32;
        }
        Ok(ids.len())
    }

    /// Replace every client's availability pattern from a model aligned to
    /// the global insertion order, dirtying only shards whose patterns
    /// actually changed (and only when `track_dirty` is set — an
    /// availability-blind service's caches never read the patterns).
    ///
    /// Returns whether any pattern changed.
    pub fn set_availability(
        &mut self,
        model: &AvailabilityModel,
        track_dirty: bool,
    ) -> Result<bool, ServiceError> {
        if model.len() != self.order.len() {
            return Err(ServiceError::AvailabilityMismatch {
                clients: self.order.len(),
                patterns: model.len(),
            });
        }
        let mut changed = false;
        let mut touched = vec![false; self.shards.len()];
        let mut cursor = vec![0usize; self.shards.len()];
        for (id, &pattern) in self.order.iter().zip(model.patterns()) {
            let s = self.route(id.0);
            let local = cursor[s];
            cursor[s] += 1;
            let shard = &mut self.shards[s];
            debug_assert_eq!(shard.ids[local], *id);
            let current = &mut shard.availability[local];
            if *current != pattern {
                *current = pattern;
                changed = true;
                if track_dirty {
                    shard.cache = None;
                    touched[s] = true;
                }
            }
        }
        // An availability-blind service's assembled view never reads the
        // patterns, so only tracked changes advance the stamps.
        if changed && track_dirty {
            self.version += 1;
            for (s, &hit) in touched.iter().enumerate() {
                if hit {
                    self.shard_versions[s] = self.version;
                }
            }
        }
        Ok(changed)
    }

    /// Rebuild the caches of dirty shards only, returning how much work
    /// that took. `O(N/S · dirty)` — the tentpole of the sharded store.
    pub fn ensure_caches(&mut self, availability_aware: bool, q_min: f64) -> ShardStats {
        let mut stats = ShardStats::default();
        for shard in &mut self.shards {
            if shard.cache.is_some() {
                continue;
            }
            stats.dirty_shards += 1;
            stats.rebuilt_columns += shard.ids.len();
            let m = shard.ids.len();
            let mut cache = ShardCache {
                rate: Vec::with_capacity(m),
                included: Vec::with_capacity(m),
                w_raw: Vec::with_capacity(m),
                g2: Vec::with_capacity(m),
                cost_eff: Vec::with_capacity(m),
                value: Vec::with_capacity(m),
                q_max_eff: Vec::with_capacity(m),
            };
            for (p, pattern) in shard.profiles.iter().zip(&shard.availability) {
                let rate = if availability_aware {
                    pattern.availability_rate()
                } else {
                    1.0
                };
                // A rate of exactly 1.0 makes both transforms bit-exact
                // identities, so the always-on path matches the paper's
                // pricing bit for bit.
                let included = rate > 0.0 && p.q_max * rate > q_min;
                cache.rate.push(rate);
                cache.included.push(included);
                cache.w_raw.push(p.weight);
                cache.g2.push(p.g_squared);
                cache.cost_eff.push(if included {
                    p.cost / (rate * rate)
                } else {
                    0.0
                });
                cache.value.push(p.value);
                cache.q_max_eff.push(p.q_max * rate);
            }
            shard.cache = Some(cache);
        }
        stats
    }

    /// Gather the cached columns in global insertion order, normalise the
    /// raw weights (the exact left-fold `Population::from_raw` performs
    /// over the included clients), and split the result into
    /// `solve_shards` chunk-aligned solver shards.
    ///
    /// Must run after [`ShardedClientStore::ensure_caches`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NoPriceableClients`] when every client is
    /// excluded, and [`ServiceError::Game`] for degenerate raw weights —
    /// the same conditions the from-scratch `Population::from_raw` path
    /// rejects.
    pub fn assemble(&self, solve_shards: usize) -> Result<AssembledView, ServiceError> {
        let n = self.order.len();
        let mut included = Vec::with_capacity(n);
        let mut w_raw = Vec::with_capacity(n);
        let mut g2 = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        let mut value = Vec::with_capacity(n);
        let mut q_max = Vec::with_capacity(n);
        let mut seg_keys = Vec::with_capacity(n);
        let caches: Vec<&ShardCache> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .cache
                    .as_ref()
                    .expect("ensure_caches runs before assemble")
            })
            .collect();
        let mut cursor = vec![0usize; caches.len()];
        for id in &self.order {
            let s = self.route(id.0);
            let local = cursor[s];
            cursor[s] += 1;
            debug_assert_eq!(self.shards[s].ids[local], *id);
            let cache = caches[s];
            let inc = cache.included[local];
            included.push(inc);
            if inc {
                w_raw.push(cache.w_raw[local]);
                g2.push(cache.g2[local]);
                cost.push(cache.cost_eff[local]);
                value.push(cache.value[local]);
                q_max.push(cache.q_max_eff[local]);
                seg_keys.push(((id.0 / ROUTE_BLOCK) % INDEX_SEGMENTS as u64) as u32);
            }
        }
        let included_count = w_raw.len();
        if included_count == 0 {
            return Err(ServiceError::NoPriceableClients { registered: n });
        }
        // The same sequential left-fold `Population::from_raw` uses, so
        // the normalised weights — and everything derived from them — are
        // bit-identical to the from-scratch path.
        let total_raw_weight: f64 = w_raw.iter().sum();
        if !(total_raw_weight.is_finite() && total_raw_weight > 0.0) {
            return Err(ServiceError::Game(GameError::InvalidParameter {
                name: "weights",
                reason: format!(
                    "raw weights must sum to a positive finite total, got {total_raw_weight}"
                ),
            }));
        }
        let plan = ShardPlan::new(included_count, solve_shards.max(1))
            .expect("solve_shards >= 1 by construction");
        let mut shards = Vec::with_capacity(plan.shard_count());
        for range in plan.ranges() {
            let mut cols = PopulationColumns {
                a2g2: Vec::with_capacity(range.len()),
                cost: cost[range.clone()].to_vec(),
                value: value[range.clone()].to_vec(),
                q_max: q_max[range.clone()].to_vec(),
            };
            for i in range {
                let nw = w_raw[i] / total_raw_weight;
                if !(nw.is_finite() && nw > 0.0) {
                    return Err(ServiceError::Game(GameError::InvalidParameter {
                        name: "weight",
                        reason: format!("normalised weight must be finite and positive, got {nw}"),
                    }));
                }
                cols.a2g2.push(nw * nw * g2[i]);
            }
            shards.push(cols);
        }
        let population = ShardedPopulation::from_shards(shards)
            .expect("plan-split shards are chunk-aligned by construction");
        let w2g2 = w_raw
            .iter()
            .zip(&g2)
            .map(|(&w, &g)| w * w * g)
            .collect::<Vec<f64>>();
        let index = IndexInputs {
            w2g2,
            cost,
            value,
            q_max,
            seg_keys,
            scale: total_raw_weight * total_raw_weight,
        };
        Ok(AssembledView {
            population,
            included,
            included_count,
            total_raw_weight,
            index,
        })
    }

    #[cfg(test)]
    fn profile(&self, id: ClientId) -> Option<&ClientProfile> {
        let shard = &self.shards[self.route(id.0)];
        let local = shard.ids.binary_search(&id).ok()?;
        Some(&shard.profiles[local])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedfl_core::population::Q_MIN;
    use fedfl_sim::availability::AvailabilityPattern;

    fn params(weight: f64) -> ClientParams {
        ClientParams {
            data_size: weight,
            g_squared: 4.0,
            cost: 10.0,
            value: 1.0,
            q_max: 1.0,
            availability: AvailabilityPattern::AlwaysOn,
        }
    }

    #[test]
    fn add_assigns_sequential_ids_and_indexes() {
        let mut store = ShardedClientStore::new(4);
        let ids = store.add(vec![params(1.0), params(2.0)]).unwrap();
        assert_eq!(ids, vec![ClientId(0), ClientId(1)]);
        assert_eq!(store.position(ClientId(1)), Some(1));
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.ids(), &[ClientId(0), ClientId(1)]);
    }

    #[test]
    fn add_rejects_invalid_without_mutation() {
        let mut store = ShardedClientStore::new(2);
        let mut bad = params(1.0);
        bad.cost = -1.0;
        assert!(matches!(
            store.add(vec![params(1.0), bad]),
            Err(ServiceError::InvalidClient { index: 1, .. })
        ));
        assert!(store.is_empty());
    }

    #[test]
    fn remove_preserves_order_and_reindexes() {
        let mut store = ShardedClientStore::new(3);
        let ids = store
            .add(vec![params(1.0), params(2.0), params(3.0), params(4.0)])
            .unwrap();
        assert_eq!(store.remove(&[ids[1], ids[3]]).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids(), &[ids[0], ids[2]]);
        assert_eq!(store.position(ids[2]), Some(1));
        assert_eq!(store.position(ids[1]), None);
        // Unknown and duplicate ids reject the whole batch atomically.
        assert!(store.remove(&[ids[1]]).is_err());
        assert!(store.remove(&[ids[0], ids[0]]).is_err());
        assert_eq!(store.len(), 2);
        assert_eq!(store.remove(&[]).unwrap(), 0);
        // Records survive compaction intact.
        assert_eq!(store.profile(ids[2]).unwrap().weight, 3.0);
    }

    #[test]
    fn ids_are_never_reused_after_removal() {
        let mut store = ShardedClientStore::new(2);
        let ids = store.add(vec![params(1.0)]).unwrap();
        store.remove(&[ids[0]]).unwrap();
        let fresh = store.add(vec![params(1.0)]).unwrap();
        assert_ne!(fresh[0], ids[0]);
    }

    #[test]
    fn dirty_tracking_rebuilds_only_touched_shards() {
        // 8 shards, enough clients that several route blocks are live.
        let mut store = ShardedClientStore::new(8);
        let n = ROUTE_BLOCK as usize * 8 + 7;
        let ids = store
            .add((0..n).map(|k| params(1.0 + k as f64)).collect())
            .unwrap();
        let cold = store.ensure_caches(false, Q_MIN);
        assert_eq!(cold.dirty_shards, 8);
        assert_eq!(cold.rebuilt_columns, n);
        // Nothing dirty: nothing rebuilt.
        assert_eq!(store.ensure_caches(false, Q_MIN), ShardStats::default());
        // Removing one client dirties exactly its shard.
        store.remove(&[ids[0]]).unwrap();
        let after_remove = store.ensure_caches(false, Q_MIN);
        assert_eq!(after_remove.dirty_shards, 1);
        assert!(after_remove.rebuilt_columns < n / 2);
        // A small add batch lands in at most two shards.
        store.add(vec![params(5.0), params(6.0)]).unwrap();
        let after_add = store.ensure_caches(false, Q_MIN);
        assert!(after_add.dirty_shards <= 2);
    }

    #[test]
    fn shard_versions_stamp_only_touched_shards() {
        let mut store = ShardedClientStore::new(4);
        assert_eq!(store.shard_versions(), &[0, 0, 0, 0]);
        // One route block of adds stamps exactly shard 0 at the new
        // global version.
        let ids = store
            .add((0..ROUTE_BLOCK).map(|_| params(1.0)).collect())
            .unwrap();
        assert_eq!(store.version(), 1);
        assert_eq!(store.shard_versions(), &[1, 0, 0, 0]);
        // The next block routes to shard 1; shard 0's stamp is left
        // alone, so a cache stamped at version 1 sees exactly shard 1
        // as newer.
        store
            .add((0..ROUTE_BLOCK).map(|_| params(2.0)).collect())
            .unwrap();
        assert_eq!(store.version(), 2);
        assert_eq!(store.shard_versions(), &[1, 2, 0, 0]);
        let stamped = 1u64;
        let dirty: Vec<usize> = store
            .shard_versions()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > stamped)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(dirty, vec![1]);
        // Removing from shard 0 stamps shard 0 only.
        store.remove(&[ids[0]]).unwrap();
        assert_eq!(store.version(), 3);
        assert_eq!(store.shard_versions(), &[3, 2, 0, 0]);
        // An availability change to one client stamps its shard only —
        // and only when the service tracks availability.
        let n = store.len();
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[n - 1] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model, false).unwrap());
        assert_eq!(store.shard_versions(), &[3, 2, 0, 0], "untracked change");
        let model = AvailabilityModel::always_on(n);
        assert!(store.set_availability(&model, true).unwrap());
        assert_eq!(store.version(), 4);
        assert_eq!(store.shard_versions(), &[3, 4, 0, 0]);
    }

    #[test]
    fn assembled_index_inputs_align_with_included_clients() {
        let mut store = ShardedClientStore::new(2);
        let mut dead = params(2.0);
        dead.availability = AvailabilityPattern::Random { probability: 1e-12 };
        store
            .add(vec![params(1.5), dead, params(3.0), params(4.0)])
            .unwrap();
        store.ensure_caches(true, Q_MIN);
        let assembled = store.assemble(1).unwrap();
        let inputs = &assembled.index;
        assert_eq!(inputs.w2g2.len(), assembled.included_count);
        assert_eq!(inputs.seg_keys.len(), assembled.included_count);
        // w²G² is raw-weight squared times G², in insertion order over
        // the included clients; the scale is the squared raw total.
        let expected: Vec<f64> = [1.5f64, 3.0, 4.0].iter().map(|w| w * w * 4.0).collect();
        assert_eq!(inputs.w2g2, expected);
        let total: f64 = 1.5 + 3.0 + 4.0;
        assert_eq!(inputs.scale.to_bits(), (total * total).to_bits());
        // All four ids share route block 0, so every segment key is 0.
        assert_eq!(inputs.seg_keys, vec![0, 0, 0]);
        // The scaled index columns describe the same clients the solver
        // columns do: (w/W)²G² == w²G² / scale up to one rounding.
        let cols = assembled.population.concat();
        for (i, &a2g2) in cols.a2g2.iter().enumerate() {
            let rescaled = inputs.w2g2[i] / inputs.scale;
            assert!((rescaled - a2g2).abs() <= 1e-12 * a2g2.abs());
        }
    }

    #[test]
    fn availability_updates_dirty_only_changed_shards() {
        let mut store = ShardedClientStore::new(4);
        let n = ROUTE_BLOCK as usize * 4;
        store.add((0..n).map(|_| params(1.0)).collect()).unwrap();
        store.ensure_caches(true, Q_MIN);
        // An identical model changes nothing and dirties nothing.
        let same = AvailabilityModel::always_on(n);
        assert!(!store.set_availability(&same, true).unwrap());
        assert_eq!(store.ensure_caches(true, Q_MIN), ShardStats::default());
        // Changing one client's pattern dirties exactly its shard.
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[3] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model, true).unwrap());
        let stats = store.ensure_caches(true, Q_MIN);
        assert_eq!(stats.dirty_shards, 1);
        assert_eq!(stats.rebuilt_columns, ROUTE_BLOCK as usize);
        // Mismatched model length is rejected.
        assert!(store
            .set_availability(&AvailabilityModel::always_on(n - 1), true)
            .is_err());
    }

    #[test]
    fn assemble_matches_from_raw_normalisation() {
        use fedfl_core::population::Population;
        let mut store = ShardedClientStore::new(3);
        let clients: Vec<ClientParams> = (0..10).map(|k| params(1.0 + k as f64)).collect();
        store.add(clients.clone()).unwrap();
        store.ensure_caches(false, Q_MIN);
        let assembled = store.assemble(2).unwrap();
        assert_eq!(assembled.included_count, 10);
        assert!(assembled.included.iter().all(|&inc| inc));
        let reference =
            Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect())
                .unwrap()
                .columns();
        assert_eq!(assembled.population.concat(), reference);
        let expected_total: f64 = clients.iter().map(|c| c.data_size).sum();
        assert_eq!(
            assembled.total_raw_weight.to_bits(),
            expected_total.to_bits()
        );
    }

    #[test]
    fn assemble_excludes_unreachable_clients() {
        let mut store = ShardedClientStore::new(2);
        let mut dead = params(2.0);
        dead.availability = AvailabilityPattern::Random { probability: 1e-12 };
        store.add(vec![params(1.0), dead, params(3.0)]).unwrap();
        store.ensure_caches(true, Q_MIN);
        let assembled = store.assemble(1).unwrap();
        assert_eq!(assembled.included, vec![true, false, true]);
        assert_eq!(assembled.included_count, 2);
        assert_eq!(assembled.population.len(), 2);
        // All excluded -> NoPriceableClients.
        let mut empty = ShardedClientStore::new(2);
        let mut gone = params(1.0);
        gone.availability = AvailabilityPattern::Random { probability: 1e-12 };
        empty.add(vec![gone]).unwrap();
        empty.ensure_caches(true, Q_MIN);
        assert!(matches!(
            empty.assemble(1),
            Err(ServiceError::NoPriceableClients { registered: 1 })
        ));
    }

    #[test]
    fn remove_names_the_first_offender_and_mutates_nothing() {
        let mut store = ShardedClientStore::new(3);
        let ids = store
            .add((0..70).map(|k| params(1.0 + k as f64)).collect())
            .unwrap();
        let a = ids[40];
        let unknown = ClientId(1_000);
        let ids_before = store.ids().to_vec();
        let version = store.version();
        let shard_versions = store.shard_versions().to_vec();
        for (batch, expected) in [
            (vec![a, a, unknown], ServiceError::DuplicateRemoval(a)),
            (vec![unknown, a, a], ServiceError::UnknownClient(unknown)),
        ] {
            assert_eq!(store.remove(&batch), Err(expected), "batch {batch:?}");
            assert_eq!(store.ids(), &ids_before[..]);
            assert_eq!(store.version(), version);
            assert_eq!(store.shard_versions(), &shard_versions[..]);
            for (at, &id) in ids_before.iter().enumerate() {
                assert_eq!(store.position(id), Some(at));
            }
        }
    }

    /// A deterministic stream for the churn property test (splitmix64).
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Check the store against a plain `Vec` model of its live clients.
    fn check_against_model(
        store: &mut ShardedClientStore,
        model: &[(ClientId, ClientParams)],
    ) -> Result<(), proptest::TestCaseError> {
        use fedfl_core::population::{ClientProfile, Population};
        use proptest::prelude::*;
        let ids: Vec<ClientId> = model.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(store.ids(), &ids[..]);
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        for id in (0..store.next_id).map(ClientId) {
            prop_assert_eq!(store.position(id), ids.binary_search(&id).ok());
        }
        let mut live_blocks: Vec<u64> = ids.iter().map(|id| id.0 / ROUTE_BLOCK).collect();
        live_blocks.dedup();
        prop_assert_eq!(store.blocks.len(), live_blocks.len());
        // The from-scratch view: availability-aware effective profiles of
        // the included clients, normalised by `Population::from_raw`.
        let mut included = Vec::new();
        let mut profiles = Vec::new();
        for (_, p) in model {
            let rate = p.availability.availability_rate();
            let inc = rate > 0.0 && p.q_max * rate > Q_MIN;
            included.push(inc);
            if inc {
                profiles.push(ClientProfile {
                    cost: p.cost / (rate * rate),
                    q_max: p.q_max * rate,
                    ..p.raw_profile()
                });
            }
        }
        store.ensure_caches(true, Q_MIN);
        for solve_shards in [1, 3] {
            let assembled = store.assemble(solve_shards);
            if profiles.is_empty() {
                prop_assert!(assembled.is_err());
                continue;
            }
            let assembled = assembled.unwrap();
            let reference = Population::from_raw(profiles.clone()).unwrap().columns();
            prop_assert_eq!(&assembled.included, &included);
            prop_assert_eq!(assembled.population.concat(), reference);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn store_invariants_hold_under_churn(
            ops in proptest::collection::vec((0u8..3, 0usize..70, 0u64..u64::MAX), 1..24),
        ) {
            let patterns = [
                AvailabilityPattern::AlwaysOn,
                AvailabilityPattern::Random { probability: 0.5 },
                AvailabilityPattern::Random { probability: 0.25 },
                AvailabilityPattern::Random { probability: 1e-12 },
            ];
            for shard_count in [1, 3, 256] {
                let mut store = ShardedClientStore::new(shard_count);
                let mut model: Vec<(ClientId, ClientParams)> = Vec::new();
                for &(kind, count, salt) in &ops {
                    let mut rng = salt;
                    match kind {
                        0 => {
                            let batch: Vec<ClientParams> = (0..count)
                                .map(|_| params(1.0 + (mix(&mut rng) % 100) as f64))
                                .collect();
                            let ids = store.add(batch.clone()).unwrap();
                            model.extend(ids.into_iter().zip(batch));
                        }
                        1 => {
                            // `count` distinct live clients, in shuffled
                            // batch order.
                            let mut picks: Vec<usize> = (0..model.len()).collect();
                            for i in (1..picks.len()).rev() {
                                picks.swap(i, (mix(&mut rng) % (i as u64 + 1)) as usize);
                            }
                            picks.truncate(count.min(model.len()));
                            let doomed: Vec<ClientId> = picks.iter().map(|&i| model[i].0).collect();
                            proptest::prop_assert_eq!(store.remove(&doomed).unwrap(), doomed.len());
                            model.retain(|(id, _)| !doomed.contains(id));
                        }
                        _ if !model.is_empty() => {
                            for (_, p) in &mut model {
                                if mix(&mut rng).is_multiple_of(4) {
                                    p.availability = patterns[(mix(&mut rng) % 4) as usize];
                                }
                            }
                            let avail = AvailabilityModel::new(
                                model.iter().map(|(_, p)| p.availability).collect(),
                            )
                            .unwrap();
                            store.set_availability(&avail, true).unwrap();
                        }
                        // An availability model needs at least one client.
                        _ => {}
                    }
                    check_against_model(&mut store, &model)?;
                }
                let all: Vec<ClientId> = model.iter().map(|&(id, _)| id).collect();
                store.remove(&all).unwrap();
                proptest::prop_assert!(store.is_empty());
                proptest::prop_assert_eq!(store.blocks.len(), 0);
            }
        }
    }
}
