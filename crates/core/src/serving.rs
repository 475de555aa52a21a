//! Snapshot-isolated concurrent serving: lock-free readers under live
//! maintenance.
//!
//! The static [`Database`](crate::Database) answers queries over a frozen
//! graph; [`MaintainedDatabase`](crate::MaintainedDatabase) keeps the
//! saturation consistent under updates but serializes everything behind
//! `&mut self`. This module closes the gap for server settings — the
//! dynamic-RDF scenario of the paper's introduction where updates arrive
//! *while* queries are being answered:
//!
//! * **[`Snapshot`]** — an immutable, `Arc`-shared quadruple of (explicit
//!   store, maintained saturation, statistics, plan-cache epochs), tagged
//!   with a monotonic publication sequence number. All heavyweight parts
//!   are shared copy-on-write with the writer's working state (the store's
//!   index buckets, the dictionary, schema closure and statistics), so a
//!   snapshot costs a handful of `Arc` bumps.
//! * **[`SnapshotCell`]** (private) — the publication point: an atomic
//!   version counter plus a mutex-protected slot and a per-thread cache.
//!   The reader fast path is one atomic load and a thread-local lookup; the
//!   slot mutex is touched only in the publication instant and on the first
//!   read after a publish. Readers never block behind the writer.
//! * **[`WriterCore`]** (crate-private) — the single-writer maintenance
//!   pipeline: interns terms, applies insert/delete batches through
//!   [`rdfref_reasoning::IncrementalReasoner`] (semi-naive insertion, DRed
//!   deletion, schema changes via resaturation-with-diff), folds the exact
//!   [`MaintenanceDelta`] into the copy-on-write stores and incremental
//!   statistics, and bumps the plan cache's epochs. Also the engine behind
//!   [`MaintainedDatabase`](crate::MaintainedDatabase).
//! * **[`ServingDatabase`]** — the concurrent façade, over one or more
//!   predicate-hash shards: `&self` reads via
//!   [`ServingDatabase::snapshot`] / the request builder, `&self` writes via
//!   [`ServingDatabase::submit`] which enqueues an [`UpdateBatch`] to a
//!   background maintenance thread and returns a [`BatchTicket`]; the
//!   ticket resolves to a [`BatchReport`] of per-batch maintenance metrics
//!   *after* the containing snapshot is published (read-your-writes for
//!   anyone who waits on the ticket).
//!
//! Consistency contract: every answer is computed against exactly one
//! snapshot — one `(graph, saturation, stats, cache-epoch)` state — and
//! snapshots advance atomically, one applied batch prefix at a time. The
//! proptest suite checks prefix linearizability: each concurrent read
//! equals the answer over *some* prefix of the applied batches.
//!
//! Memory reclamation is pure `Arc` reference counting: a retired snapshot
//! survives exactly as long as some reader still holds it (plus at most
//! [`TLS_CACHE_CAP`] slots per thread in the thread-local cache), then its
//! unshared index buckets are freed. There is no epoch-based reclamation
//! machinery to misuse and no unsafe code.

use crate::answer::{AnswerOptions, DataSource, Database, QueryAnswer, SaturatedPart, Strategy};
use crate::builder::EngineBuilder;
use crate::cache::PlanCache;
use crate::engine::{QueryEngine, QueryRequest};
use crate::error::{CoreError, Result};
use crate::explain::SnapshotInfo;
use crate::pubcell::{publish_all, PubCell, Published};
use rdfref_model::{
    vocab, DictEncoding, EncodedTriple, Graph, HierarchyEncoder, Schema, SchemaClosure, Term,
    TermId, Triple,
};
use rdfref_obs::Obs;
use rdfref_query::Cq;
use rdfref_reasoning::{IncrementalReasoner, MaintenanceDelta};
use rdfref_storage::{
    shard_of_predicate, JoinAlgorithm, Parallelism, ShardedStore, Stats, StatsMaintainer, Store,
};
use rdfref_sync::atomic::{AtomicU64, Ordering};
use rdfref_sync::{mpsc, thread, Arc};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// An immutable published state of a [`ServingDatabase`]: explicit store,
/// maintained saturation, statistics and plan-cache epochs, all consistent
/// with one prefix of the applied update batches.
///
/// A snapshot is obtained from [`ServingDatabase::snapshot`] (lock-free) and
/// stays valid — and byte-identical — for as long as the `Arc` is held,
/// regardless of concurrent maintenance. Queries run with `&self`.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic publication sequence number (0 = the initial snapshot).
    seq: u64,
    /// Plan-cache schema epoch the snapshot is pinned to.
    schema_epoch: u64,
    /// Plan-cache data epoch the snapshot is pinned to.
    data_epoch: u64,
    /// Pre-assembled database over the snapshot's parts: explicit store,
    /// stats, schema closure, and the maintained saturation installed as
    /// [`SaturatedPart`] so `Sat` never saturates from scratch.
    db: Database,
    /// Explicit triple count (the store's length, recorded for reporting).
    explicit_len: usize,
    /// Saturated triple count.
    saturation_len: usize,
    /// When this snapshot was built (snapshot-age metrics).
    created: Instant,
}

impl Snapshot {
    /// Monotonic publication sequence number (0 = initial snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Identity of this snapshot for [`crate::Explain::snapshot`].
    pub fn info(&self) -> SnapshotInfo {
        SnapshotInfo::new(self.seq, self.schema_epoch, self.data_epoch)
    }

    /// The underlying prepared database (store, stats, schema accessors).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The dictionary this snapshot's triples are encoded against. Parse
    /// queries against it with
    /// [`rdfref_query::parse_select_with`]-style helpers that do not intern
    /// new terms, or intern via write batches.
    pub fn dictionary(&self) -> &rdfref_model::Dictionary {
        self.db.dictionary()
    }

    /// Number of explicit triples.
    pub fn explicit_len(&self) -> usize {
        self.explicit_len
    }

    /// Number of triples in the maintained saturation.
    pub fn saturation_len(&self) -> usize {
        self.saturation_len
    }

    /// Time since this snapshot was built.
    pub fn age(&self) -> Duration {
        self.created.elapsed()
    }

    /// Answer `cq` with `strategy` against this snapshot. Identical to
    /// [`Database::run_query`] but stamps [`crate::Explain::snapshot`] so
    /// callers can correlate answers with publication sequence numbers.
    pub fn run_query(
        &self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        let mut ans = self.db.run_query(cq, strategy, opts)?;
        ans.explain.snapshot = Some(self.info());
        Ok(ans)
    }

    /// Start building a query request against this snapshot.
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &Snapshot> {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for &Snapshot {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        Snapshot::run_query(self, cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        self.db.default_options()
    }
}

// ---------------------------------------------------------------------------
// SnapshotCell: the lock-free publication point
// ---------------------------------------------------------------------------

/// The snapshot publication point: the generic [`PubCell`] protocol
/// (`pubcell.rs`) instantiated for [`Snapshot`]. Readers resolve the
/// current snapshot with one `Acquire` load plus a thread-local lookup;
/// the protocol itself — monotonic publish, Release/Acquire version
/// handshake, TLS staleness bound — is model-checked in
/// `protocol_models.rs` (feature `model-check`).
type SnapshotCell = PubCell<Snapshot>;

impl Published for Snapshot {
    fn seq(&self) -> u64 {
        self.seq
    }
}

// ---------------------------------------------------------------------------
// WriterCore: the single-writer maintenance pipeline
// ---------------------------------------------------------------------------

/// Per-batch maintenance metrics, delivered through a [`BatchTicket`] after
/// the snapshot containing the batch is published.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct BatchReport {
    pub(crate) seq: u64,
    pub(crate) explicit_added: usize,
    pub(crate) explicit_removed: usize,
    pub(crate) saturation_added: usize,
    pub(crate) saturation_removed: usize,
    pub(crate) schema_changed: bool,
    pub(crate) resaturated: bool,
    pub(crate) apply_wall: Duration,
    pub(crate) queue_wait: Duration,
}

impl BatchReport {
    /// Sequence number of the first published snapshot containing this
    /// batch (coalesced batches share one publication).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Triples added to the explicit graph (requested minus duplicates).
    pub fn explicit_added(&self) -> usize {
        self.explicit_added
    }

    /// Triples removed from the explicit graph.
    pub fn explicit_removed(&self) -> usize {
        self.explicit_removed
    }

    /// Triples added to the saturation (explicit and derived).
    pub fn saturation_added(&self) -> usize {
        self.saturation_added
    }

    /// Triples removed from the saturation (DRed net removal).
    pub fn saturation_removed(&self) -> usize {
        self.saturation_removed
    }

    /// Did the batch touch RDFS constraints (forcing resaturation and a
    /// schema-epoch bump)?
    pub fn schema_changed(&self) -> bool {
        self.schema_changed
    }

    /// Was the saturation rebuilt from scratch (schema path)?
    pub fn resaturated(&self) -> bool {
        self.resaturated
    }

    /// Wall time spent applying this batch (reasoning + store/stats COW).
    pub fn apply_wall(&self) -> Duration {
        self.apply_wall
    }

    /// Time the batch spent queued before the writer picked it up (zero
    /// for synchronous application). It counts the applies of batches
    /// ahead of it, never its own: `queue_wait + apply_wall` is at most the
    /// submitter's submit-to-`wait` time.
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }
}

/// One predicate-hash partition's working state: copy-on-write explicit
/// and saturation stores restricted to the triples whose predicate routes
/// to this shard, plus their incrementally maintained statistics. Kept in
/// lockstep with the global working stores by [`WriterCore::fold_delta`].
#[derive(Debug)]
struct ShardState {
    explicit: Store,
    explicit_stats: Arc<Stats>,
    explicit_maintainer: StatsMaintainer,
    sat: Store,
    sat_stats: Arc<Stats>,
    sat_maintainer: StatsMaintainer,
}

impl ShardState {
    fn from_stores(explicit: Store, sat: Store) -> ShardState {
        let explicit_stats = Arc::new(Stats::compute(&explicit));
        let explicit_maintainer = StatsMaintainer::from_store(&explicit);
        let sat_stats = Arc::new(Stats::compute(&sat));
        let sat_maintainer = StatsMaintainer::from_store(&sat);
        ShardState {
            explicit,
            explicit_stats,
            explicit_maintainer,
            sat,
            sat_stats,
            sat_maintainer,
        }
    }
}

/// Partition `store`'s triples by `shard_of_predicate` into `n` stores.
/// Every triple — explicit and derived alike — is routed by its *own*
/// predicate id, so constant-predicate scans hit exactly one shard.
fn partition_store(store: &Store, n: usize) -> Vec<Store> {
    let mut parts: Vec<Vec<EncodedTriple>> = vec![Vec::new(); n];
    for t in store.iter() {
        parts[shard_of_predicate(t.p, n)].push(t);
    }
    parts.iter().map(|p| Store::from_triples(p)).collect()
}

/// The single-writer maintenance state: the incremental reasoner plus
/// copy-on-write working copies of everything a snapshot shares.
///
/// Used in two modes: synchronously behind `&mut self` by
/// [`MaintainedDatabase`](crate::MaintainedDatabase), and behind a mutex by
/// the [`ServingDatabase`] background maintenance thread. The working
/// stores evolve via [`Store::apply_delta`] (bucket-level copy-on-write)
/// driven by the exact [`MaintenanceDelta`]s the reasoner reports, and the
/// statistics via [`StatsMaintainer`] — no full rebuild on the data path.
///
/// With `shards > 1` the writer additionally maintains one [`ShardState`]
/// per predicate-hash partition, folding each delta triple into the shard
/// its predicate routes to. All shards advance inside the same `apply`
/// call, share the single plan cache and epoch pair, and are published at
/// the same sequence number — the cross-shard batch protocol that keeps
/// epoch-pinned plan-cache lookups valid on every shard.
#[derive(Debug)]
pub(crate) struct WriterCore {
    reasoner: IncrementalReasoner,
    /// Published dictionary snapshot; refreshed (one clone) whenever the
    /// reasoner's dictionary has grown since the last snapshot.
    dict: Arc<rdfref_model::Dictionary>,
    schema: Arc<Schema>,
    closure: Arc<SchemaClosure>,
    explicit_store: Store,
    explicit_stats: Arc<Stats>,
    explicit_maintainer: StatsMaintainer,
    sat_store: Store,
    sat_stats: Arc<Stats>,
    sat_maintainer: StatsMaintainer,
    /// Saturation triples touched by the last batch (added + removed);
    /// surfaces as `Explain::saturation_added` on Sat answers.
    last_delta: usize,
    /// Sequence number of the next snapshot (number of applied batches).
    seq: u64,
    cache: Arc<PlanCache>,
    obs: Obs,
    /// Which id space the working stores live in. The reasoner, dictionary
    /// and deltas always speak base ids; interval mode remaps deltas on the
    /// way into the stores and re-encodes wholesale on schema changes.
    encoding: DictEncoding,
    encoder: Option<Arc<HierarchyEncoder>>,
    /// Engine-default intra-query parallelism, stamped onto every snapshot
    /// database this writer assembles.
    parallelism: Parallelism,
    /// Engine-default physical join algorithm, stamped onto every snapshot
    /// database this writer assembles.
    join_algorithm: JoinAlgorithm,
    /// Predicate-hash partitions (empty when unsharded).
    shard_states: Vec<ShardState>,
}

impl WriterCore {
    pub(crate) fn from_graph(graph: Graph, cache: Arc<PlanCache>, obs: Obs) -> WriterCore {
        WriterCore::new(
            graph,
            cache,
            obs,
            DictEncoding::Classic,
            Parallelism::Off,
            JoinAlgorithm::BindJoin,
            1,
        )
    }

    pub(crate) fn new(
        graph: Graph,
        cache: Arc<PlanCache>,
        obs: Obs,
        encoding: DictEncoding,
        parallelism: Parallelism,
        join_algorithm: JoinAlgorithm,
        shards: usize,
    ) -> WriterCore {
        let mut reasoner = IncrementalReasoner::new(graph);
        reasoner.set_obs(obs.clone());
        let schema = Arc::new(Schema::from_graph(reasoner.explicit()));
        let closure = Arc::new(schema.closure());
        let dict = Arc::new(reasoner.explicit().dictionary().clone());
        let encoder = match encoding {
            DictEncoding::Classic => None,
            DictEncoding::Interval => Some(Arc::new(HierarchyEncoder::build(
                &schema,
                &closure,
                dict.len(),
            ))),
        };
        let build_store = |g: &Graph| match &encoder {
            Some(enc) => {
                let triples: Vec<EncodedTriple> =
                    g.triples().iter().map(|t| enc.encode_triple(t)).collect();
                Store::from_triples(&triples)
            }
            None => Store::from_graph(g),
        };
        let explicit_store = build_store(reasoner.explicit());
        let explicit_stats = Arc::new(Stats::compute(&explicit_store));
        let explicit_maintainer = StatsMaintainer::from_store(&explicit_store);
        let sat_store = build_store(reasoner.saturated());
        let sat_stats = Arc::new(Stats::compute(&sat_store));
        let sat_maintainer = StatsMaintainer::from_store(&sat_store);
        let last_delta = sat_store.len().saturating_sub(explicit_store.len());
        let shard_states = if shards > 1 {
            partition_store(&explicit_store, shards)
                .into_iter()
                .zip(partition_store(&sat_store, shards))
                .map(|(e, s)| ShardState::from_stores(e, s))
                .collect()
        } else {
            Vec::new()
        };
        WriterCore {
            reasoner,
            dict,
            schema,
            closure,
            explicit_store,
            explicit_stats,
            explicit_maintainer,
            sat_store,
            sat_stats,
            sat_maintainer,
            last_delta,
            seq: 0,
            cache,
            obs,
            encoding,
            encoder,
            parallelism,
            join_algorithm,
            shard_states,
        }
    }

    pub(crate) fn set_obs(&mut self, obs: Obs) {
        self.reasoner.set_obs(obs.clone());
        self.obs = obs;
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    pub(crate) fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    pub(crate) fn reasoner(&self) -> &IncrementalReasoner {
        &self.reasoner
    }

    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        self.reasoner.intern(term)
    }

    pub(crate) fn intern_triple(&mut self, s: &Term, p: &Term, o: &Term) -> EncodedTriple {
        self.reasoner.intern_triple(s, p, o)
    }

    /// Intern a term-level batch against the reasoner's dictionaries.
    fn intern_batch(&mut self, batch: &UpdateBatch) -> (Vec<EncodedTriple>, Vec<EncodedTriple>) {
        let encode = |r: &mut IncrementalReasoner, ts: &[Triple]| {
            ts.iter()
                .map(|t| r.intern_triple(&t.subject, &t.property, &t.object))
                .collect()
        };
        let inserts = encode(&mut self.reasoner, &batch.inserts);
        let deletes = encode(&mut self.reasoner, &batch.deletes);
        (inserts, deletes)
    }

    /// Does this batch change the RDFS constraints (as opposed to data
    /// only)? Decides whether the whole plan cache goes stale or just the
    /// cost-based entries.
    fn touches_schema(&self, triples: &[EncodedTriple]) -> bool {
        let dict = self.reasoner.explicit().dictionary();
        triples.iter().any(|t| {
            dict.term(t.p)
                .as_iri()
                .is_some_and(vocab::is_rdfs_constraint_property)
        })
    }

    /// Apply one batch: inserts first, then deletes, maintaining the
    /// saturation incrementally and folding the exact deltas into the
    /// copy-on-write stores and statistics. Bumps the plan cache's data
    /// epoch (and schema epoch on constraint changes) and advances the
    /// snapshot sequence number.
    pub(crate) fn apply(
        &mut self,
        inserts: &[EncodedTriple],
        deletes: &[EncodedTriple],
    ) -> BatchReport {
        // Clone the handle so the span guard doesn't pin `self.obs` across
        // the `&mut self` calls below.
        let obs = self.obs.clone();
        let _span = obs.span("maintain.batch");
        let start = Instant::now();
        let schema_changed = self.touches_schema(inserts) || self.touches_schema(deletes);

        let ins_delta = if inserts.is_empty() {
            MaintenanceDelta::default()
        } else {
            self.reasoner.insert_batch(inserts)
        };
        let del_delta = if deletes.is_empty() {
            MaintenanceDelta::default()
        } else {
            self.reasoner.delete_batch(deletes)
        };

        for delta in [&ins_delta, &del_delta] {
            self.fold_delta(delta);
        }
        if schema_changed {
            // Constraints changed: the Ref strategies' rewrite context must
            // be rebuilt (the data-path artifacts were still maintained
            // incrementally — the deltas are exact even across
            // resaturation).
            self.schema = Arc::new(Schema::from_graph(self.reasoner.explicit()));
            self.closure = Arc::new(self.schema.closure());
            // Interval mode: the hierarchy changed, so the id clustering is
            // stale — rebuild the encoder and re-encode both stores from
            // the reasoner's (base-space) graphs. The schema-epoch bump
            // below strands every plan cached against the old encoding.
            self.reencode();
        }
        self.sync_dict();

        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!(
                self.explicit_store.len(),
                self.reasoner.explicit().len(),
                "explicit COW store diverged from the reasoner's graph"
            );
            assert_eq!(
                self.sat_store.len(),
                self.reasoner.saturated().len(),
                "saturation COW store diverged from the reasoner's graph"
            );
        }

        self.cache.bump_data_epoch();
        if schema_changed {
            self.cache.bump_schema_epoch();
        }
        self.seq += 1;
        self.last_delta = ins_delta.saturation_added.len()
            + ins_delta.saturation_removed.len()
            + del_delta.saturation_added.len()
            + del_delta.saturation_removed.len();

        BatchReport {
            seq: self.seq,
            explicit_added: ins_delta.explicit_added.len() + del_delta.explicit_added.len(),
            explicit_removed: ins_delta.explicit_removed.len() + del_delta.explicit_removed.len(),
            saturation_added: ins_delta.saturation_added.len() + del_delta.saturation_added.len(),
            saturation_removed: ins_delta.saturation_removed.len()
                + del_delta.saturation_removed.len(),
            schema_changed,
            resaturated: ins_delta.resaturated || del_delta.resaturated,
            apply_wall: start.elapsed(),
            queue_wait: Duration::ZERO,
        }
    }

    /// The delta's triples transported into store id space (no-op slices
    /// stay borrowed for the classic path).
    fn encode_triples<'t>(
        &self,
        triples: &'t [EncodedTriple],
    ) -> std::borrow::Cow<'t, [EncodedTriple]> {
        match &self.encoder {
            Some(enc) => {
                std::borrow::Cow::Owned(triples.iter().map(|t| enc.encode_triple(t)).collect())
            }
            None => std::borrow::Cow::Borrowed(triples),
        }
    }

    /// Fold one exact maintenance delta into the working stores and stats.
    /// Deltas arrive in base id space (the reasoner's); interval mode
    /// remaps them here, at the store boundary. Sharded writers also route
    /// every delta triple into its predicate's partition, keeping the
    /// shards in lockstep with the global stores inside one `apply`.
    fn fold_delta(&mut self, delta: &MaintenanceDelta) {
        if !delta.explicit_added.is_empty() || !delta.explicit_removed.is_empty() {
            let added = self.encode_triples(&delta.explicit_added);
            let removed = self.encode_triples(&delta.explicit_removed);
            let next = self.explicit_store.apply_delta(&added, &removed);
            let stats =
                self.explicit_maintainer
                    .apply(&self.explicit_stats, &next, &added, &removed);
            self.explicit_store = next;
            self.explicit_stats = Arc::new(stats);
            self.fold_shard_deltas(&added, &removed, true);
        }
        if !delta.saturation_added.is_empty() || !delta.saturation_removed.is_empty() {
            let added = self.encode_triples(&delta.saturation_added);
            let removed = self.encode_triples(&delta.saturation_removed);
            let next = self.sat_store.apply_delta(&added, &removed);
            let stats = self
                .sat_maintainer
                .apply(&self.sat_stats, &next, &added, &removed);
            self.sat_store = next;
            self.sat_stats = Arc::new(stats);
            self.fold_shard_deltas(&added, &removed, false);
        }
    }

    /// Route one (already encoded) delta into the per-shard stores and
    /// statistics. `explicit` selects which side of each shard to fold.
    fn fold_shard_deltas(
        &mut self,
        added: &[EncodedTriple],
        removed: &[EncodedTriple],
        explicit: bool,
    ) {
        let n = self.shard_states.len();
        if n == 0 {
            return;
        }
        let route = |ts: &[EncodedTriple]| {
            let mut parts: Vec<Vec<EncodedTriple>> = vec![Vec::new(); n];
            for t in ts {
                parts[shard_of_predicate(t.p, n)].push(*t);
            }
            parts
        };
        let added_parts = route(added);
        let removed_parts = route(removed);
        for (shard, (a, r)) in self
            .shard_states
            .iter_mut()
            .zip(added_parts.iter().zip(removed_parts.iter()))
        {
            if a.is_empty() && r.is_empty() {
                continue;
            }
            if explicit {
                let next = shard.explicit.apply_delta(a, r);
                let stats = shard
                    .explicit_maintainer
                    .apply(&shard.explicit_stats, &next, a, r);
                shard.explicit = next;
                shard.explicit_stats = Arc::new(stats);
            } else {
                let next = shard.sat.apply_delta(a, r);
                let stats = shard.sat_maintainer.apply(&shard.sat_stats, &next, a, r);
                shard.sat = next;
                shard.sat_stats = Arc::new(stats);
            }
        }
    }

    /// Interval mode only: rebuild the encoder against the current schema
    /// closure and re-encode both working stores (and their statistics)
    /// from the reasoner's base-space graphs. Classic mode is a no-op.
    fn reencode(&mut self) {
        if self.encoding != DictEncoding::Interval {
            return;
        }
        let universe = self.reasoner.explicit().dictionary().len();
        let enc = Arc::new(HierarchyEncoder::build(
            &self.schema,
            &self.closure,
            universe,
        ));
        let build_store = |g: &Graph| {
            let triples: Vec<EncodedTriple> =
                g.triples().iter().map(|t| enc.encode_triple(t)).collect();
            Store::from_triples(&triples)
        };
        self.explicit_store = build_store(self.reasoner.explicit());
        self.sat_store = build_store(self.reasoner.saturated());
        self.explicit_stats = Arc::new(Stats::compute(&self.explicit_store));
        self.sat_stats = Arc::new(Stats::compute(&self.sat_store));
        self.explicit_maintainer = StatsMaintainer::from_store(&self.explicit_store);
        self.sat_maintainer = StatsMaintainer::from_store(&self.sat_store);
        self.encoder = Some(enc);
    }

    /// Refresh the published dictionary if the reasoner's has grown (one
    /// dictionary clone per term-adding batch; term ids are stable, so all
    /// previously published snapshots stay valid).
    pub(crate) fn sync_dict(&mut self) {
        let live = self.reasoner.explicit().dictionary();
        if live.len() != self.dict.len() {
            self.dict = Arc::new(live.clone());
        }
    }

    /// The engine-default intra-query parallelism policy.
    pub(crate) fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The engine-default physical join algorithm.
    pub(crate) fn join_algorithm(&self) -> JoinAlgorithm {
        self.join_algorithm
    }

    /// Wrap pre-built parts into a snapshot at the current seq/epochs.
    fn snapshot_from(
        &self,
        explicit: DataSource,
        sat: DataSource,
        stats: Arc<Stats>,
        sat_stats: Arc<Stats>,
    ) -> Arc<Snapshot> {
        let explicit_len = explicit.len();
        let saturation_len = sat.len();
        let db = Database::from_parts(
            Arc::clone(&self.dict),
            Arc::clone(&self.schema),
            Arc::clone(&self.closure),
            explicit,
            stats,
            Some(SaturatedPart {
                store: sat,
                stats: sat_stats,
                added: self.last_delta,
            }),
            Arc::clone(&self.cache),
            (self.cache.schema_epoch(), self.cache.data_epoch()),
            self.obs.clone(),
            self.encoder.clone(),
            self.parallelism,
            self.join_algorithm,
        );
        Arc::new(Snapshot {
            seq: self.seq,
            schema_epoch: self.cache.schema_epoch(),
            data_epoch: self.cache.data_epoch(),
            explicit_len,
            saturation_len,
            db,
            created: Instant::now(),
        })
    }

    /// Assemble an immutable snapshot of the current working state: a few
    /// `Arc` clones plus store handle copies (bucket-shared). Sharded
    /// writers hand out the scatter-gather view ([`ShardedStore`]) so
    /// constant-predicate scans hit exactly one partition.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        let (explicit, sat) = if self.shard_states.is_empty() {
            (
                DataSource::Single(self.explicit_store.clone()),
                DataSource::Single(self.sat_store.clone()),
            )
        } else {
            (
                DataSource::Sharded(ShardedStore::from_shards(
                    self.shard_states
                        .iter()
                        .map(|s| Arc::new(s.explicit.clone()))
                        .collect(),
                )),
                DataSource::Sharded(ShardedStore::from_shards(
                    self.shard_states
                        .iter()
                        .map(|s| Arc::new(s.sat.clone()))
                        .collect(),
                )),
            )
        };
        self.snapshot_from(
            explicit,
            sat,
            Arc::clone(&self.explicit_stats),
            Arc::clone(&self.sat_stats),
        )
    }

    /// One snapshot per shard, each a fully answerable database restricted
    /// to its partition's triples (with per-shard statistics). All carry
    /// the same seq and epochs as the global snapshot built in the same
    /// publication — the epoch-lockstep contract.
    pub(crate) fn shard_snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.shard_states
            .iter()
            .map(|s| {
                self.snapshot_from(
                    DataSource::Single(s.explicit.clone()),
                    DataSource::Single(s.sat.clone()),
                    Arc::clone(&s.explicit_stats),
                    Arc::clone(&s.sat_stats),
                )
            })
            .collect()
    }

    /// The global snapshot followed by the per-shard snapshots (empty tail
    /// when unsharded) — everything one publication installs, built under
    /// one `&self` borrow so no batch can interleave.
    pub(crate) fn all_snapshots(&self) -> Vec<Arc<Snapshot>> {
        let mut snaps = vec![self.snapshot()];
        snaps.extend(self.shard_snapshots());
        #[cfg(feature = "strict-invariants")]
        {
            let global = &snaps[0];
            let mut shard_explicit = 0;
            for s in &snaps[1..] {
                assert_eq!(
                    (s.seq, s.schema_epoch, s.data_epoch),
                    (global.seq, global.schema_epoch, global.data_epoch),
                    "shard snapshot broke epoch lockstep"
                );
                shard_explicit += s.explicit_len;
            }
            if snaps.len() > 1 {
                assert_eq!(
                    shard_explicit, global.explicit_len,
                    "shard partitions do not cover the explicit store"
                );
            }
        }
        snaps
    }
}

// ---------------------------------------------------------------------------
// ServingDatabase: concurrent façade
// ---------------------------------------------------------------------------

/// A term-level batch of updates for [`ServingDatabase::submit`]. Inserts
/// are applied before deletes; a triple both inserted and deleted in one
/// batch therefore ends up absent.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    inserts: Vec<Triple>,
    deletes: Vec<Triple>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// A pure insertion batch.
    pub fn inserting(triples: Vec<Triple>) -> UpdateBatch {
        UpdateBatch {
            inserts: triples,
            deletes: Vec::new(),
        }
    }

    /// A pure deletion batch.
    pub fn deleting(triples: Vec<Triple>) -> UpdateBatch {
        UpdateBatch {
            inserts: Vec::new(),
            deletes: triples,
        }
    }

    /// Add an insertion (builder style).
    pub fn insert(mut self, triple: Triple) -> UpdateBatch {
        self.inserts.push(triple);
        self
    }

    /// Add a deletion (builder style).
    pub fn delete(mut self, triple: Triple) -> UpdateBatch {
        self.deletes.push(triple);
        self
    }

    /// The triples to insert.
    pub fn inserts(&self) -> &[Triple] {
        &self.inserts
    }

    /// The triples to delete.
    pub fn deletes(&self) -> &[Triple] {
        &self.deletes
    }

    /// True when the batch requests nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Completion handle for a submitted [`UpdateBatch`]: resolves to the
/// batch's [`BatchReport`] once the snapshot containing it is published.
/// Waiting on the ticket therefore guarantees read-your-writes: a
/// subsequent [`ServingDatabase::snapshot`] includes the batch.
#[derive(Debug)]
pub struct BatchTicket {
    reply: mpsc::Receiver<BatchReport>,
}

impl BatchTicket {
    /// Assemble a ticket around a bare reply channel: the model checker
    /// (`protocol_models`) drives `wait` against a scripted writer loop.
    #[cfg(feature = "model-check")]
    pub(crate) fn from_reply(reply: mpsc::Receiver<BatchReport>) -> BatchTicket {
        BatchTicket { reply }
    }

    /// Block until the batch is applied and published.
    pub fn wait(self) -> Result<BatchReport> {
        self.reply.recv().map_err(|_| CoreError::ServingStopped)
    }

    /// Non-blocking poll: the report if the batch has been published.
    pub fn try_wait(&self) -> Option<BatchReport> {
        self.reply.try_recv().ok()
    }
}

/// A pending write and where to send its report.
struct PendingBatch {
    batch: UpdateBatch,
    enqueued: Instant,
    reply: mpsc::Sender<BatchReport>,
}

/// Maximum batches coalesced into one snapshot publication. Bounds both
/// publication latency (a reader sees at most this many batches land at
/// once) and the per-iteration writer lock hold time.
const MAX_COALESCED_BATCHES: usize = 64;

/// A concurrently servable database: lock-free snapshot readers, a
/// single-writer background maintenance pipeline, everything through
/// `&self`.
///
/// The data may be split over N predicate-hash shards
/// ([`EngineBuilder::shards`]); one shard is the default. The cross-shard
/// batch protocol: the single writer folds every [`UpdateBatch`] into the
/// global stores *and* each affected shard inside one `apply` call, then
/// publishes the global snapshot and all shard snapshots carrying the
/// **same** sequence number and plan-cache epoch pair. Readers therefore
/// see shards in lockstep — an epoch-pinned plan-cache entry valid on one
/// shard is valid on all of them, and [`ServingDatabase::shard_snapshot`]s
/// taken after a ticket resolves all contain the batch. Queries through
/// [`ServingDatabase::snapshot`] / [`ServingDatabase::query`] run
/// scatter-gather over the shards: a constant-predicate scan touches
/// exactly the one shard its predicate hashes to; wildcard and
/// interval-predicate scans fan out and union.
///
/// ```
/// use rdfref_core::{Database, Strategy};
/// use rdfref_model::parser::parse_turtle;
/// use rdfref_model::{Term, Triple};
/// use rdfref_query::parse_select;
///
/// let mut g = parse_turtle(
///     "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
///      @prefix ex: <http://example.org/> .
///      ex:Book rdfs:subClassOf ex:Publication .
///      ex:doi1 a ex:Book .",
/// )
/// .unwrap();
/// let q = parse_select(
///     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
///     g.dictionary_mut(),
/// )
/// .unwrap();
/// let db = Database::builder().build_serving(g);
///
/// // Reads are `&self` and lock-free; each answer is snapshot-consistent.
/// let before = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
/// assert_eq!(before.len(), 1);
///
/// // Writes are `&self` too: submit a batch, wait on the ticket for
/// // read-your-writes.
/// let t = Triple::new(
///     Term::iri("http://example.org/doi2"),
///     Term::iri(rdfref_model::vocab::RDF_TYPE),
///     Term::iri("http://example.org/Book"),
/// )
/// .unwrap();
/// let report = db.insert(vec![t]).unwrap().wait().unwrap();
/// assert_eq!(report.explicit_added(), 1);
/// let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
/// assert_eq!(after.len(), 2);
/// ```
#[derive(Debug)]
pub struct ServingDatabase {
    /// Publication cells, in the order [`WriterCore::all_snapshots`] builds
    /// them: index 0 is the global cell every query reads; with more than
    /// one shard, the per-shard cells follow in shard order.
    cells: Vec<Arc<SnapshotCell>>,
    /// The batch queue to the maintenance thread; `None` once dropping.
    queue: Option<mpsc::Sender<PendingBatch>>,
    worker: Option<thread::JoinHandle<()>>,
    /// Sequence number of the latest published snapshot (reader-lag
    /// metrics).
    published_seq: Arc<AtomicU64>,
    cache: Arc<PlanCache>,
    obs: Obs,
    /// Engine-default intra-query parallelism (request-builder default).
    parallelism: Parallelism,
    /// Engine-default physical join algorithm (request-builder default).
    join_algorithm: JoinAlgorithm,
}

impl ServingDatabase {
    /// Build from an [`EngineBuilder`] (saturates once, partitions into
    /// [`EngineBuilder::shards`] shards), publish the initial snapshots and
    /// start the background maintenance thread. Reached via
    /// [`Database::builder`]`().build_serving(graph)`.
    pub(crate) fn from_builder(graph: Graph, b: &EngineBuilder) -> ServingDatabase {
        let cache = b.plan_cache();
        let writer = WriterCore::new(
            graph,
            Arc::clone(&cache),
            b.obs.clone(),
            b.encoding,
            b.parallelism,
            b.join_algorithm,
            b.shards,
        );
        let parallelism = writer.parallelism();
        let join_algorithm = writer.join_algorithm();
        let obs = writer.obs().clone();
        obs.gauge("serving.shards", b.shards as u64);
        let initial = writer.all_snapshots();
        let published_seq = Arc::new(AtomicU64::new(initial[0].seq));
        let cells: Vec<Arc<SnapshotCell>> = initial
            .into_iter()
            .map(|s| Arc::new(SnapshotCell::new(s)))
            .collect();
        let (tx, rx) = mpsc::channel::<PendingBatch>();
        let worker = {
            let cells = cells.clone();
            let published_seq = Arc::clone(&published_seq);
            let obs = obs.clone();
            let spawned = thread::Builder::new()
                .name("rdfref-serving-writer".into())
                .spawn(move || writer_loop(writer, rx, cells, published_seq, obs));
            match spawned {
                Ok(handle) => handle,
                // Spawn fails only on resource exhaustion (EAGAIN); like
                // OOM that is not a recoverable condition, and a Result
                // constructor would push an un-actionable error onto every
                // caller — abort instead of panicking through a poisoned
                // half-built database.
                Err(_) => std::process::abort(),
            }
        };
        ServingDatabase {
            cells,
            queue: Some(tx),
            worker: Some(worker),
            published_seq,
            cache,
            obs,
            parallelism,
            join_algorithm,
        }
    }

    /// The current global snapshot (scatter-gather over the shards when
    /// there are several) — one `Acquire` load and a thread-local lookup on
    /// the fast path; never blocks behind the writer.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let snap = self.cells[0].current();
        if self.obs.enabled() {
            let published = self.published_seq.load(Ordering::Acquire);
            self.obs.observe(
                "serving.reader.epoch_lag",
                published.saturating_sub(snap.seq),
            );
        }
        snap
    }

    /// Number of predicate-hash shards (1 unless built with
    /// [`EngineBuilder::shards`]).
    pub fn shard_count(&self) -> usize {
        self.cells.len().saturating_sub(1).max(1)
    }

    /// Shard `i`'s current snapshot: a fully answerable database restricted
    /// to the triples whose predicate hashes to `i`, carrying the same seq
    /// and epochs as the global snapshot published with it. With one shard
    /// the global cell *is* the shard, so `shard_snapshot(0)` aliases
    /// [`ServingDatabase::snapshot`].
    ///
    /// # Panics
    ///
    /// If `i >= self.shard_count()`.
    pub fn shard_snapshot(&self, i: usize) -> Arc<Snapshot> {
        let first_shard = usize::from(self.cells.len() > 1);
        self.cells[first_shard + i].current()
    }

    /// Sequence number of the latest published snapshot.
    pub fn published_seq(&self) -> u64 {
        self.published_seq.load(Ordering::Acquire)
    }

    /// The plan cache shared by the global view and every shard (one epoch
    /// pair — the lockstep invariant; snapshot-pinned lookups, see
    /// [`crate::cache`]).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The observability sink.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Enqueue a write batch for the maintenance pipeline. Returns
    /// immediately with a [`BatchTicket`]; wait on it for the per-batch
    /// [`BatchReport`] (delivered after the global and every shard snapshot
    /// containing the batch are published — read-your-writes).
    pub fn submit(&self, batch: UpdateBatch) -> Result<BatchTicket> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let pending = PendingBatch {
            batch,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        self.queue
            .as_ref()
            .ok_or(CoreError::ServingStopped)?
            .send(pending)
            .map_err(|_| CoreError::ServingStopped)?;
        Ok(BatchTicket { reply: reply_rx })
    }

    /// Convenience: submit a pure insertion batch.
    pub fn insert(&self, triples: Vec<Triple>) -> Result<BatchTicket> {
        self.submit(UpdateBatch::inserting(triples))
    }

    /// Convenience: submit a pure deletion batch.
    pub fn delete(&self, triples: Vec<Triple>) -> Result<BatchTicket> {
        self.submit(UpdateBatch::deleting(triples))
    }

    /// Start building a query request against the current snapshot (the
    /// snapshot is taken once, when [`QueryRequest::run`] executes).
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &ServingDatabase> {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for &ServingDatabase {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        ServingDatabase::snapshot(self).run_query(cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        AnswerOptions::default()
            .with_parallelism(self.parallelism)
            .with_join_algorithm(self.join_algorithm)
    }
}

impl Drop for ServingDatabase {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain already-submitted batches
        // and exit; join so no maintenance outlives the database.
        self.queue = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The background maintenance loop: drain pending batches (coalescing up
/// to [`MAX_COALESCED_BATCHES`] per publication), apply them against the
/// writer state, build one snapshot set (global + shards, one consistent
/// seq/epoch), publish it cell by cell, then deliver the per-batch reports.
fn writer_loop(
    mut writer: WriterCore,
    rx: mpsc::Receiver<PendingBatch>,
    cells: Vec<Arc<SnapshotCell>>,
    published_seq: Arc<AtomicU64>,
    obs: Obs,
) {
    while let Ok(first) = rx.recv() {
        let mut pending = vec![first];
        while pending.len() < MAX_COALESCED_BATCHES {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(_) => break,
            }
        }
        let mut reports = Vec::with_capacity(pending.len());
        for p in &pending {
            // Taken at pickup: the wait ends where this batch's own apply
            // begins, so it excludes the apply and is disjoint from
            // `apply_wall`.
            let queue_wait = p.enqueued.elapsed();
            let (inserts, deletes) = writer.intern_batch(&p.batch);
            let mut report = writer.apply(&inserts, &deletes);
            report.queue_wait = queue_wait;
            reports.push(report);
        }
        let snaps = writer.all_snapshots();
        // Publish the previous global snapshot's lifetime before replacing
        // it.
        if obs.enabled() {
            obs.observe(
                "serving.snapshot.age_us",
                cells[0].current().age().as_micros() as u64,
            );
        }
        // Shard cells first, global last (`publish_all`): a reader that
        // sees the new global seq is guaranteed to find every shard at
        // least as new (the monotonic-publish rule makes stragglers
        // harmless either way).
        let seq = snaps[0].seq;
        if publish_all(&cells, &snaps) {
            obs.add("serving.publish", 1);
        } else {
            obs.add("serving.publish.skipped_stale", 1);
        }
        published_seq.store(seq, Ordering::Release);
        obs.gauge("serving.snapshot.seq", seq);
        obs.observe("serving.batch.coalesced", pending.len() as u64);
        for (p, report) in pending.into_iter().zip(reports) {
            obs.observe(
                "serving.batch.queue_wait_us",
                report.queue_wait.as_micros() as u64,
            );
            obs.observe(
                "serving.batch.apply_us",
                report.apply_wall.as_micros() as u64,
            );
            // A dropped ticket just means the submitter doesn't care.
            let _ = p.reply.send(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::parser::parse_turtle;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
"#;

    fn setup() -> (ServingDatabase, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        (Database::builder().build_serving(g), q)
    }

    fn setup_sharded(shards: usize) -> (ServingDatabase, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        (Database::builder().shards(shards).build_serving(g), q)
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://example.org/{s}"))
    }

    fn triple(s: &str, p: &Term, o: &str) -> Triple {
        Triple::new(iri(s), p.clone(), iri(o)).unwrap()
    }

    #[test]
    fn snapshot_reads_are_consistent_across_writes() {
        let (db, q) = setup();
        let before = db.snapshot();
        assert_eq!(before.seq(), 0);
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let report = db
            .insert(vec![triple("doi2", &rdf_type, "Book")])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.seq(), 1);
        assert_eq!(report.explicit_added(), 1);
        assert!(report.saturation_added() >= 2, "explicit + derived type");

        // The old snapshot still answers the pre-write state…
        let old = before
            .run_query(&q, &Strategy::Saturation, &AnswerOptions::default())
            .unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old.explain.snapshot.unwrap().seq(), 0);
        // …while a fresh snapshot sees the write.
        let new = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(new.len(), 2);
        assert_eq!(new.explain.snapshot.unwrap().seq(), 1);
        assert_eq!(db.published_seq(), 1);
    }

    #[test]
    fn all_complete_strategies_agree_on_a_snapshot() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        db.insert(vec![triple("doi5", &rdf_type, "Book")])
            .unwrap()
            .wait()
            .unwrap();
        let snap = db.snapshot();
        let opts = AnswerOptions::default();
        let reference = snap.run_query(&q, &Strategy::Saturation, &opts).unwrap();
        for s in [
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
            Strategy::Datalog,
        ] {
            let got = snap.run_query(&q, &s, &opts).unwrap();
            assert_eq!(got.rows(), reference.rows(), "strategy {}", s.name());
        }
    }

    #[test]
    fn delete_batches_unwind_insertions() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("doi6", &rdf_type, "Book");
        db.insert(vec![t.clone()]).unwrap().wait().unwrap();
        let report = db.delete(vec![t]).unwrap().wait().unwrap();
        assert_eq!(report.explicit_removed(), 1);
        assert!(report.saturation_removed() >= 2);
        let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn schema_batches_resaturate_and_bump_schema_epoch() {
        let (db, q) = setup();
        // Warm a reformulation so the schema bump has something to strand.
        db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        let before = db.plan_cache().schema_epoch();
        let batch = UpdateBatch::new()
            .insert(
                Triple::new(
                    iri("Novel"),
                    Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
                    iri("Book"),
                )
                .unwrap(),
            )
            .insert(triple(
                "doi7",
                &Term::iri(rdfref_model::vocab::RDF_TYPE),
                "Novel",
            ));
        let report = db.submit(batch).unwrap().wait().unwrap();
        assert!(report.schema_changed());
        assert!(report.resaturated());
        assert_eq!(db.plan_cache().schema_epoch(), before + 1);
        let after = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        assert_eq!(after.len(), 2, "new Novel instance reached via new ⊑");
        let sat = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.rows(), sat.rows());
    }

    #[test]
    fn mixed_batch_applies_inserts_before_deletes() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("doi8", &rdf_type, "Book");
        let batch = UpdateBatch::new().insert(t.clone()).delete(t);
        db.submit(batch).unwrap().wait().unwrap();
        let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.len(), 1, "insert-then-delete nets to absent");
    }

    #[test]
    fn tickets_resolve_in_submission_order_after_publication() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let tickets: Vec<BatchTicket> = (0..10)
            .map(|i| {
                db.insert(vec![triple(&format!("bulk{i}"), &rdf_type, "Book")])
                    .unwrap()
            })
            .collect();
        let mut last_seq = 0;
        for t in tickets {
            let report = t.wait().unwrap();
            assert!(report.seq() > last_seq || report.seq() == last_seq + 1);
            assert!(report.seq() >= last_seq, "seqs are monotone in order");
            last_seq = report.seq();
        }
        // All ten batches applied; the published snapshot contains them all.
        assert_eq!(db.published_seq(), 10);
        assert_eq!(db.snapshot().explicit_len(), 3 + 10);
    }

    #[test]
    fn queue_wait_and_apply_wall_fit_inside_the_submitters_wait() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        for round in 0..5 {
            // Large enough that the apply dominates the round trip: a
            // queue wait that also counted the apply would overshoot.
            let batch: Vec<Triple> = (0..500)
                .map(|i| triple(&format!("qw{round}_{i}"), &rdf_type, "Book"))
                .collect();
            let start = Instant::now();
            let report = db.insert(batch).unwrap().wait().unwrap();
            let wall = start.elapsed();
            assert!(
                report.queue_wait() + report.apply_wall() <= wall,
                "round {round}: queue_wait {:?} + apply_wall {:?} > wall {:?}",
                report.queue_wait(),
                report.apply_wall(),
                wall
            );
        }
    }

    #[test]
    fn empty_batch_still_publishes_and_reports() {
        let (db, _q) = setup();
        let report = db.submit(UpdateBatch::new()).unwrap().wait().unwrap();
        assert_eq!(report.explicit_added(), 0);
        assert_eq!(report.saturation_added(), 0);
        assert!(!report.schema_changed());
    }

    #[test]
    fn sharded_answers_match_single_across_strategies() {
        let (sharded, q) = setup_sharded(4);
        let (single, _) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        for i in 0..6 {
            let t = triple(&format!("sdoi{i}"), &rdf_type, "Book");
            sharded.insert(vec![t.clone()]).unwrap().wait().unwrap();
            single.insert(vec![t]).unwrap().wait().unwrap();
        }
        let a = sharded.snapshot();
        let b = single.snapshot();
        assert_eq!(a.explicit_len(), b.explicit_len());
        let opts = AnswerOptions::default();
        for s in [
            Strategy::Saturation,
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
        ] {
            let got = a.run_query(&q, &s, &opts).unwrap();
            let want = b.run_query(&q, &s, &opts).unwrap();
            assert_eq!(got.rows(), want.rows(), "strategy {}", s.name());
        }
    }

    #[test]
    fn shard_snapshots_stay_in_epoch_lockstep_across_schema_bump() {
        let (db, _q) = setup_sharded(3);
        // A schema batch forces resaturation and a schema-epoch bump; every
        // shard must republish at the same seq and epochs.
        let batch = UpdateBatch::new()
            .insert(
                Triple::new(
                    iri("Novel"),
                    Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
                    iri("Book"),
                )
                .unwrap(),
            )
            .insert(triple(
                "sdoi9",
                &Term::iri(rdfref_model::vocab::RDF_TYPE),
                "Novel",
            ));
        let report = db.submit(batch).unwrap().wait().unwrap();
        assert!(report.schema_changed());
        let global = db.snapshot();
        let mut shard_explicit = 0;
        for i in 0..db.shard_count() {
            let shard = db.shard_snapshot(i);
            assert_eq!(shard.seq(), global.seq(), "shard {i} seq out of lockstep");
            assert_eq!(
                shard.info(),
                global.info(),
                "shard {i} epochs out of lockstep"
            );
            shard_explicit += shard.explicit_len();
        }
        assert_eq!(shard_explicit, global.explicit_len());
    }

    #[test]
    fn sharded_database_reports_its_layout() {
        let (db, q) = setup_sharded(4);
        assert_eq!(db.shard_count(), 4);
        assert_eq!(db.snapshot().database().shard_count(), 4);
        // Deletes route to the same shard as the insert that created them.
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("sdel", &rdf_type, "Book");
        db.insert(vec![t.clone()]).unwrap().wait().unwrap();
        let report = db.delete(vec![t]).unwrap().wait().unwrap();
        assert_eq!(report.explicit_removed(), 1);
        let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn one_shard_database_degenerates_to_global_cell() {
        let (db, q) = setup();
        assert_eq!(db.shard_count(), 1);
        assert_eq!(db.snapshot().database().shard_count(), 1);
        let global = db.snapshot();
        let shard = db.shard_snapshot(0);
        assert_eq!(global.seq(), shard.seq());
        assert_eq!(global.explicit_len(), shard.explicit_len());
        assert_eq!(db.query(&q).run().unwrap().len(), 1);
    }

    #[test]
    fn snapshot_cell_skips_stale_publications() {
        let (db, _q) = setup();
        let old = db.snapshot();
        db.insert(vec![triple(
            "doiX",
            &Term::iri(rdfref_model::vocab::RDF_TYPE),
            "Book",
        )])
        .unwrap()
        .wait()
        .unwrap();
        // Re-publishing the old snapshot must be refused (monotonicity).
        assert!(!db.cells[0].publish(old));
        assert_eq!(db.snapshot().seq(), 1);
    }

    #[test]
    fn dropping_the_database_drains_submitted_batches() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let tickets: Vec<BatchTicket> = (0..5)
            .map(|i| {
                db.insert(vec![triple(&format!("drain{i}"), &rdf_type, "Book")])
                    .unwrap()
            })
            .collect();
        drop(db);
        // Every ticket resolves: the worker drained the queue before exit.
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn generic_engine_harness_accepts_serving_database() {
        fn run<E: QueryEngine>(mut engine: E, cq: &Cq) -> usize {
            engine
                .run_query(cq, &Strategy::RefUcq, &AnswerOptions::default())
                .unwrap()
                .len()
        }
        let (db, q) = setup();
        assert_eq!(run(&db, &q), 1);
        let snap = db.snapshot();
        assert_eq!(run(&*snap, &q), 1);
    }
}
