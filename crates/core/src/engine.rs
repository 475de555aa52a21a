//! The unified request API: the [`QueryEngine`] trait and the
//! [`QueryRequest`] builder.
//!
//! Historically [`Database::answer`] and `MaintainedDatabase::answer` had
//! drifted signatures (`&self` vs `&mut self`, strategy by value), so code
//! that wanted to run the same workload against both — the CLI shell, the
//! `exp_*` binaries, the cross-strategy completeness tests — had to be
//! written twice. [`QueryEngine`] is the common surface; both database
//! types (and their references) implement it, so harness code is generic:
//!
//! ```
//! use rdfref_core::answer::{AnswerOptions, Database, Strategy};
//! use rdfref_core::engine::QueryEngine;
//! use rdfref_model::parser::parse_turtle;
//! use rdfref_query::parse_select;
//!
//! fn run<E: QueryEngine>(engine: &mut E, q: &rdfref_query::Cq) -> usize {
//!     engine
//!         .run_query(q, &Strategy::RefGCov, &AnswerOptions::default())
//!         .unwrap()
//!         .len()
//! }
//!
//! let mut graph = parse_turtle(r#"
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:Book rdfs:subClassOf ex:Publication .
//!     ex:doi1 a ex:Book .
//! "#).unwrap();
//! let q = parse_select(
//!     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
//!     graph.dictionary_mut(),
//! ).unwrap();
//! let mut db = Database::builder().build(graph);
//! assert_eq!(run(&mut db, &q), 1);
//! ```
//!
//! For application code the ergonomic entry point is the builder:
//!
//! ```ignore
//! let answer = db
//!     .query(&cq)
//!     .strategy(Strategy::RefGCov)
//!     .row_budget(1_000_000)
//!     .parallelism(Parallelism::morsels())
//!     .collect_metrics(&registry)
//!     .run()?;
//! ```

use crate::answer::{AnswerOptions, Database, QueryAnswer, Strategy};
use crate::error::Result;
use crate::gcov::GcovOptions;
use crate::maintained::MaintainedDatabase;
use crate::reformulate::ucq::ReformulationLimits;
use rdfref_obs::{MetricsRegistry, Obs};
use rdfref_query::Cq;
use rdfref_storage::{JoinAlgorithm, Parallelism};
use rdfref_sync::Arc;

/// Anything that can answer a BGP query with a [`Strategy`].
///
/// Implemented by [`Database`] (and `&Database`, which is how concurrent
/// harnesses share one database across threads) and by
/// [`MaintainedDatabase`]. The receiver is `&mut self` — the lowest common
/// denominator, since maintained databases rebuild stores lazily.
pub trait QueryEngine {
    /// Answer `cq` with `strategy` under `opts`.
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer>;

    /// The options a fresh [`QueryRequest`] starts from. Engines built with
    /// a non-default parallelism policy (see
    /// [`crate::EngineBuilder::parallelism`]) override this so requests
    /// inherit the engine default; explicit request knobs still win.
    fn default_options(&self) -> AnswerOptions {
        AnswerOptions::default()
    }

    /// Start a request for `cq` against this engine (builder style).
    fn query<'q>(&mut self, cq: &'q Cq) -> QueryRequest<'q, &mut Self>
    where
        Self: Sized,
    {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for Database {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        Database::run_query(self, cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        AnswerOptions::default()
            .with_parallelism(self.default_parallelism())
            .with_join_algorithm(self.default_join_algorithm())
    }
}

/// A shared database answers through `&Database` — this is what lets
/// `Arc<Database>` be queried from many threads at once.
impl QueryEngine for &Database {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        Database::run_query(self, cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        AnswerOptions::default()
            .with_parallelism(self.default_parallelism())
            .with_join_algorithm(self.default_join_algorithm())
    }
}

impl QueryEngine for MaintainedDatabase {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        MaintainedDatabase::run_query(self, cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        AnswerOptions::default()
            .with_parallelism(self.default_parallelism())
            .with_join_algorithm(self.default_join_algorithm())
    }
}

impl<E: QueryEngine> QueryEngine for &mut E {
    fn run_query(
        &mut self,
        cq: &Cq,
        strategy: &Strategy,
        opts: &AnswerOptions,
    ) -> Result<QueryAnswer> {
        (**self).run_query(cq, strategy, opts)
    }

    fn default_options(&self) -> AnswerOptions {
        (**self).default_options()
    }
}

/// A fluent, single-use request against a [`QueryEngine`].
///
/// Build with [`Database::query`], [`MaintainedDatabase::query`], or
/// [`QueryEngine::query`]; finish with [`QueryRequest::run`]. Defaults:
/// `Strategy::RefGCov` (the paper's recommended strategy) and
/// [`AnswerOptions::default`].
#[must_use = "a QueryRequest does nothing until .run()"]
#[derive(Debug)]
pub struct QueryRequest<'q, E> {
    engine: E,
    cq: &'q Cq,
    strategy: Strategy,
    opts: AnswerOptions,
}

impl<'q, E: QueryEngine> QueryRequest<'q, E> {
    /// Start a request with the default strategy and the engine's default
    /// options (which carry the engine-level parallelism policy).
    pub fn new(engine: E, cq: &'q Cq) -> Self {
        let opts = engine.default_options();
        QueryRequest {
            engine,
            cq,
            strategy: Strategy::RefGCov,
            opts,
        }
    }

    /// Select the answering strategy (default: `RefGCov`).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replace the whole option block at once.
    pub fn options(mut self, opts: AnswerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Abort evaluation when an intermediate relation exceeds `rows`.
    pub fn row_budget(mut self, rows: usize) -> Self {
        self.opts.row_budget = Some(rows);
        self
    }

    /// Set the intra-query parallelism policy: `Parallelism::Off` or
    /// `Parallelism::Morsels { size }` (scans and bind-joins split into
    /// fixed-size morsels, and large unions into one unit per disjunct,
    /// claimed by a self-scheduling worker pool).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.opts.parallelism = parallelism;
        self
    }

    /// Set the physical join algorithm for CQ bodies:
    /// `JoinAlgorithm::BindJoin` (left-deep chains, the default),
    /// `JoinAlgorithm::Wcoj` (leapfrog triejoin over the permutation
    /// indexes) or `JoinAlgorithm::Auto` (cost-model choice per CQ).
    pub fn join_algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.opts.join_algorithm = algorithm;
        self
    }

    /// Set the reformulation size limits.
    pub fn limits(mut self, limits: ReformulationLimits) -> Self {
        self.opts.limits = limits;
        self
    }

    /// Set the GCov search options (`RefGCov` only).
    pub fn gcov_options(mut self, gcov: GcovOptions) -> Self {
        self.opts.gcov = gcov;
        self
    }

    /// Enable or disable the plan cache for this request.
    pub fn use_cache(mut self, on: bool) -> Self {
        self.opts.use_cache = on;
        self
    }

    /// Record spans, counters and histograms for this request into
    /// `registry` (see [`rdfref_obs`]).
    pub fn collect_metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        let recorder: Arc<dyn rdfref_obs::Recorder> = Arc::clone(registry) as _;
        self.opts.obs = Obs::collecting(recorder);
        self
    }

    /// Install an arbitrary per-request observability sink.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.opts.obs = obs;
        self
    }

    /// Execute the request.
    pub fn run(mut self) -> Result<QueryAnswer> {
        self.engine.run_query(self.cq, &self.strategy, &self.opts)
    }
}

impl Database {
    /// Start a request for `cq` (builder style); see [`QueryRequest`].
    ///
    /// Takes `&self`: a plain database answers without mutation, so shared
    /// handles (`&Database`, `Arc<Database>`) can build requests directly.
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &Database> {
        QueryRequest::new(self, cq)
    }
}

impl MaintainedDatabase {
    /// Start a request for `cq` (builder style); see [`QueryRequest`].
    pub fn query<'q>(&mut self, cq: &'q Cq) -> QueryRequest<'q, &mut MaintainedDatabase> {
        QueryRequest::new(self, cq)
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
ex:doi2 ex:writtenBy ex:someone .
"#;

    fn setup() -> (Database, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        (Database::builder().build(g), q)
    }

    #[test]
    fn builder_defaults_to_gcov() {
        let (db, q) = setup();
        let a = db.query(&q).run().unwrap();
        assert_eq!(a.explain.strategy, "Ref/GCov");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn builder_sets_every_knob() {
        let (db, q) = setup();
        let registry = Arc::new(MetricsRegistry::default());
        let a = db
            .query(&q)
            .strategy(Strategy::RefUcq)
            .row_budget(1_000_000)
            .parallelism(Parallelism::morsels())
            .limits(ReformulationLimits::default())
            .use_cache(false)
            .collect_metrics(&registry)
            .run()
            .unwrap();
        assert_eq!(a.explain.strategy, "Ref/UCQ");
        assert_eq!(a.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("answer.calls"), 1);
        assert!(snap.span_count("answer") == 1);
    }

    #[test]
    fn generic_harness_runs_both_database_kinds() {
        fn harness<E: QueryEngine>(engine: &mut E, cq: &Cq) -> usize {
            engine
                .run_query(cq, &Strategy::Saturation, &AnswerOptions::default())
                .unwrap()
                .len()
        }
        let (db, q) = setup();
        let mut shared = &db; // &Database implements QueryEngine
        assert_eq!(harness(&mut shared, &q), 2);
        let mut maintained = MaintainedDatabase::new(db.graph().clone());
        assert_eq!(harness(&mut maintained, &q), 2);
    }

    #[test]
    fn builder_works_on_maintained_database() {
        let (db, q) = setup();
        let mut maintained = MaintainedDatabase::new(db.graph().clone());
        let a = maintained
            .query(&q)
            .strategy(Strategy::Saturation)
            .run()
            .unwrap();
        assert_eq!(a.len(), 2);
        let b = maintained
            .query(&q)
            .strategy(Strategy::RefUcq)
            .run()
            .unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn builder_and_run_query_agree() {
        let (db, q) = setup();
        let via_builder = db.query(&q).strategy(Strategy::RefScq).run().unwrap();
        let via_method = db
            .run_query(&q, &Strategy::RefScq, &AnswerOptions::default())
            .unwrap();
        assert_eq!(via_builder.rows(), via_method.rows());
    }
}
