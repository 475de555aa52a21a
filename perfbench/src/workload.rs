//! The three workloads, driven through the public engine surface with
//! `EngineBuilder` defaults (bind join, no intra-query parallelism, classic
//! encoding, one shard) on a `build_serving` engine.
//!
//! A measurement is a fixed number of rounds. Every other round builds a
//! fresh engine from the N-Triples text (one `setup_s` sample); every round
//! replays one whole pass of the workload's requests on the main engine.
//! The read workloads also time a few closed-loop write batches on the
//! fresh engine, so the main engine, and its plan cache, never see a write;
//! `churn` instead runs an open-loop writer against the main engine
//! throughout. Interleaving every kind of sample over the whole run exposes
//! each to the same machine noise.

use crate::alloc;
use crate::calib::{self, Speed};
use crate::requests::{hot_pass, strategy, ColdMix, Domains, Request, STRATEGIES, TEMPLATES};
use crate::stats::{mean, mix_sum, percentile, small_median, us, Rng};
use crate::writes::{rolling, run_schedule, seeded_prefix, slices, Timed};
use rdfref::core::{
    BatchReport, CacheCounters, Database, MetricsRegistry, Obs, ServingDatabase, Snapshot,
    Strategy, UpdateBatch,
};
use rdfref::datagen::lubm::{generate, LubmConfig};
use rdfref::model::{parser::parse_ntriples, writer::to_ntriples, Dictionary, Term, Triple};
use rdfref::query::{parse_select, Cq};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LUBM-like universities: 1.04×10⁵ explicit triples, 6.7×10⁴ derived.
const UNIVERSITIES: usize = 70;
/// A measurement holds at least this many reads, so p99 has ten samples
/// beyond it.
const MIN_READS: usize = 1000;
/// Write batches per measurement at least, for the same reason.
const MIN_WRITES: usize = 1000;
/// `churn`'s open-loop writer: batches due per second.
const CHURN_BATCHES_PER_S: f64 = 30.0;
/// Repetitions of the traced run's set-up breakdown.
const BREAKDOWN_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_mix" => Some(Workload::Hot),
            "cold_mix" => Some(Workload::Cold),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

type Err = String;

/// Count plus an order-independent hash of an answer's decoded rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    rows: usize,
    hash: u64,
}

impl Fingerprint {
    fn of(rows: &[Vec<Term>]) -> Fingerprint {
        let hash = rows.iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Fingerprint {
            rows: rows.len(),
            hash,
        }
    }
}

/// One timed read.
struct Read {
    done: Instant,
    /// (template, strategy).
    cell: (usize, usize),
    /// Parse → answer → decode.
    us: f64,
}

/// What the reads of one measurement observed.
#[derive(Default)]
struct ReadLog {
    reads: Vec<Read>,
    parse_us: Vec<f64>,
    parse: Duration,
    answer: Duration,
    decode: Duration,
    /// Reads that returned an error, and so have no latency.
    errors: usize,
    /// Reads whose answer differs from the oracle's.
    mismatches: usize,
    result_rows: usize,
    ucq_cqs: Vec<f64>,
    qerror: Vec<f64>,
    peak_rows: Vec<f64>,
    snapshot_age_us: Vec<f64>,
}

impl ReadLog {
    fn attempted(&self) -> usize {
        self.reads.len() + self.errors
    }

    fn failed(&self) -> usize {
        self.errors + self.mismatches
    }

    fn busy(&self) -> Duration {
        self.parse + self.answer + self.decode
    }
}

/// The read client: parses SPARQL against its copy of the engine's
/// dictionary, answers on the current snapshot, decodes, and checks every
/// answer (untimed) against Sat on the same snapshot.
struct Reader<'a> {
    db: &'a ServingDatabase,
    domains: &'a Domains,
    dict: Dictionary,
    oracle: HashMap<String, Fingerprint>,
    oracle_seq: u64,
    seed: u64,
}

impl<'a> Reader<'a> {
    fn new(db: &'a ServingDatabase, domains: &'a Domains, seed: u64) -> Reader<'a> {
        Reader {
            db,
            domains,
            dict: db.snapshot().dictionary().clone(),
            oracle: HashMap::new(),
            oracle_seq: 0,
            seed,
        }
    }

    fn pass(&mut self, reqs: &[Request], obs: Option<&[Obs]>, log: &mut ReadLog) {
        for req in reqs {
            let text = self.domains.sparql(req);
            match self.timed_read(&text, req, obs, log) {
                Ok(true) => {}
                Ok(false) => log.mismatches += 1,
                Err(e) => {
                    log.errors += 1;
                    eprintln!(
                        "FAILED template={} strategy={} seed={}: {e}\n  {text}",
                        TEMPLATES[req.template].0, STRATEGIES[req.strategy], self.seed
                    );
                }
            }
        }
    }

    fn timed_read(
        &mut self,
        text: &str,
        req: &Request,
        obs: Option<&[Obs]>,
        log: &mut ReadLog,
    ) -> Result<bool, Err> {
        let t0 = Instant::now();
        let cq = parse_select(text, &mut self.dict).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let snap = self.db.snapshot();
        let mut q = snap.query(&cq).strategy(strategy(req.strategy));
        if let Some(obs) = obs {
            q = q.observe(obs[req.strategy].clone());
        }
        let ans = q.run().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let rows = black_box(ans.decoded(snap.dictionary()));
        let t3 = Instant::now();

        log.reads.push(Read {
            done: t3,
            cell: (req.template, req.strategy),
            us: us(t3 - t0),
        });
        log.parse_us.push(us(t1 - t0));
        log.parse += t1 - t0;
        log.answer += t2 - t1;
        log.decode += t3 - t2;
        log.result_rows += rows.len();
        log.snapshot_age_us.push(us(snap.age()));
        let ex = &ans.explain;
        log.peak_rows.push(ex.metrics.peak_intermediate as f64);
        if req.strategy == 1 {
            log.ucq_cqs.push(ex.reformulation_cqs as f64);
        }
        if let Some(est) = &ex.estimate {
            let (e, a) = (est.cardinality.max(1.0), (ex.answers as f64).max(1.0));
            log.qerror.push((e / a).max(a / e));
        }

        let got = Fingerprint::of(&rows);
        let want = self.oracle(text, &cq, &snap)?;
        if got != want {
            eprintln!(
                "MISMATCH template={} strategy={} seed={} snapshot={}: {} rows (hash {:016x}), Sat has {} rows (hash {:016x})\n  {text}",
                TEMPLATES[req.template].0,
                STRATEGIES[req.strategy],
                self.seed,
                snap.seq(),
                got.rows,
                got.hash,
                want.rows,
                want.hash
            );
        }
        Ok(got == want)
    }

    fn oracle(&mut self, text: &str, cq: &Cq, snap: &Snapshot) -> Result<Fingerprint, Err> {
        if snap.seq() != self.oracle_seq {
            self.oracle.clear();
            self.oracle_seq = snap.seq();
        }
        if let Some(f) = self.oracle.get(text) {
            return Ok(*f);
        }
        let sat = snap
            .query(cq)
            .strategy(Strategy::Saturation)
            .run()
            .map_err(|e| format!("oracle: {e}"))?;
        let f = Fingerprint::of(&sat.decoded(snap.dictionary()));
        self.oracle.insert(text.to_string(), f);
        Ok(f)
    }
}

/// What the write batches of one measurement observed.
#[derive(Default)]
struct WriteLog {
    timed: Vec<Timed<Result<BatchReport, Err>>>,
    publishes: u64,
}

impl WriteLog {
    fn failed(&self) -> usize {
        self.timed.iter().filter(|t| t.result.is_err()).count()
    }

    fn reports(&self) -> impl Iterator<Item = &BatchReport> {
        self.timed.iter().filter_map(|t| t.result.as_ref().ok())
    }
}

/// Rolling write batches (see [`rolling`]) from slice `first`, while
/// `more(batches done)` holds, between an untimed priming deletion and an
/// untimed closing insertion. Each report is checked: the batch must add
/// and remove exactly its slices.
fn write_batches(
    db: &ServingDatabase,
    slices: &[Vec<Triple>],
    first: usize,
    period: Option<Duration>,
    more: impl FnMut(usize) -> bool,
    log: &mut WriteLog,
) -> Result<(), Err> {
    let apply = |what: &str, batch: UpdateBatch| -> Result<BatchReport, Err> {
        let want = (batch.inserts().len(), batch.deletes().len());
        let report = db
            .submit(batch)
            .and_then(|t| t.wait())
            .map_err(|e| format!("{what}: {e}"))?;
        let got = (report.explicit_added(), report.explicit_removed());
        if got != want {
            let msg = format!("{what}: (added, removed) = {got:?}, not {want:?}");
            eprintln!("FAILED {msg}");
            return Err(msg);
        }
        Ok(report)
    };
    let slice = |k: usize| slices[k % slices.len()].clone();
    let seq0 = db.published_seq();
    apply("priming deletion", UpdateBatch::deleting(slice(first)))?;
    let timed = run_schedule(period, more, |i| {
        apply(&format!("batch {i}"), rolling(slices, first, i))
    });
    let closing = UpdateBatch::inserting(slice(first + timed.len()));
    log.timed.extend(timed);
    apply("closing insertion", closing)?;
    log.publishes += db.published_seq() - seq0;
    Ok(())
}

/// Everything a run needs before timing starts.
struct Fixture {
    ntriples: String,
    explicit: usize,
    domains: Domains,
    /// Every data slice, in a seed-independent order.
    slices: Vec<Vec<Triple>>,
}

impl Fixture {
    fn new() -> Fixture {
        let config = LubmConfig::scale(UNIVERSITIES);
        let graph = generate(&config).graph;
        Fixture {
            ntriples: to_ntriples(&graph),
            explicit: graph.len(),
            domains: Domains::new(&config),
            slices: slices(&graph),
        }
    }

    /// N-Triples text → ready serving engine.
    fn setup(&self) -> Result<ServingDatabase, Err> {
        let graph = parse_ntriples(&self.ntriples).map_err(|e| e.to_string())?;
        Ok(Database::builder().build_serving(graph))
    }

    /// Set-up split at the public calls: N-Triples parse, `build` (store,
    /// statistics), `prepare_saturation`. Medians of [`BREAKDOWN_REPS`].
    fn setup_breakdown(&self) -> Result<[f64; 3], Err> {
        let mut parts: [Vec<f64>; 3] = Default::default();
        for _ in 0..BREAKDOWN_REPS {
            let t0 = Instant::now();
            let graph = parse_ntriples(&self.ntriples).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let db = Database::builder().build(graph);
            let t2 = Instant::now();
            black_box(db.prepare_saturation());
            let t3 = Instant::now();
            for (part, d) in parts.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                part.push(d.as_secs_f64());
            }
        }
        Ok(parts.map(|p| small_median(&p)))
    }
}

/// The workload's request passes, drawn from the seed.
struct Mix {
    rng: Rng,
    cold: Option<ColdMix>,
}

impl Mix {
    fn new(workload: Workload, domains: &Domains, seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            cold: (workload == Workload::Cold).then(|| ColdMix::new(domains)),
        }
    }

    fn pass(&mut self) -> Vec<Request> {
        match &mut self.cold {
            Some(cold) => cold.pass(&mut self.rng),
            None => hot_pass(&mut self.rng),
        }
    }
}

/// What one measurement observed.
#[derive(Default)]
struct Measured {
    /// Calibration kernel times on the reading thread, three per round.
    speed: Speed,
    /// Calibration kernel times on `churn`'s writer thread, one per batch.
    /// The engine applies writes on its worker thread, which shares a core
    /// with the writer rather than with the busy reader, so the reader's
    /// kernel does not see the speed writes ran at.
    write_speed: Speed,
    /// When each set-up ended, and its seconds.
    setup_s: Vec<(Instant, f64)>,
    reads: ReadLog,
    writes: WriteLog,
}

impl Measured {
    /// Read latencies scaled to the reference machine, µs, by cell.
    fn read_us(&self) -> Vec<((usize, usize), f64)> {
        let r = &self.reads.reads;
        r.iter()
            .map(|r| (r.cell, r.us * self.speed.scale_at(r.done)))
            .collect()
    }

    /// Reads per second of reading, on the reference machine.
    fn qps(&self) -> f64 {
        let lat = self.read_us();
        lat.len() as f64 * 1e6 / lat.iter().map(|(_, us)| us).sum::<f64>()
    }

    /// Scale for a write that completed at `t`.
    fn write_scale(&self, t: Instant) -> f64 {
        match self.write_speed.is_empty() {
            true => self.speed.scale_at(t),
            false => self.write_speed.scale_at(t),
        }
    }

    /// The end-to-end metrics, every time scaled to the reference machine.
    fn end_to_end(&self, ok_ratio: f64, mem_bytes_per_triple: f64) -> Result<Vec<Metric>, Err> {
        let scale = |t: Instant| self.speed.scale_at(t);
        let setup: Vec<f64> = self.setup_s.iter().map(|&(t, s)| s * scale(t)).collect();
        let read_us = self.read_us();
        let lat: Vec<f64> = read_us.iter().map(|(_, us)| *us).collect();
        let mix = |strategy: usize| -> Result<f64, Err> {
            let mut per_template: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for &((template, s), us) in &read_us {
                if s == strategy {
                    per_template.entry(template).or_default().push(us);
                }
            }
            let per_template: Vec<Vec<f64>> = per_template.into_values().collect();
            mix_sum(&per_template).ok_or_else(|| {
                format!(
                    "{} mix: a template has too few samples for a median",
                    STRATEGIES[strategy]
                )
            })
        };
        let write_us: Vec<f64> = self
            .writes
            .timed
            .iter()
            .map(|t| us(t.latency) * self.write_scale(t.done))
            .collect();
        Ok(vec![
            ("setup_s", small_median(&setup), "s"),
            ("qps", self.qps(), "1/s"),
            ("lat_p50_us", p(&lat, 50, "lat")?, "us"),
            ("lat_p99_us", p(&lat, 99, "lat")?, "us"),
            ("sat_mix_us", mix(0)?, "us"),
            ("ref_ucq_mix_us", mix(1)?, "us"),
            ("ref_scq_mix_us", mix(2)?, "us"),
            ("ref_gcov_mix_us", mix(3)?, "us"),
            ("ok_ratio", ok_ratio, "ratio"),
            ("mem_bytes_per_triple", mem_bytes_per_triple, "B"),
            ("write_p50_us", p(&write_us, 50, "write")?, "us"),
        ])
    }
}

/// What is fixed for every measurement of a run.
struct Plan<'a> {
    workload: Workload,
    fx: &'a Fixture,
    /// Rounds per measurement (`churn` adds rounds until its writer is done).
    rounds: usize,
    /// Closed-loop write batches per round on the fresh engine (read
    /// workloads).
    scratch_writes: usize,
    /// `churn`'s open-loop write batches per measurement.
    churn_batches: usize,
    /// The slices a measurement writes, each once (`churn` wraps around if
    /// its writer runs past `churn_batches`).
    slices: Vec<Vec<Triple>>,
}

impl<'a> Plan<'a> {
    /// `rounds` rounds and about `writes` write batches.
    fn new(
        workload: Workload,
        fx: &'a Fixture,
        seed: u64,
        rounds: usize,
        writes: usize,
    ) -> Plan<'a> {
        let churn = workload == Workload::Churn;
        let scratch_writes = if churn { 0 } else { writes.div_ceil(rounds) };
        let churn_batches = writes;
        // A rolling sequence of n batches writes n + 1 slices.
        let count = if churn {
            churn_batches + 1
        } else {
            rounds * (scratch_writes + 1)
        };
        Plan {
            workload,
            fx,
            rounds,
            scratch_writes,
            churn_batches,
            slices: seeded_prefix(&fx.slices, count, &mut Rng::new(seed ^ 0x5eed_5eed)),
        }
    }
}

impl Plan<'_> {
    fn measure(
        &self,
        reader: &mut Reader,
        mix: &mut Mix,
        obs: Option<&[Obs]>,
    ) -> Result<Measured, Err> {
        let (fx, db) = (self.fx, reader.db);
        let mut m = Measured::default();
        let (slices, scratch_writes) = (&self.slices, self.scratch_writes);
        // A fresh engine every other round, which the writes of both rounds
        // use: a rolling sequence leaves its store as it found it.
        let mut fresh = None;
        let mut round = |m: &mut Measured, i: usize| -> Result<(), Err> {
            m.speed.sample();
            if i.is_multiple_of(2) {
                drop(fresh.take());
                let t = Instant::now();
                fresh = Some(fx.setup()?);
                m.setup_s.push((Instant::now(), t.elapsed().as_secs_f64()));
            }
            if let (Some(fresh), true) = (&fresh, scratch_writes > 0) {
                let first = i * (scratch_writes + 1);
                let more = |n| n < scratch_writes;
                write_batches(fresh, slices, first, None, more, &mut m.writes)?;
            }
            m.speed.sample();
            reader.pass(&mix.pass(), obs, &mut m.reads);
            m.speed.sample();
            Ok(())
        };
        if self.workload != Workload::Churn {
            for i in 0..self.rounds {
                round(&mut m, i)?;
            }
            return Ok(m);
        }

        let period = Duration::from_secs_f64(1.0 / CHURN_BATCHES_PER_S);
        let reading = AtomicBool::new(true);
        let written = AtomicUsize::new(0);
        let mut writes = WriteLog::default();
        let mut write_speed = Speed::default();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // Called as each batch completes: time the small kernel, and
                // go on until the reader is done too, so every read saw writes.
                let more = |n: usize| {
                    if n > 0 {
                        write_speed.sample_small();
                    }
                    written.store(n, Ordering::SeqCst);
                    n < self.churn_batches || reading.load(Ordering::SeqCst)
                };
                write_batches(db, slices, 0, Some(period), more, &mut writes)
            });
            let mut i = 0;
            let mut result = Ok(());
            while result.is_ok()
                && (i < self.rounds || written.load(Ordering::SeqCst) < self.churn_batches)
            {
                result = round(&mut m, i);
                i += 1;
            }
            reading.store(false, Ordering::SeqCst);
            let joined = writer
                .join()
                .map_err(|_| "writer thread panicked".to_string());
            result.and(joined.and_then(|w| w))
        })?;
        m.writes = writes;
        m.write_speed = write_speed;
        Ok(m)
    }
}

fn p(samples: &[f64], pct: u32, what: &str) -> Result<f64, Err> {
    percentile(samples, pct)
        .ok_or_else(|| format!("{what}: {} samples do not support p{pct}", samples.len()))
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, Err> {
    let fx = Fixture::new();
    let before = alloc::live_bytes();
    let db = fx.setup()?;
    let mem_bytes = alloc::live_bytes().saturating_sub(before);

    let mut mix = Mix::new(workload, &fx.domains, seed);
    let mut reader = Reader::new(&db, &fx.domains, seed);
    // Warm-up: fills the plan cache (hot_mix) and the oracle, untimed.
    let warm = mix.pass();
    reader.pass(&warm, None, &mut ReadLog::default());
    // About one round per two seconds, and enough for MIN_READS.
    let rounds = (seconds as usize / 2).max(MIN_READS.div_ceil(warm.len()));
    let writes = MIN_WRITES.max((seconds as f64 * CHURN_BATCHES_PER_S) as usize);
    let plan = Plan::new(workload, &fx, seed, rounds, writes);
    // The traced run's untraced half only gives `qps` for the tracing
    // overhead, so a quarter of the work suffices.
    let short;
    let untraced_plan = if trace {
        short = Plan::new(workload, &fx, seed, rounds.div_ceil(4), writes / 4);
        &short
    } else {
        &plan
    };

    let untraced = untraced_plan.measure(&mut reader, &mut mix, None)?;
    let mut attempted = untraced.reads.attempted() + untraced.writes.timed.len();
    let mut failed = untraced.reads.failed() + untraced.writes.failed();
    let metrics = if !trace {
        let ok_ratio = (attempted - failed) as f64 / attempted.max(1) as f64;
        untraced.end_to_end(ok_ratio, mem_bytes as f64 / fx.explicit as f64)?
    } else {
        let registries: Vec<Arc<MetricsRegistry>> = (0..STRATEGIES.len())
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect();
        let obs: Vec<Obs> = registries
            .iter()
            .map(|r| Obs::collecting(r.clone()))
            .collect();
        let cache0 = db.plan_cache().counters();
        let traced = plan.measure(&mut reader, &mut mix, Some(&obs))?;
        let cache1 = db.plan_cache().counters();
        attempted += traced.reads.attempted() + traced.writes.timed.len();
        failed += traced.reads.failed() + traced.writes.failed();
        let layers = Layers {
            setup: fx.setup_breakdown()?,
            untraced: &untraced,
            traced: &traced,
            spans: registries.iter().map(|r| r.snapshot()).collect(),
            cache: (cache0, cache1),
        };
        // Per-layer times are aggregates, so they are scaled by the run's
        // median kernel time rather than sample by sample.
        let kernel_ms = traced.speed.median_ms();
        layers
            .metrics(workload)?
            .into_iter()
            .map(|(name, value, unit)| (name, calib::normalize(value, unit, kernel_ms), unit))
            .collect()
    };
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

/// Inputs of the per-layer report.
struct Layers<'a> {
    /// Parse, build, saturate.
    setup: [f64; 3],
    untraced: &'a Measured,
    traced: &'a Measured,
    /// One registry per strategy, so each strategy's outermost evaluation
    /// span is known: `eval.cq` (Sat), `eval.ucq` (UCQ), `eval.jucq`.
    spans: Vec<rdfref_obs::Snapshot>,
    cache: (CacheCounters, CacheCounters),
}

impl Layers<'_> {
    fn span_s(&self, strategy: usize, path: &str) -> f64 {
        self.spans[strategy].span_total(path).as_secs_f64()
    }

    fn span_all(&self, path: &str) -> f64 {
        (0..self.spans.len()).map(|s| self.span_s(s, path)).sum()
    }

    fn span_count(&self, path: &str) -> f64 {
        self.spans.iter().map(|s| s.span_count(path) as f64).sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.spans.iter().map(|s| s.counter(name) as f64).sum()
    }

    fn metrics(&self, workload: Workload) -> Result<Vec<Metric>, Err> {
        let r = &self.traced.reads;
        let w = &self.traced.writes;
        let wall = r.busy().as_secs_f64();
        let share = |x: f64| x / wall;
        let n = r.reads.len() as f64;
        let plan_children: f64 = [
            "answer.plan.ucq",
            "answer.plan.scq",
            "answer.plan.jucq",
            "answer.plan.gcov",
        ]
        .iter()
        .map(|p| self.span_all(p))
        .sum();
        let eval = self.span_s(0, "eval.cq")
            + self.span_s(1, "eval.ucq")
            + self.span_s(2, "eval.jucq")
            + self.span_s(3, "eval.jucq");
        let searches = self.span_count("gcov.search");
        let (c0, c1) = &self.cache;
        let lookups = (c1.hits + c1.misses - c0.hits - c0.misses) as f64;
        let reports: Vec<&BatchReport> = w.reports().collect();
        let apply_us: Vec<f64> = reports.iter().map(|b| us(b.apply_wall())).collect();
        // `BatchReport::queue_wait` is taken once the batch is applied.
        let queue_us: Vec<f64> = reports
            .iter()
            .map(|b| us(b.queue_wait().saturating_sub(b.apply_wall())))
            .collect();
        let delta: Vec<f64> = reports
            .iter()
            .map(|b| (b.saturation_added() + b.saturation_removed()) as f64)
            .collect();
        let write_us: Vec<f64> = w.timed.iter().map(|t| us(t.latency)).collect();
        let late_us: Vec<f64> = w.timed.iter().map(|t| us(t.late)).collect();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let [setup_parse, setup_build, setup_sat] = self.setup;
        Ok(vec![
            ("rdf.parse_s", setup_parse, "s"),
            ("storage.build_s", setup_build, "s"),
            ("reasoning.saturate_s", setup_sat, "s"),
            ("reasoning.apply_us_p50", p(&apply_us, 50, "apply")?, "us"),
            ("reasoning.sat_delta_per_batch", mean(&delta), "count"),
            ("query.parse_us_p50", p(&r.parse_us, 50, "parse")?, "us"),
            ("share.parse", share(r.parse.as_secs_f64()), "ratio"),
            (
                "share.plan_cache",
                share(self.span_all("answer.plan") - plan_children),
                "ratio",
            ),
            (
                "share.plan_ucq",
                share(self.span_all("answer.plan.ucq")),
                "ratio",
            ),
            (
                "share.plan_scq",
                share(self.span_all("answer.plan.scq")),
                "ratio",
            ),
            (
                "share.gcov",
                share(self.span_all("answer.plan.gcov")),
                "ratio",
            ),
            ("reformulate.cqs_per_req", mean(&r.ucq_cqs), "count"),
            (
                "gcov.covers_per_search",
                ratio(self.counter("gcov.covers_explored"), searches),
                "count",
            ),
            ("cost.qerror_p50", p(&r.qerror, 50, "q-error")?, "ratio"),
            (
                "cache.hit_ratio",
                ratio((c1.hits - c0.hits) as f64, lookups),
                "ratio",
            ),
            (
                "cache.evictions",
                (c1.evictions - c0.evictions) as f64,
                "count",
            ),
            (
                "cache.invalidations",
                (c1.invalidations - c0.invalidations) as f64,
                "count",
            ),
            ("share.eval", share(eval), "ratio"),
            (
                "eval.scan_rows_per_result",
                ratio(self.counter("op.scan.rows"), r.result_rows as f64),
                "ratio",
            ),
            (
                "eval.bind_join_rows_per_req",
                self.counter("op.bind_join.rows") / n,
                "count",
            ),
            (
                "eval.union_rows_per_req",
                self.counter("op.union.rows") / n,
                "count",
            ),
            (
                "eval.peak_rows_p50",
                p(&r.peak_rows, 50, "peak rows")?,
                "count",
            ),
            ("share.decode", share(r.decode.as_secs_f64()), "ratio"),
            ("write_p99_us", p(&write_us, 99, "write")?, "us"),
            (
                "serving.queue_wait_us_p50",
                p(&queue_us, 50, "queue wait")?,
                "us",
            ),
            (
                "serving.snapshot_age_us_p50",
                p(&r.snapshot_age_us, 50, "snapshot age")?,
                "us",
            ),
            ("serving.publishes", w.publishes as f64, "count"),
            (
                "churn.gen_late_us_p99",
                if workload == Workload::Churn {
                    p(&late_us, 99, "generator lateness")?
                } else {
                    0.0
                },
                "us",
            ),
            (
                "obs.trace_overhead",
                1.0 - self.traced.qps() / self.untraced.qps(),
                "ratio",
            ),
            ("calib.kernel_ms", self.traced.speed.median_ms(), "ms"),
        ])
    }
}
