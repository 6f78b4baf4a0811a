//! `dense-replay`: a recorded stream replayed straight into a three-collector
//! `Session`, queried at fixed points of the replay, followed by a fixed
//! analysis panel. The simulator is out of the loop, so resolution,
//! collectors, index maintenance and query do most of the work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_runtime::{Frame, RuntimeListener};
use djxperf::{GroupBy, GroupKey, Query, QueryError, QueryResult, RankBy, Report, Session};

use crate::stats::{best_cycle_median, median};
use crate::stream::{generate, reference, Recording, Reference, Skew, StreamSpec};
use crate::trace::{timed, Tracer, TracingListener};
use crate::{Check, Metric, PhaseReport};

/// The short sampling period of the replay: most qualifying loads are sampled, so
/// the sample path — not per-access counting — carries the cost.
pub const PERIOD: u64 = 8;
/// `Session::query` calls issued during each pass, evenly spaced over its events.
pub const QUERIES_PER_PASS: usize = 4;

/// The generated program behind both the replay and the fleet producer.
pub fn spec(skew: Skew) -> StreamSpec {
    StreamSpec {
        sites: 3000,
        classes: 48,
        threads: 4,
        accesses: 240_000,
        accesses_per_alloc: 16,
        accesses_per_gc: 30_000,
        death_rate: 0.5,
        small_share: 0.2,
        skew,
        burst: 64,
    }
}

/// A recording plus the reference attribution of one lap at [`PERIOD`].
pub struct Input {
    pub rec: Arc<Recording>,
    pub reference: Reference,
}

pub fn setup(seed: u64, skew: Skew) -> Input {
    prepare(&spec(skew), seed)
}

/// Generates a stream from `spec` and computes its reference.
pub fn prepare(spec: &StreamSpec, seed: u64) -> Input {
    let rec = generate(spec, seed);
    let config = session().config();
    let reference = reference(&rec, config.event, config.period, config.size_filter);
    Input { rec: Arc::new(rec), reference }
}

pub fn session() -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .collect_objects()
        .collect_code()
        .collect_numa()
        .expected_threads(1)
        .build()
}

/// The fixed analysis panel: object ranking, per-site attribution (the reference
/// check), threads, NUMA locality, and allocation ranking.
pub fn panel() -> Vec<Query> {
    vec![
        Query::new().top(20),
        Query::new().group_by(GroupBy::Site),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Samples),
        Query::new().rank_by(RankBy::Allocations).top(20),
    ]
}

/// The query issued during ingest.
fn live_query() -> Query {
    Query::new().top(10)
}

/// Compares a `GroupBy::Site` result with the reference: same samples per leaf
/// frame, same unattributed remainder.
pub fn check_sites(result: &QueryResult, reference: &Reference) -> Result<(), String> {
    let got: BTreeMap<Frame, u64> = result
        .groups
        .iter()
        .filter(|g| g.metrics.samples > 0)
        .filter_map(|g| match g.key {
            GroupKey::Site(Some(frame)) => Some((frame, g.metrics.samples)),
            _ => None,
        })
        .collect();
    if got != reference.per_site {
        let diff = reference
            .per_site
            .iter()
            .find(|(f, n)| got.get(f) != Some(n))
            .map(|(f, n)| format!("{f:?}: {:?} vs reference {n}", got.get(f)))
            .unwrap_or_else(|| "extra site in the result".to_string());
        return Err(format!(
            "per-site samples differ ({} vs {} sites): {diff}",
            got.len(),
            reference.per_site.len()
        ));
    }
    if result.total_samples != reference.total() {
        return Err(format!("total {} vs reference {}", result.total_samples, reference.total()));
    }
    Ok(())
}

struct Pass {
    cycle: usize,
    ingest: Duration,
    /// `Session::query` latencies during the pass, in milliseconds.
    queries: Vec<f64>,
    traced: bool,
    analysis: Duration,
    snapshot: Duration,
    evaluate: Duration,
    render: Duration,
    groups: usize,
}

#[derive(Default)]
struct Layers {
    passes: u64,
    samples: u64,
    sample_calls: u64,
    sample_ns: f64,
    gc_events: u64,
    gc_ns: f64,
    cache_lookups: u64,
    cache_hits: u64,
    index_lookups: u64,
}

/// Replays one lap of `rec` into `listener`, issuing `Session::query` after every
/// [`QUERIES_PER_PASS`]-th share of the events, so each query sees the same amount of
/// ingested state on every machine. Returns the ingest time (the replay's wall
/// time without the queries) and each query's latency in milliseconds.
///
/// The queries run on the replaying thread. From a second thread they deadlock the
/// replay: `Session::object_profile` holds the site-table lock while it takes the
/// allocation agent's lock, the reverse of the order `on_object_alloc` takes them.
fn ingest<L: RuntimeListener + ?Sized>(
    listener: &L,
    session: &Session,
    rec: &Recording,
    tracer: Option<&Tracer>,
    op: u64,
) -> (Duration, Vec<Result<f64, QueryError>>) {
    let q = live_query();
    let events = rec.events.len();
    let mut queries = Vec::new();
    let mut in_queries = Duration::ZERO;
    let start = Instant::now();
    rec.start_threads(listener);
    let mut next = 0;
    for k in 1..=QUERIES_PER_PASS {
        let end = events * k / (QUERIES_PER_PASS + 1);
        rec.replay(listener, 0, next..end, |_| {});
        next = end;
        let (r, t) = timed(tracer, None, op, "query", "session.query", || session.query(&q));
        in_queries += t;
        queries.push(r.map(|_| t.as_secs_f64() * 1e3));
    }
    rec.replay(listener, 0, next..events, |_| {});
    (start.elapsed() - in_queries, queries)
}

/// The dense-replay phase's accumulated measurements: [`Dense::slice`] replays
/// passes for a while, [`Dense::finish`] summarizes.
pub struct Dense<'a> {
    input: &'a Input,
    traced: bool,
    passes: Vec<Pass>,
    cycles: usize,
    query_failures: u64,
    failures: Vec<String>,
    layers: Layers,
}

impl<'a> Dense<'a> {
    pub fn new(input: &'a Input, traced: bool) -> Self {
        Dense {
            input,
            traced,
            passes: Vec::new(),
            cycles: 0,
            query_failures: 0,
            failures: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Replays passes — each into a fresh session, followed by the analysis panel —
    /// until `budget` has passed (at least one; a traced run alternates untraced
    /// and traced passes).
    pub fn slice(&mut self, budget: Duration, tracer: Option<&Tracer>) {
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed() < budget {
            first = false;
            self.pass(tracer);
        }
        self.cycles += 1;
    }

    fn pass(&mut self, tracer: Option<&Tracer>) {
        let rec = &self.input.rec;
        let layers = &mut self.layers;
        let op = tracer.map(|t| t.id()).unwrap_or(0);
        let op_start = Instant::now();
        let traced = self.traced && self.passes.len() % 2 == 1;
        let session = session();
        let ((ingest, queries), _) = timed(tracer, None, op, "session", "dense.ingest", || {
            if !traced {
                return ingest(&*session, &session, rec, tracer, op);
            }
            let listener = TracingListener::new(session.clone());
            let out = ingest(&listener, &session, rec, tracer, op);
            layers.sample_calls += listener.session_calls.calls();
            layers.sample_ns += listener.session_calls.busy_s() * 1e9;
            layers.gc_events += listener.gc.calls();
            layers.gc_ns += listener.gc.busy_s() * 1e9;
            if let Some(t) = tracer {
                t.attach(op, "pmu", &listener.pmu);
                t.attach(op, "session", &listener.session_calls);
                t.attach(op, "agent.alloc", &listener.alloc);
                t.attach(op, "agent.gc", &listener.gc);
            }
            out
        });
        let mut latencies = Vec::new();
        for q in queries {
            match q {
                Ok(ms) => latencies.push(ms),
                Err(_) => self.query_failures += 1,
            }
        }

        // The analysis panel: snapshot, evaluate, render.
        let analysis_start = Instant::now();
        let (snapshot, snapshot_t) =
            timed(tracer, None, op, "query", "session.snapshot", || session.snapshot());
        let Some(object) = snapshot.object.as_ref() else {
            self.failures.push("snapshot has no object profile".into());
            return;
        };
        let (results, evaluate_t) = timed(tracer, None, op, "query", "query.evaluate", || {
            panel().iter().map(|q| q.evaluate(object)).collect::<Result<Vec<_>, _>>()
        });
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("panel evaluation failed: {e}"));
                return;
            }
        };
        let (rendered, render_t) = timed(tracer, None, op, "query", "report.query", || {
            results
                .iter()
                .map(|r| Report::query(r, &rec.methods).to_string().len() + r.to_json().len())
                .sum::<usize>()
        });
        let analysis = analysis_start.elapsed();
        std::hint::black_box(rendered);

        if let Err(e) = check_sites(&results[1], &self.input.reference) {
            self.failures.push(e);
        }
        let total = object.total_samples();
        let code = snapshot.code.as_ref().map(|c| c.total_samples);
        let numa = snapshot.numa.as_ref().map(|n| n.total_samples());
        if code != Some(total) || numa != Some(total) {
            self.failures
                .push(format!("totals differ: object {total}, code {code:?}, numa {numa:?}"));
        }
        if traced {
            let lookups = session.splay_lookup_stats();
            layers.passes += 1;
            layers.samples += session.total_samples();
            layers.cache_lookups += lookups.cache_lookups;
            layers.cache_hits += lookups.cache_hits;
            layers.index_lookups += lookups.lookups;
        }
        if let Some(t) = tracer {
            t.record(op, 0, "dense", "dense.pass", op_start);
        }
        self.passes.push(Pass {
            cycle: self.cycles,
            ingest,
            queries: latencies,
            traced,
            analysis,
            snapshot: snapshot_t,
            evaluate: evaluate_t,
            render: render_t,
            groups: results.iter().map(|r| r.groups.len()).sum(),
        });
    }

    pub fn finish(self) -> PhaseReport {
        let events = self.input.rec.events.len();
        let passes = &self.passes;
        let failures = &self.failures;
        let queries: usize = passes.iter().map(|p| p.queries.len()).sum();
        let attempted = queries as u64 + self.query_failures + passes.len() as u64;
        let checks = vec![
            Check::new(
                "dense-replay: Query grouped by site = the reference attribution of the stream",
                failures.iter().find(|f| !f.starts_with("totals")).cloned(),
            ),
            Check::new(
                "dense-replay: code-centric and NUMA totals = object-centric total",
                failures.iter().find(|f| f.starts_with("totals")).cloned(),
            ),
        ];
        let mut report = PhaseReport::new("dense-replay", attempted, self.query_failures, checks);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        let med = |f: &dyn Fn(&Pass) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let by_cycle = |f: &dyn Fn(&Pass) -> Vec<f64>| {
            let mut cycles = vec![Vec::new(); self.cycles.max(1)];
            let last = cycles.len() - 1;
            for p in &untraced {
                cycles[p.cycle.min(last)].extend(f(p));
            }
            cycles
        };
        // The phase's headline metrics carry no regression bound (see README):
        // reported in every run, in the traced run's metrics.
        let rate = by_cycle(&|p| vec![events as f64 / p.ingest.as_secs_f64() / 1e6]);
        let analysis = by_cycle(&|p| vec![ms(p.analysis)]);
        let queries = by_cycle(&|p| p.queries.clone());
        report.per_layer = vec![
            Metric::new(
                "ingest_mevents_per_s",
                best_cycle_median(&rate, false).unwrap_or(0.0),
                "Mevents/s",
            ),
            Metric::new("analysis_ms", best_cycle_median(&analysis, true).unwrap_or(0.0), "ms"),
            Metric::new(
                "session_query_p50_ms",
                best_cycle_median(&queries, true).unwrap_or(0.0),
                "ms",
            ),
        ];
        if self.traced {
            let layers = &self.layers;
            let n = layers.passes.max(1) as f64;
            let traced: Vec<f64> =
                passes.iter().filter(|p| p.traced).map(|p| p.ingest.as_secs_f64()).collect();
            let plain: Vec<f64> = untraced.iter().map(|p| p.ingest.as_secs_f64()).collect();
            report.per_layer.extend([
                Metric::new("session.samples", layers.samples as f64 / n, "count"),
                Metric::new(
                    "session.sample_ns_per_call",
                    layers.sample_ns / layers.sample_calls.max(1) as f64,
                    "ns",
                ),
                Metric::new("session.busy_s", layers.sample_ns * 1e-9 / n, "s"),
                Metric::new(
                    "session.cache_hit_ratio",
                    layers.cache_hits as f64 / layers.cache_lookups.max(1) as f64,
                    "ratio",
                ),
                Metric::new("session.index_lookups", layers.index_lookups as f64 / n, "count"),
                Metric::new(
                    "agent.gc_ns_per_event",
                    layers.gc_ns / layers.gc_events.max(1) as f64,
                    "ns",
                ),
                Metric::new("query.snapshot_ms", med(&|p| ms(p.snapshot)), "ms"),
                Metric::new("query.evaluate_ms", med(&|p| ms(p.evaluate)), "ms"),
                Metric::new("query.render_ms", med(&|p| ms(p.render)), "ms"),
                Metric::new("query.groups", med(&|p| p.groups as f64), "count"),
            ]);
            report.trace_overhead =
                Some(median(&traced).unwrap_or(0.0) / median(&plain).unwrap_or(1.0));
        }
        report
    }
}

/// Replays one lap of `rec` into `listener` (used by the tests).
pub fn replay_once<L: RuntimeListener + ?Sized>(rec: &Recording, listener: &L) {
    rec.start_threads(listener);
    rec.replay(listener, 0, 0..rec.events.len(), |_| {});
}
