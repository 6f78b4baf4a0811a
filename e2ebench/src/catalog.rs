//! `catalog`: a seeded subset of the Fig. 4 catalog, each entry run unprofiled and
//! profiled in alternation — the paper's headline overhead experiment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use djx_bench::EVALUATION_PERIOD;
use djx_runtime::{AllocationEvent, MemoryAccessEvent, Runtime, RuntimeListener, RuntimeStats};
use djx_workloads::suite::{suite_catalog, SyntheticAppWorkload};
use djx_workloads::Workload;
use djxperf::{ProfilerConfig, Session};

use crate::stats::{geomean, median, Rng};
use crate::trace::{timed, Tracer, TracingListener};
use crate::{Check, Metric, PhaseReport};

/// Operations per catalog entry (the catalog's default is 300).
pub const OPERATIONS: u64 = 400;
/// Operations per entry in the reference-check runs.
const CHECK_OPERATIONS: u64 = 30;
/// Entries per stratum: the catalog sorted by allocation rate is cut into strata of
/// this many, and the seed picks one entry from each.
const STRATUM: usize = 4;

fn profiler() -> ProfilerConfig {
    ProfilerConfig::default().with_period(EVALUATION_PERIOD)
}

/// The seeded subset: one entry per allocation-rate stratum, so every seed spans
/// the allocation-heavy entries (akka-uct, lusearch, …) down to allocation-free ones
/// (dotty, compress, …) and the subsets of different seeds stay comparable.
pub fn select(seed: u64, operations: u64) -> Vec<SyntheticAppWorkload> {
    let mut entries: Vec<SyntheticAppWorkload> =
        suite_catalog().iter().map(|b| b.build()).collect();
    entries.sort_by(|a, b| {
        b.small_allocs_per_op
            .cmp(&a.small_allocs_per_op)
            .then_with(|| a.name.cmp(&b.name))
    });
    let mut rng = Rng::new(seed ^ 0xCA7A_1065);
    entries
        .chunks(STRATUM)
        .map(|stratum| {
            let pick = rng.below(stratum.len() as u64) as usize;
            SyntheticAppWorkload { operations, ..stratum[pick].clone() }
        })
        .collect()
}

fn session() -> Arc<Session> {
    Session::builder()
        .config(profiler())
        .collect_objects()
        .expected_threads(1)
        .build()
}

struct Run {
    wall: Duration,
    stats: RuntimeStats,
}

fn run(workload: &SyntheticAppWorkload, listener: Option<Arc<dyn RuntimeListener>>) -> Run {
    let mut rt = Runtime::new(workload.runtime_config());
    if let Some(listener) = listener {
        rt.add_listener(listener);
    }
    let start = Instant::now();
    workload.run(&mut rt).expect("catalog workloads are sized to their runtime");
    rt.shutdown();
    Run { wall: start.elapsed(), stats: rt.stats() }
}

/// The benchmark's own count of what the profiler must see: qualifying events per
/// thread and allocations at or above the size filter.
#[derive(Default)]
struct EventCounter {
    qualifying: Mutex<BTreeMap<u64, u64>>,
    monitored: AtomicU64,
}

impl RuntimeListener for EventCounter {
    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        if event.size >= profiler().size_filter {
            self.monitored.fetch_add(1, Relaxed);
        }
    }

    fn on_memory_access(&self, event: &MemoryAccessEvent<'_>) {
        let inc = profiler().event.increment_for(&event.outcome);
        if inc > 0 {
            *self.qualifying.lock().expect("counter").entry(event.thread.0).or_default() += inc;
        }
    }
}

/// Checks one entry against the benchmark's own counts: per-thread samples equal
/// floor(qualifying ÷ period) and monitored allocations equal the filtered count.
fn reference_check(workload: &SyntheticAppWorkload) -> Result<(), String> {
    let workload = SyntheticAppWorkload { operations: CHECK_OPERATIONS, ..workload.clone() };
    let counter = Arc::new(EventCounter::default());
    let session = session();
    let mut rt = Runtime::new(workload.runtime_config());
    rt.add_listener(session.clone());
    rt.add_listener(counter.clone());
    workload.run(&mut rt).map_err(|e| e.to_string())?;
    rt.shutdown();
    let profile = session.object_profile().ok_or("no object profile")?;
    let period = profiler().period;
    let expected: BTreeMap<u64, u64> = counter
        .qualifying
        .lock()
        .expect("counter")
        .iter()
        .map(|(t, n)| (*t, n / period))
        .filter(|(_, n)| *n > 0)
        .collect();
    let got: BTreeMap<u64, u64> = profile
        .threads
        .iter()
        .map(|t| (t.thread.0, t.samples))
        .filter(|(_, n)| *n > 0)
        .collect();
    if expected != got {
        return Err(format!(
            "{}: samples per thread {got:?}, expected {expected:?}",
            workload.name
        ));
    }
    let monitored = counter.monitored.load(Relaxed);
    if session.allocation_stats().monitored != monitored {
        return Err(format!(
            "{}: monitored {}, expected {monitored}",
            workload.name,
            session.allocation_stats().monitored
        ));
    }
    Ok(())
}

#[derive(Default)]
struct Entry {
    plain: Vec<f64>,
    profiled: Vec<f64>,
    traced: Vec<f64>,
    profiled_heap: u64,
    plain_heap: u64,
    footprint: usize,
    mismatch: Option<String>,
}

impl Entry {
    /// Fig. 4b: (profiled peak heap + session footprint) ÷ unprofiled peak heap.
    fn memory_overhead(&self) -> f64 {
        (self.profiled_heap as f64 + self.footprint as f64) / self.plain_heap.max(1) as f64
    }
}

/// Per-round totals of the traced runs.
#[derive(Default)]
struct Layers {
    runs: u64,
    pmu_calls: u64,
    pmu_ns: f64,
    alloc_calls: u64,
    alloc_ns: f64,
    monitored: u64,
    accesses: u64,
    agent_busy: f64,
}

/// The catalog phase's accumulated measurements: [`Catalog::run_for`] runs entries
/// (each once unprofiled and once profiled) for a while, [`Catalog::finish`]
/// checks and summarizes.
pub struct Catalog<'a> {
    workloads: &'a [SyntheticAppWorkload],
    entries: Vec<Entry>,
    layers: Layers,
    attempted: u64,
    order: Vec<usize>,
    rng: Rng,
    rounds: usize,
    /// Position of the next entry within the current round.
    next: usize,
    traced: bool,
}

impl<'a> Catalog<'a> {
    pub fn new(workloads: &'a [SyntheticAppWorkload], seed: u64, traced: bool) -> Self {
        Catalog {
            workloads,
            entries: workloads.iter().map(|_| Entry::default()).collect(),
            layers: Layers::default(),
            attempted: 0,
            order: (0..workloads.len()).collect(),
            rng: Rng::new(seed ^ 0x0DE5),
            rounds: 0,
            next: 0,
            traced,
        }
    }

    /// Runs entries, one after another in rounds, until `budget` has passed (at
    /// least one entry).
    pub fn run_for(&mut self, budget: Duration, tracer: Option<&Tracer>) {
        let start = Instant::now();
        self.entry(tracer);
        while start.elapsed() < budget {
            self.entry(tracer);
        }
    }

    /// Completes the round in progress, so every run ends on whole rounds.
    pub fn finish_round(&mut self, tracer: Option<&Tracer>) {
        while self.next != 0 {
            self.entry(tracer);
        }
    }

    /// Runs one round: every entry once.
    pub fn round(&mut self, tracer: Option<&Tracer>) {
        self.entry(tracer);
        self.finish_round(tracer);
    }

    /// Runs the next entry of the round once unprofiled and once profiled (and
    /// once traced, in a traced run). Rounds visit the entries in a seeded order
    /// and alternate which side runs first.
    fn entry(&mut self, tracer: Option<&Tracer>) {
        if self.next == 0 {
            self.rng.shuffle(&mut self.order);
        }
        let k = self.next;
        let i = self.order[k];
        let w = &self.workloads[i];
        let op = tracer.map(|t| t.id()).unwrap_or(0);
        let op_start = Instant::now();
        let mut sides = vec![Side::Plain, Side::Profiled];
        if self.traced {
            sides.push(Side::Traced);
        }
        let rotate = (self.rounds + k) % sides.len();
        sides.rotate_left(rotate);
        let mut stats = Vec::new();
        for side in sides {
            self.attempted += 1;
            let e = &mut self.entries[i];
            match side {
                Side::Plain => {
                    let (r, _) =
                        timed(tracer, None, op, "runtime", "catalog.unprofiled_run", || {
                            run(w, None)
                        });
                    e.plain.push(r.wall.as_secs_f64());
                    e.plain_heap = r.stats.peak_heap_used;
                    stats.push(r.stats);
                }
                Side::Profiled => {
                    let s = session();
                    let (r, _) = timed(tracer, None, op, "agent", "catalog.profiled_run", || {
                        run(w, Some(s.clone()))
                    });
                    e.profiled.push(r.wall.as_secs_f64());
                    e.footprint = s.memory_footprint_bytes();
                    e.profiled_heap = r.stats.peak_heap_used;
                    stats.push(r.stats);
                }
                Side::Traced => {
                    let s = session();
                    let l = Arc::new(TracingListener::new(s.clone()));
                    let (r, _) = timed(tracer, None, op, "agent", "catalog.traced_run", || {
                        run(w, Some(l.clone()))
                    });
                    e.traced.push(r.wall.as_secs_f64());
                    stats.push(r.stats);
                    if let Some(t) = tracer {
                        t.attach(op, "pmu", &l.pmu);
                        t.attach(op, "session", &l.session_calls);
                        t.attach(op, "agent.alloc", &l.alloc);
                        t.attach(op, "agent.gc", &l.gc);
                    }
                    let layers = &mut self.layers;
                    layers.runs += 1;
                    layers.pmu_calls += l.pmu.calls();
                    layers.pmu_ns += l.pmu.busy_s() * 1e9;
                    layers.alloc_calls += l.alloc.calls();
                    layers.alloc_ns += l.alloc.busy_s() * 1e9;
                    layers.agent_busy += l.alloc.busy_s() + l.gc.busy_s();
                    layers.monitored += s.allocation_stats().monitored;
                    layers.accesses += r.stats.accesses;
                }
            }
        }
        if let Some(t) = tracer {
            t.record(op, 0, "catalog", "catalog.entry", op_start);
        }
        // The profiler observes the run; it must not change what the run does.
        let first = stats[0];
        for s in &stats[1..] {
            let same = s.allocations == first.allocations
                && s.accesses == first.accesses
                && s.modeled_cycles() == first.modeled_cycles();
            if !same && self.entries[i].mismatch.is_none() {
                self.entries[i].mismatch = Some(format!("{}: {s:?} vs {first:?}", w.name));
            }
        }
        self.next = (k + 1) % self.order.len();
        if self.next == 0 {
            self.rounds += 1;
        }
    }

    /// Runs the reference checks and computes the phase's metrics.
    pub fn finish(self) -> PhaseReport {
        let entries = &self.entries;
        let mut checks = Vec::new();
        let mismatches: Vec<String> = entries.iter().filter_map(|e| e.mismatch.clone()).collect();
        checks.push(Check::new(
            "catalog: profiled and unprofiled runs agree on allocations, accesses and modeled cycles",
            mismatches.first().cloned(),
        ));
        let reference: Vec<String> =
            self.workloads.iter().filter_map(|w| reference_check(w).err()).collect();
        checks.push(Check::new(
            "catalog: samples per thread = floor(qualifying loads / period); monitored = allocations >= size filter",
            reference.first().cloned(),
        ));

        let ratio = |num: &dyn Fn(&Entry) -> &Vec<f64>, den: &dyn Fn(&Entry) -> &Vec<f64>| {
            let ratios: Vec<f64> = entries
                .iter()
                .map(|e| median(num(e)).unwrap_or(0.0) / median(den(e)).unwrap_or(1.0))
                .collect();
            geomean(&ratios).unwrap_or(0.0)
        };
        let mut report = PhaseReport::new("catalog", self.attempted, 0, checks);
        if !self.traced {
            report.end_to_end = vec![
                Metric::new("runtime_overhead_x", ratio(&|e| &e.profiled, &|e| &e.plain), "x"),
                Metric::new(
                    "memory_overhead_x",
                    geomean(&entries.iter().map(Entry::memory_overhead).collect::<Vec<_>>())
                        .unwrap_or(0.0),
                    "x",
                ),
            ];
        } else {
            let layers = &self.layers;
            let per_round = layers.runs.max(1) as f64 / self.workloads.len() as f64;
            let wall: f64 = entries.iter().map(|e| median(&e.plain).unwrap_or(0.0)).sum();
            report.per_layer = vec![
                Metric::new("runtime.wall_s", wall, "s"),
                Metric::new("runtime.accesses", layers.accesses as f64 / per_round, "count"),
                Metric::new("pmu.calls", layers.pmu_calls as f64 / per_round, "count"),
                Metric::new(
                    "pmu.ns_per_call",
                    layers.pmu_ns / layers.pmu_calls.max(1) as f64,
                    "ns",
                ),
                Metric::new("pmu.busy_s", layers.pmu_ns * 1e-9 / per_round, "s"),
                Metric::new("agent.alloc_calls", layers.alloc_calls as f64 / per_round, "count"),
                Metric::new(
                    "agent.alloc_ns_per_call",
                    layers.alloc_ns / layers.alloc_calls.max(1) as f64,
                    "ns",
                ),
                Metric::new("agent.monitored", layers.monitored as f64 / per_round, "count"),
                Metric::new("agent.busy_s", layers.agent_busy / per_round, "s"),
                Metric::new(
                    "session.footprint_bytes",
                    entries.iter().map(|e| e.footprint as f64).sum(),
                    "bytes",
                ),
            ];
            report.trace_overhead = Some(ratio(&|e| &e.traced, &|e| &e.profiled));
        }
        report
    }
}

#[derive(Clone, Copy)]
enum Side {
    Plain,
    Profiled,
    Traced,
}
