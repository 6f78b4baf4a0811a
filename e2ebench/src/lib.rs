//! End-to-end benchmark of the DJXPerf reproduction. See `README.md` next to this
//! crate for the workloads, metrics and how to run it.
//!
//! One run executes three phases through the public API — `catalog` (Fig. 4
//! overhead), `dense-replay` (profiler ingest and analysis) and `fleet-live`
//! (sample-to-visible latency at a loopback aggregator) — checks every output
//! against references the benchmark computes itself, and prints every metric with
//! its unit. A traced run (`--trace 1`) prints the per-layer metrics instead.

pub mod catalog;
pub mod dense;
pub mod fleet;
pub mod stats;
pub mod stream;
pub mod trace;

use std::time::{Duration, Instant};

use stream::Skew;

/// One metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The verdict of one correctness check; `failure` describes the first mismatch.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub failure: Option<String>,
}

impl Check {
    pub fn new(name: &'static str, failure: Option<String>) -> Self {
        Check { name, failure }
    }
}

/// What one phase measured and checked.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Traced wall ÷ untraced wall of the phase's timed operation, in a traced run.
    pub trace_overhead: Option<f64>,
}

impl PhaseReport {
    pub fn new(name: &'static str, attempted: u64, failed: u64, checks: Vec<Check>) -> Self {
        PhaseReport {
            name,
            attempted,
            failed,
            checks,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            trace_overhead: None,
        }
    }
}

/// A named set of inputs. Every workload runs all three phases; they differ in the
/// access pattern of the generated stream behind `dense-replay` and `fleet-live`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub skew: Skew,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "hotset", skew: Skew::HotSet(6.0) },
    Workload { name: "flat", skew: Skew::Flat },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A run is cut into cycles of about this many seconds; each cycle runs a slice of
/// every phase, so a slow spell of the machine spreads over all of them instead of
/// landing on one.
pub const CYCLE_SECONDS: f64 = 10.0;
/// Shares of each cycle given to the phases.
const CATALOG_SHARE: f64 = 0.5;
const DENSE_SHARE: f64 = 0.25;
const FLEET_SHARE: f64 = 0.25;
/// Times the whole set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The result of one run.
#[derive(Debug)]
pub struct RunReport {
    pub phases: Vec<PhaseReport>,
    pub setup_s: f64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.phases.iter().all(|p| p.checks.iter().all(|c| c.failure.is_none()))
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The metrics the final JSON line carries: end-to-end ones untraced, per-layer
    /// ones traced.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let mut out = Vec::new();
        if traced {
            for p in &self.phases {
                out.extend(p.per_layer.iter().cloned());
            }
            let ratios: Vec<f64> = self.phases.iter().filter_map(|p| p.trace_overhead).collect();
            out.push(Metric::new("trace.overhead_x", stats::geomean(&ratios).unwrap_or(0.0), "x"));
        } else {
            out.push(Metric::new("setup_s", self.setup_s, "s"));
            for p in &self.phases {
                out.extend(p.end_to_end.iter().cloned());
            }
        }
        out
    }
}

/// Runs all three phases of `workload` for about `seconds` seconds.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&trace::Tracer>,
) -> std::io::Result<RunReport> {
    // Set-up: build the catalog subset, generate and record the stream with its
    // reference, bind the aggregator, connect, build the sessions. Repeated, and
    // the median reported, so work moved into set-up shows.
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        let workloads = catalog::select(seed, catalog::OPERATIONS);
        let input = dense::setup(seed, workload.skew);
        let first = dense::session();
        let fleet = fleet::setup(&i.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        state = Some((workloads, input, first, fleet));
    }
    let (workloads, input, _, fleet_setup) = state.expect("at least one set-up");
    let setup_s = stats::median(&setups).unwrap_or(0.0);

    let traced = tracer.is_some();
    let mut catalog = catalog::Catalog::new(&workloads, seed, traced);
    let mut dense = dense::Dense::new(&input, traced);
    let mut fleet = fleet::Fleet::new(fleet_setup, traced);
    let cycles = (seconds / CYCLE_SECONDS).round().max(1.0);
    let cycle = seconds / cycles;
    for _ in 0..cycles as usize {
        catalog.run_for(Duration::from_secs_f64(cycle * CATALOG_SHARE), tracer);
        dense.slice(Duration::from_secs_f64(cycle * DENSE_SHARE), tracer);
        fleet.segment(&input.rec, Duration::from_secs_f64(cycle * FLEET_SHARE), tracer)?;
    }
    catalog.finish_round(tracer);
    Ok(RunReport { phases: vec![catalog.finish(), dense.finish(), fleet.finish()], setup_s })
}
