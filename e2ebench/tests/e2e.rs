//! Small-size runs of every phase, and mutation tests showing that the reference
//! checks reject a perturbed result. Run with `cargo test --release`.

use std::time::Duration;

use djxperf::{GroupBy, Query, QueryResult};
use e2ebench::stream::{Skew, StreamSpec};
use e2ebench::trace::Tracer;
use e2ebench::{catalog, dense, fleet, PhaseReport};

fn small_spec(skew: Skew) -> StreamSpec {
    StreamSpec { sites: 200, accesses: 20_000, accesses_per_gc: 4_000, ..dense::spec(skew) }
}

fn assert_clean(report: &PhaseReport) {
    assert_eq!(report.failed, 0, "{}: failed operations", report.name);
    assert!(report.attempted > 0, "{}: nothing attempted", report.name);
    for check in &report.checks {
        assert!(check.failure.is_none(), "{}: {:?}", check.name, check.failure);
    }
}

fn site_result(input: &dense::Input) -> QueryResult {
    let session = dense::session();
    dense::replay_once(&input.rec, &*session);
    Query::new()
        .group_by(GroupBy::Site)
        .evaluate(&*session)
        .expect("a session evaluates")
}

#[test]
fn catalog_round_passes_its_checks() {
    let workloads = catalog::select(3, 20);
    let mut phase = catalog::Catalog::new(&workloads, 3, false);
    phase.round(None);
    let report = phase.finish();
    assert_clean(&report);
    assert_eq!(report.attempted, 2 * workloads.len() as u64);
    for m in &report.end_to_end {
        assert!(m.value > 0.0, "{} = {}", m.name, m.value);
    }
}

#[test]
fn dense_replay_matches_its_reference() {
    for skew in [Skew::HotSet(6.0), Skew::Flat] {
        let input = dense::prepare(&small_spec(skew), 5);
        assert!(input.reference.total() > 0);
        let mut phase = dense::Dense::new(&input, false);
        phase.slice(Duration::ZERO, None);
        let report = phase.finish();
        assert_clean(&report);
        assert!(report.end_to_end.is_empty());
        let names: Vec<_> = report.per_layer.iter().map(|m| m.name).collect();
        assert_eq!(names, ["ingest_mevents_per_s", "analysis_ms", "session_query_p50_ms"]);
    }
}

#[test]
fn fleet_live_identities_hold() {
    let input = dense::prepare(&small_spec(Skew::HotSet(6.0)), 7);
    let setup = fleet::setup("e2e-test").expect("loopback aggregator");
    let mut phase = fleet::Fleet::new(setup, false);
    for _ in 0..2 {
        phase
            .segment(&input.rec, Duration::from_millis(800), None)
            .expect("segment set-up");
    }
    let report = phase.finish();
    assert_clean(&report);
    let names: Vec<_> = report.per_layer.iter().map(|m| m.name).collect();
    assert_eq!(names, ["visible_p50_ms", "visible_p99_ms", "fleet_query_p50_ms", "recover_ms"]);
    assert!(report.per_layer.iter().all(|m| m.value > 0.0));
}

#[test]
fn traced_phases_report_layer_metrics() {
    let tracer = Tracer::default();
    let workloads = catalog::select(4, 10);
    let mut catalog = catalog::Catalog::new(&workloads, 4, true);
    catalog.round(Some(&tracer));
    let catalog = catalog.finish();
    let input = dense::prepare(&small_spec(Skew::Flat), 4);
    let mut dense = dense::Dense::new(&input, true);
    dense.slice(Duration::ZERO, Some(&tracer));
    dense.slice(Duration::ZERO, Some(&tracer));
    let dense = dense.finish();
    for report in [&catalog, &dense] {
        assert_clean(report);
        assert!(report.end_to_end.is_empty());
        assert!(!report.per_layer.is_empty());
        assert!(report.trace_overhead.is_some_and(|x| x > 0.0));
    }
    let pmu = catalog
        .per_layer
        .iter()
        .find(|m| m.name == "pmu.ns_per_call")
        .expect("pmu metric");
    assert!(pmu.value > 0.0);
}

#[test]
fn site_check_rejects_one_sample_moved_to_another_site() {
    let input = dense::prepare(&small_spec(Skew::Flat), 9);
    let mut result = site_result(&input);
    dense::check_sites(&result, &input.reference).expect("the profiler matches the reference");
    let mut hit = result.groups.iter_mut().filter(|g| g.metrics.samples > 0);
    let from = hit.next().expect("a sampled site");
    from.metrics.samples -= 1;
    let to = hit.next().expect("a second sampled site");
    to.metrics.samples += 1;
    assert!(dense::check_sites(&result, &input.reference).is_err());
}

#[test]
fn fleet_comparison_rejects_a_dropped_group() {
    let input = dense::prepare(&small_spec(Skew::Flat), 11);
    let result = site_result(&input);
    let (text, json) = (result.to_text(), result.to_json());
    assert!(fleet::renders_identically(&result, &text, &json));
    let mut dropped = result.clone();
    dropped.groups.pop().expect("a group to drop");
    assert!(!fleet::renders_identically(&dropped, &text, &json));
}
