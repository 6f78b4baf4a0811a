//! `fleet-live`: one producer session replays a recorded stream in an open loop at
//! a fixed offered rate, streaming through `stream_to_fleet` to a loopback
//! `FleetAggregator` with a WAL. An observer follows an aggregator-side watch and
//! issues `FleetClient::query` on a fixed schedule.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use djxperf::{
    DrainPolicy, FleetAggregator, FleetClient, FleetSink, FsyncPolicy, GroupBy, LiveQuery, Query,
    QueryResult, RankBy, Session, DEFAULT_SIZE_FILTER,
};

use crate::stats::{best_cycle_median, median, quantile};
use crate::stream::Recording;
use crate::trace::{timed, Tracer};
use crate::{Check, Metric, PhaseReport};

/// Events per second the producer replays — far below what `dense-replay`
/// measures, so the numbers describe delivery, not ingest.
pub const OFFERED_RATE: f64 = 80_000.0;
/// The generator wakes this often and replays every event that has come due.
pub const TICK: Duration = Duration::from_millis(1);
/// How often the observer issues `FleetClient::query`.
pub const CLIENT_QUERY_EVERY: Duration = Duration::from_millis(20);
/// Sampling period of the producer.
pub const PERIOD: u64 = crate::dense::PERIOD;
/// Recoveries timed per segment (`recover_ms` is the best segment's median).
const RECOVERIES: usize = 5;
/// Fewest visibility samples for which a p99 is a tail (ten samples beyond it):
/// the least a run must yield, and the least a window must hold to count towards
/// `visible_p99_ms`.
pub const MIN_STAMPS: usize = 1000;
/// Per segment, `visible_p99_ms` is the median of the p99s of windows this long
/// (by when the sample was taken): a shared machine's stolen-CPU bursts inflate
/// the tail of the windows they hit, and the median over many short windows is
/// not hostage to how many bursts a segment happens to catch.
pub const WINDOW: Duration = Duration::from_millis(250);
/// How long the observer waits, after `finish_export`, for the watch to reach the
/// producer's final sample count.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// The aggregator-side watch: per-thread samples, which a producer's partial fold
/// carries before its site table arrives with the finish record.
pub fn watch_query() -> Query {
    Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples)
}

/// The query the observer issues on its schedule.
fn client_query() -> Query {
    Query::new().top(10)
}

/// Queries compared between the fleet, the producer's own fold and the recovered
/// aggregator.
pub fn panel() -> Vec<Query> {
    let mut panel = crate::dense::panel();
    panel.push(watch_query());
    panel
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Everything `fleet-live` sets up before its first timed operation.
pub struct Setup {
    dir: PathBuf,
    aggregator: FleetAggregator,
    sink: Arc<FleetSink>,
    session: Arc<Session>,
    watch: LiveQuery,
    client: FleetClient,
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Finish the stream while the aggregator still listens: a session dropped
        // later would retry its finish frame against a closed port until the
        // sink's finish deadline.
        let _ = self.session.finish_export();
        self.aggregator.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn setup(tag: &str) -> std::io::Result<Setup> {
    let dir = out_dir().join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let aggregator =
        FleetAggregator::builder().wal(&dir, FsyncPolicy::Never).bind("127.0.0.1:0")?;
    let addr = aggregator.local_addr().expect("a TCP aggregator has an address").to_string();
    let sink = Arc::new(FleetSink::connect(
        &addr,
        "producer-0",
        djx_pmu::PmuEvent::DEFAULT,
        PERIOD,
        DEFAULT_SIZE_FILTER,
    )?);
    let session = Session::builder()
        .period(PERIOD)
        .expected_threads(1)
        .stream_to_fleet(sink.clone(), DrainPolicy::default())
        .build();
    let watch = aggregator.watch(&watch_query());
    let client = FleetClient::connect(&addr)?;
    Ok(Setup { dir, aggregator, sink, session, watch, client })
}

/// Whether `result` renders byte-identically (text and JSON) to another answer of
/// the same query.
pub fn renders_identically(result: &QueryResult, text: &str, json: &str) -> bool {
    result.to_text() == text && result.to_json() == json
}

/// What one segment measured: a fresh aggregator, producer and observer, run for
/// a slice of the phase, then checked and recovered.
#[derive(Debug, Default)]
struct Segment {
    visible: Vec<f64>,
    /// Visibility latencies by the [`WINDOW`] (since the segment started) their
    /// sample was taken in.
    windows: Vec<Vec<f64>>,
    client_ms: Vec<f64>,
    client_failed: u64,
    stamped: u64,
    unmatched: u64,
    late: Vec<f64>,
    finish_ms: f64,
    export: djxperf::ExportStats,
    status: Option<djxperf::ProducerStatus>,
    connects: u64,
    recover_ms: Vec<f64>,
    frames_per_s: Vec<f64>,
    /// The first failure of each identity check, in [`CHECKS`] order.
    failures: [Option<String>; 5],
}

/// The identity checks every segment runs.
const CHECKS: [&str; 5] = [
    "fleet-live: producer finished, not truncated, 0 dropped epochs",
    "fleet-live: every visibility stamp matched",
    "fleet-live: aggregator and FleetClient answers = the producer's own fold",
    "fleet-live: live watch = cold aggregator query",
    "fleet-live: aggregator recovered from the WAL = the live one",
];

fn run_segment(
    setup: &mut Setup,
    rec: &Recording,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Segment {
    let op = tracer.map(|t| t.id()).unwrap_or(0);
    let op_start = Instant::now();
    let total_events = (OFFERED_RATE * budget.as_secs_f64()) as usize;
    let lap_len = rec.events.len();
    let stamps: Mutex<VecDeque<(u64, Instant)>> = Mutex::new(VecDeque::new());
    let stamped = AtomicU64::new(0);
    let final_total = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let session = &setup.session;
    let watch = &mut setup.watch;
    let client = &mut setup.client;

    let (late, finish, (visible, windows, client_ms, client_failed, unmatched)) =
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let mut late = Vec::new();
                rec.start_threads(&**session);
                let t0 = Instant::now();
                let due_at = |i: usize| t0 + Duration::from_secs_f64(i as f64 / OFFERED_RATE);
                let mut next = 0usize;
                let mut samples = 0u64;
                let mut tick = 1u32;
                while next < total_events {
                    let wake = t0 + TICK * tick;
                    tick += 1;
                    if let Some(wait) = wake.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let now = Instant::now();
                    let due = ((now - t0).as_secs_f64() * OFFERED_RATE) as usize;
                    let due = due.min(total_events);
                    if next < due {
                        late.push(now.saturating_duration_since(due_at(next)).as_secs_f64() * 1e3);
                    }
                    while next < due {
                        let lap = (next / lap_len) as u64;
                        let base = next - next % lap_len;
                        let end = due.min(base + lap_len);
                        rec.replay(&**session, lap, next - base..end - base, |_| {
                            let total = session.total_samples();
                            if total > samples {
                                samples = total;
                                stamps.lock().expect("stamps").push_back((total, Instant::now()));
                                stamped.fetch_add(1, Ordering::SeqCst);
                            }
                        });
                        next = end;
                    }
                }
                let (finish, finish_t) =
                    timed(tracer, None, op, "export", "session.finish_export", || {
                        session.finish_export()
                    });
                final_total.store(session.total_samples(), Ordering::SeqCst);
                done.store(true, Ordering::SeqCst);
                (late, (finish, finish_t))
            });

            let observer = scope.spawn(|| {
                let query = client_query();
                let mut visible = Vec::new();
                let mut windows: Vec<Vec<f64>> = Vec::new();
                let mut client_ms = Vec::new();
                let mut failed = 0u64;
                let t0 = Instant::now();
                let mut k = 1u32;
                let mut seen = 0u64;
                let mut finished_at = None;
                loop {
                    let due = t0 + CLIENT_QUERY_EVERY * k;
                    let wait = due.saturating_duration_since(Instant::now());
                    if let Ok(Some(r)) = watch.next_epoch_timeout(wait) {
                        let now = Instant::now();
                        seen = r.result.total_samples;
                        let mut q = stamps.lock().expect("stamps");
                        while q.front().is_some_and(|(n, _)| *n <= seen) {
                            let (_, taken) = q.pop_front().expect("front exists");
                            let ms = now.saturating_duration_since(taken).as_secs_f64() * 1e3;
                            visible.push(ms);
                            let w = (taken.saturating_duration_since(t0).as_secs_f64()
                                / WINDOW.as_secs_f64())
                                as usize;
                            if windows.len() <= w {
                                windows.resize(w + 1, Vec::new());
                            }
                            windows[w].push(ms);
                        }
                    }
                    if done.load(Ordering::SeqCst) {
                        let deadline =
                            *finished_at.get_or_insert_with(Instant::now) + DRAIN_DEADLINE;
                        if seen >= final_total.load(Ordering::SeqCst) || Instant::now() > deadline {
                            break;
                        }
                    }
                    if Instant::now() >= due {
                        k += 1;
                        if done.load(Ordering::SeqCst) {
                            continue;
                        }
                        let (r, t) = timed(tracer, None, op, "fleet", "fleet_client.query", || {
                            client.query(&query)
                        });
                        match r {
                            Ok(_) => client_ms.push(t.as_secs_f64() * 1e3),
                            Err(_) => failed += 1,
                        }
                    }
                }
                let unmatched = stamps.lock().expect("stamps").len() as u64;
                (visible, windows, client_ms, failed, unmatched)
            });
            let (late, finish) = producer.join().expect("producer thread");
            (late, finish, observer.join().expect("observer thread"))
        });

    // Identity checks, once finish_export has returned.
    let mut seg = Segment {
        visible,
        windows,
        client_ms,
        client_failed,
        stamped: stamped.load(Ordering::SeqCst),
        unmatched,
        late,
        ..Segment::default()
    };
    let (finish, finish_t) = finish;
    seg.finish_ms = finish_t.as_secs_f64() * 1e3;
    let status = setup.aggregator.status();
    let producer_ok = status.len() == 1
        && status[0].finished
        && !status[0].truncated
        && status[0].dropped_epochs == 0
        && finish.is_ok();
    if !producer_ok {
        seg.failures[0] = Some(format!("{status:?}, export {finish:?}"));
    }
    seg.export = finish.unwrap_or_default();
    seg.status = status.into_iter().next();
    seg.connects = setup.sink.stats().connects;
    if seg.unmatched > 0 || (seg.visible.len() as u64) < seg.stamped {
        seg.failures[1] = Some(format!(
            "{} matched of {}, {} unmatched",
            seg.visible.len(),
            seg.stamped,
            seg.unmatched
        ));
    }
    let profile = session.object_profile().expect("a streaming session collects objects");
    let mut live: Vec<QueryResult> = Vec::new();
    for q in panel() {
        let local = q.evaluate(&profile).expect("a profile evaluates");
        let agg = setup.aggregator.query(&q).expect("the aggregator view evaluates");
        let remote = client.query(&q);
        let remote_ok =
            remote.as_ref().is_ok_and(|r| renders_identically(&local, &r.text, &r.json));
        if seg.failures[2].is_none()
            && (!renders_identically(&local, &agg.to_text(), &agg.to_json()) || !remote_ok)
        {
            seg.failures[2] =
                Some(format!("query {:?} differs:\n{}\nvs\n{}", q, local.to_text(), agg.to_text()));
        }
        live.push(agg);
    }
    let watched = watch.current().result;
    let cold = setup.aggregator.query(&watch_query()).expect("the aggregator view evaluates");
    if watched.to_text() != cold.to_text() {
        seg.failures[3] = Some(format!("watch\n{}\ncold\n{}", watched.to_text(), cold.to_text()));
    }

    // Recovery: replay the WAL into a fresh aggregator, timed until it has answered
    // the two queries the run issued (the client's and the watch's); the whole
    // panel is compared afterwards.
    let expected: Vec<String> = live.iter().map(|r| r.to_text() + &r.to_json()).collect();
    for i in 0..RECOVERIES {
        let mut replay = Duration::ZERO;
        let (recovered, t) = timed(tracer, None, op, "fleet", "fleet.recover_and_answer", || {
            let (builder, replay_t) =
                timed(tracer, None, op, "fleet", "fleet_aggregator.recover", || {
                    FleetAggregator::recover(&setup.dir)
                });
            replay = replay_t;
            let agg = builder?.bind("127.0.0.1:0")?;
            for q in [client_query(), watch_query()] {
                agg.query(&q).map_err(|e| std::io::Error::other(e.to_string()))?;
            }
            Ok::<_, std::io::Error>(agg)
        });
        // The first recovery answers the whole panel for the identity check.
        let compared = if i == 0 { panel() } else { Vec::new() };
        let answers = recovered.and_then(|agg| {
            let frames: u64 = agg
                .recovery_report()
                .map(|r| r.producers.iter().map(|p| p.frames).sum())
                .unwrap_or(0);
            let answers: Vec<String> = compared
                .iter()
                .map(|q| agg.query(q).map(|r| r.to_text() + &r.to_json()))
                .collect::<Result<_, _>>()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok((answers, frames))
        });
        match answers {
            Ok((answers, frames)) => {
                seg.recover_ms.push(t.as_secs_f64() * 1e3);
                seg.frames_per_s.push(frames as f64 / replay.as_secs_f64());
                if i == 0 && answers != expected && seg.failures[4].is_none() {
                    seg.failures[4] = Some("the recovered aggregator answers differently".into());
                }
            }
            Err(e) => seg.failures[4] = Some(format!("recovery failed: {e}")),
        }
    }
    if let Some(t) = tracer {
        t.record(op, 0, "fleet", "fleet.segment", op_start);
    }
    seg
}

/// The fleet-live phase's accumulated segments.
pub struct Fleet {
    traced: bool,
    segments: Vec<Segment>,
    next: Option<Setup>,
}

impl Fleet {
    /// `first` is the set-up made before the run's first timed operation; later
    /// segments set up afresh.
    pub fn new(first: Setup, traced: bool) -> Self {
        Fleet { traced, segments: Vec::new(), next: Some(first) }
    }

    /// Streams `rec` for `budget` through a fresh aggregator, then checks it.
    pub fn segment(
        &mut self,
        rec: &Recording,
        budget: Duration,
        tracer: Option<&Tracer>,
    ) -> std::io::Result<()> {
        let mut setup = match self.next.take() {
            Some(s) => s,
            None => setup(&format!("s{}", self.segments.len()))?,
        };
        self.segments.push(run_segment(&mut setup, rec, budget, tracer));
        Ok(())
    }

    pub fn finish(self) -> PhaseReport {
        let segs = &self.segments;
        let all = |f: &dyn Fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
            segs.iter().flat_map(|s| f(s).iter().copied()).collect()
        };
        let sum = |f: &dyn Fn(&Segment) -> u64| -> u64 { segs.iter().map(f).sum() };
        let visible = all(&|s| &s.visible);
        let stamped = sum(&|s| s.stamped);
        let mut checks: Vec<Check> = CHECKS
            .iter()
            .enumerate()
            .map(|(i, name)| Check::new(name, segs.iter().find_map(|s| s.failures[i].clone())))
            .collect();
        checks.push(Check::new(
            "fleet-live: at least MIN_STAMPS visibility samples",
            (visible.len() < MIN_STAMPS).then(|| format!("{} samples", visible.len())),
        ));
        let client = sum(&|s| s.client_ms.len() as u64);
        let client_failed = sum(&|s| s.client_failed);
        let unmatched = sum(&|s| s.unmatched);
        let mut report = PhaseReport::new(
            "fleet-live",
            stamped + client + client_failed,
            client_failed + unmatched,
            checks,
        );
        // Per segment (one per cycle): its median, then the best segment.
        let per = |f: &dyn Fn(&Segment) -> Vec<f64>| -> f64 {
            best_cycle_median(&segs.iter().map(f).collect::<Vec<_>>(), true).unwrap_or(0.0)
        };
        let window_p99s = |s: &Segment| -> Vec<f64> {
            s.windows
                .iter()
                .filter(|w| w.len() >= MIN_STAMPS)
                .filter_map(|w| quantile(w, 0.99))
                .collect()
        };
        // The phase's headline metrics carry no regression bound (see README):
        // reported in every run, in the traced run's metrics.
        report.per_layer = vec![
            Metric::new("visible_p50_ms", per(&|s| s.visible.clone()), "ms"),
            Metric::new("visible_p99_ms", per(&window_p99s), "ms"),
            Metric::new("fleet_query_p50_ms", per(&|s| s.client_ms.clone()), "ms"),
            Metric::new("recover_ms", per(&|s| s.recover_ms.clone()), "ms"),
        ];
        if self.traced {
            let stat = |f: &dyn Fn(&djxperf::ProducerStatus) -> u64| {
                segs.iter().filter_map(|s| s.status.as_ref()).map(f).sum::<u64>() as f64
            };
            let n = segs.len().max(1) as f64;
            report.per_layer.extend([
                Metric::new("export.deltas", sum(&|s| s.export.deltas_streamed) as f64, "count"),
                Metric::new("export.coalesced", sum(&|s| s.export.coalesced) as f64, "count"),
                Metric::new("export.blocked", sum(&|s| s.export.blocked) as f64, "count"),
                Metric::new(
                    "export.finish_ms",
                    median(&segs.iter().map(|s| s.finish_ms).collect::<Vec<_>>()).unwrap_or(0.0),
                    "ms",
                ),
                Metric::new(
                    "wire.bytes_per_sample",
                    stat(&|s| s.bytes_received) / stat(&|s| s.samples).max(1.0),
                    "bytes",
                ),
                Metric::new("fleet.frames", stat(&|s| s.frames_received), "count"),
                Metric::new("fleet.wal_bytes", stat(&|s| s.wal_bytes), "bytes"),
                Metric::new("fleet.duplicates", stat(&|s| s.duplicates), "count"),
                Metric::new("fleet.connects", sum(&|s| s.connects) as f64 / n, "count"),
                Metric::new(
                    "fleet.recover_frames_per_s",
                    median(&all(&|s| &s.frames_per_s)).unwrap_or(0.0),
                    "frames/s",
                ),
                Metric::new(
                    "loadgen.late_p99_ms",
                    quantile(&all(&|s| &s.late), 0.99).unwrap_or(0.0),
                    "ms",
                ),
            ]);
        }
        report
    }
}
