//! The traced run's instruments, all in the benchmark's own code: spans around the
//! calls into each layer's public functions, kept in memory and written out when
//! the run ends, and sampled per-call timers for the listener callbacks.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    RuntimeListener, ThreadEvent,
};
use djxperf::Session;

/// One recorded span: `parent` is the workload operation that caused it (0 for an
/// operation itself).
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A per-layer total attached to an operation span (sampled call timers are too
/// numerous to keep as spans).
#[derive(Debug, Clone)]
struct LayerTotal {
    parent: u64,
    layer: &'static str,
    calls: u64,
    timed: u64,
    timed_ns: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    totals: Mutex<Vec<LayerTotal>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            totals: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Allocates a span id up front, so children can name their parent before the
    /// parent span closes.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Relaxed)
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: self.origin.elapsed().as_nanos() as u64,
        };
        self.spans.lock().expect("span store").push(span);
    }

    /// Attaches a per-layer call timer's totals to the operation span `parent`.
    pub fn attach(&self, parent: u64, layer: &'static str, timer: &CallTimer) {
        self.totals.lock().expect("span store").push(LayerTotal {
            parent,
            layer,
            calls: timer.calls(),
            timed: timer.timed.load(Relaxed),
            timed_ns: timer.ns.load(Relaxed),
        });
    }

    /// Writes every span and layer total as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store").iter() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        for t in self.totals.lock().expect("span store").iter() {
            writeln!(
                out,
                "{{\"kind\":\"layer_total\",\"parent\":{},\"layer\":\"{}\",\"calls\":{},\"timed\":{},\"timed_ns\":{}}}",
                t.parent, t.layer, t.calls, t.timed, t.timed_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, returning its result and wall time; records a span when tracing.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    id: Option<u64>,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if let Some(tracer) = tracer {
        let id = id.unwrap_or_else(|| tracer.id());
        tracer.record(id, parent, layer, name, start);
    }
    (out, elapsed)
}

/// A sampled call timer: counts every call, times some of them, and scales the
/// timed share up to the whole. Written by one thread at a time.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
}

impl CallTimer {
    fn count(&self) {
        self.calls.store(self.calls.load(Relaxed) + 1, Relaxed);
    }

    fn time(&self, d: Duration) {
        self.count();
        self.timed.store(self.timed.load(Relaxed) + 1, Relaxed);
        self.ns.store(self.ns.load(Relaxed) + d.as_nanos() as u64, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Mean nanoseconds per timed call (0 when nothing was timed).
    pub fn ns_per_call(&self) -> f64 {
        let timed = self.timed.load(Relaxed);
        if timed == 0 {
            0.0
        } else {
            self.ns.load(Relaxed) as f64 / timed as f64
        }
    }

    /// Estimated seconds spent in all calls.
    pub fn busy_s(&self) -> f64 {
        self.ns_per_call() * self.calls() as f64 * 1e-9
    }
}

/// Threads whose qualifying-event counts the tracer follows (the generated
/// programs and the catalog use small thread ids).
const TRACKED_THREADS: usize = 64;

/// A [`RuntimeListener`] that forwards to a [`Session`] and times the calls into
/// it, per layer:
///
/// * `pmu` — `on_memory_access` calls that return without a sample;
/// * `session` — `on_memory_access` calls that deliver at least one sample, split
///   from the rest by reading [`Session::total_samples`] before and after;
/// * `alloc` — `on_object_alloc`;
/// * `gc` — `on_gc_start`, `on_gc_end`, `on_object_move`, `on_object_reclaim`.
///
/// Timing every access call distorts the run, so one unsampled call in
/// [`ACCESS_STRIDE`] is timed. Sampled calls are rare, so the tracer predicts them — with jitter off
/// a thread's PMU fires on every `period`-th qualifying event — and times each.
pub struct TracingListener {
    session: Arc<Session>,
    event: PmuEvent,
    period: u64,
    counts: [AtomicU64; TRACKED_THREADS],
    access_calls: AtomicU64,
    alloc_calls: AtomicU64,
    pub pmu: CallTimer,
    pub session_calls: CallTimer,
    pub alloc: CallTimer,
    pub gc: CallTimer,
}

/// One unsampled access call in this many is timed.
pub const ACCESS_STRIDE: u64 = 16;
/// One allocation call in this many is timed.
pub const ALLOC_STRIDE: u64 = 4;

impl TracingListener {
    pub fn new(session: Arc<Session>) -> Self {
        let config = session.config();
        TracingListener {
            session,
            event: config.event,
            period: config.period,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            access_calls: AtomicU64::new(0),
            alloc_calls: AtomicU64::new(0),
            pmu: CallTimer::default(),
            session_calls: CallTimer::default(),
            alloc: CallTimer::default(),
            gc: CallTimer::default(),
        }
    }

    // The listener is driven from one thread at a time, so its counters advance with
    // a plain load and store instead of a locked read-modify-write.
    fn predicts_sample(&self, event: &MemoryAccessEvent<'_>) -> bool {
        let inc = self.event.increment_for(&event.outcome);
        match self.counts.get(event.thread.0 as usize) {
            Some(count) if inc > 0 => {
                let before = count.load(Relaxed);
                count.store(before + inc, Relaxed);
                (before + inc) / self.period > before / self.period
            }
            _ => false,
        }
    }

    fn next_call(counter: &AtomicU64) -> u64 {
        let n = counter.load(Relaxed);
        counter.store(n + 1, Relaxed);
        n
    }
}

impl RuntimeListener for TracingListener {
    fn on_vm_start(&self) {
        self.session.on_vm_start();
    }

    fn on_vm_end(&self) {
        self.session.on_vm_end();
    }

    fn on_thread_start(&self, event: &ThreadEvent<'_>) {
        self.session.on_thread_start(event);
    }

    fn on_thread_end(&self, event: &ThreadEvent<'_>) {
        self.session.on_thread_end(event);
    }

    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        if Self::next_call(&self.alloc_calls).is_multiple_of(ALLOC_STRIDE) {
            let start = Instant::now();
            self.session.on_object_alloc(event);
            self.alloc.time(start.elapsed());
        } else {
            self.session.on_object_alloc(event);
            self.alloc.count();
        }
    }

    fn on_memory_access(&self, event: &MemoryAccessEvent<'_>) {
        let predicted = self.predicts_sample(event);
        let sampled_call = Self::next_call(&self.access_calls).is_multiple_of(ACCESS_STRIDE);
        let before = self.session.total_samples();
        if predicted || sampled_call {
            let start = Instant::now();
            self.session.on_memory_access(event);
            let elapsed = start.elapsed();
            if self.session.total_samples() > before {
                self.session_calls.time(elapsed);
            } else {
                self.pmu.time(elapsed);
            }
        } else {
            self.session.on_memory_access(event);
            if self.session.total_samples() > before {
                self.session_calls.count();
            } else {
                self.pmu.count();
            }
        }
    }

    fn on_gc_start(&self, event: &GcEvent) {
        let start = Instant::now();
        self.session.on_gc_start(event);
        self.gc.time(start.elapsed());
    }

    fn on_gc_end(&self, event: &GcEvent) {
        let start = Instant::now();
        self.session.on_gc_end(event);
        self.gc.time(start.elapsed());
    }

    fn on_object_move(&self, event: &ObjectMoveEvent) {
        let start = Instant::now();
        self.session.on_object_move(event);
        self.gc.time(start.elapsed());
    }

    fn on_object_reclaim(&self, event: &ObjectReclaimEvent) {
        let start = Instant::now();
        self.session.on_object_reclaim(event);
        self.gc.time(start.elapsed());
    }
}
