//! A generated program's listener event stream, recorded in memory before timing
//! starts and replayed straight into a listener, plus the benchmark's own reference
//! model of what a profiler must attribute from it.
//!
//! The program has thousands of allocation sites, each behind a distinct call path
//! with a distinct leaf frame; objects are bump-allocated, accessed (through the
//! `djx_memsim` hierarchy, so miss flags and NUMA nodes are realistic), and
//! periodically collected by a compacting GC that reclaims dead objects and slides
//! the survivors down. The stream starts and ends with an empty heap (a final
//! collection reclaims everything), so it can be replayed lap after lap.

use std::collections::{BTreeMap, HashMap};

use djx_memsim::{AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcEvent, GcId, MemoryAccessEvent, MethodId, MethodRegistry,
    ObjectId, ObjectMoveEvent, ObjectReclaimEvent, RuntimeListener, ThreadEvent, ThreadId,
};

use crate::stats::Rng;

/// How objects are picked for accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Every live object is equally likely.
    Flat,
    /// Rank `floor(n · u^k)` in a fixed heat order: with `k = 6`, the hottest 0.1%
    /// of live objects take about a third of all accesses.
    HotSet(f64),
}

/// The make-up of a generated stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub sites: usize,
    pub classes: usize,
    pub threads: u64,
    pub accesses: u64,
    /// One allocation per this many accesses.
    pub accesses_per_alloc: u64,
    /// One collection per this many accesses.
    pub accesses_per_gc: u64,
    /// Probability that a live object dies at a collection.
    pub death_rate: f64,
    /// Share of allocations below the size filter (never monitored).
    pub small_share: f64,
    pub skew: Skew,
    /// Consecutive accesses one thread issues before the next thread runs.
    pub burst: u64,
}

/// One recorded listener event. Strings and call paths live in the [`Recording`]'s
/// tables; events refer to them by index.
#[derive(Debug, Clone)]
pub enum Ev {
    Alloc { object: u64, site: u32, start: u64, size: u64, thread: u64 },
    Access { thread: u64, trace: u32, outcome: AccessOutcome },
    GcStart { gc: u64, heap_used: u64 },
    GcEnd { gc: u64, heap_used: u64, moved: u64, reclaimed: u64 },
    Move { gc: u64, object: u64, old: u64, new: u64, size: u64 },
    Reclaim { gc: u64, object: u64, addr: u64, size: u64, site: u32 },
}

/// An allocation site: class plus root-first call path.
#[derive(Debug, Clone)]
pub struct SiteDef {
    pub class: u32,
    pub path: Vec<Frame>,
}

/// A recorded stream and the tables its events index into.
#[derive(Debug)]
pub struct Recording {
    pub events: Vec<Ev>,
    pub sites: Vec<SiteDef>,
    pub classes: Vec<String>,
    pub access_traces: Vec<Vec<Frame>>,
    pub methods: MethodRegistry,
    pub threads: Vec<(ThreadId, String)>,
    /// Object ids used by one lap (ids are offset by this per lap).
    pub objects: u64,
    /// GC cycles per lap.
    pub gcs: u64,
}

/// The address the generated heap starts at.
const HEAP_BASE: u64 = 0x4000_0000;

#[derive(Debug, Clone)]
struct LiveObj {
    id: u64,
    start: u64,
    size: u64,
    site: u32,
    heat: u64,
}

/// Generates and records a stream from `spec` and `seed`.
pub fn generate(spec: &StreamSpec, seed: u64) -> Recording {
    let mut rng = Rng::new(seed);
    let mut methods = MethodRegistry::new();
    let run = methods.register("java.lang.Thread", "run", "Thread.java", &[(0, 1)]);
    let middle: Vec<MethodId> = (0..64)
        .map(|i| {
            methods.register(
                format!("app.Service{i}"),
                format!("handle{i}"),
                format!("Service{i}.java"),
                &[(0, 10 + i), (40, 20 + i)],
            )
        })
        .collect();
    let allocators: Vec<MethodId> = (0..256)
        .map(|i| {
            let table: Vec<(u32, u32)> = (0..32).map(|b| (b * 3, 100 + b)).collect();
            methods.register(
                format!("app.model.Builder{i}"),
                format!("build{i}"),
                format!("Builder{i}.java"),
                &table,
            )
        })
        .collect();
    let classes: Vec<String> = (0..spec.classes).map(|c| format!("app.model.Type{c}[]")).collect();

    // Distinct leaf frame per site: allocator method × bytecode index.
    let sites: Vec<SiteDef> = (0..spec.sites)
        .map(|s| {
            let mut path = vec![Frame::new(run, 0)];
            for _ in 0..1 + rng.below(4) {
                path.push(Frame::new(middle[rng.below(middle.len() as u64) as usize], 40));
            }
            let leaf_method = allocators[s % allocators.len()];
            path.push(Frame::new(leaf_method, 3 * (s / allocators.len()) as u32));
            SiteDef { class: rng.below(spec.classes as u64) as u32, path }
        })
        .collect();
    // Heavy-tailed site popularity: a few sites allocate most objects.
    let mut site_order: Vec<u32> = (0..spec.sites as u32).collect();
    rng.shuffle(&mut site_order);
    let weights: Vec<f64> = (0..spec.sites).map(|i| 1.0 / (i as f64 + 1.0).powf(0.8)).collect();
    let mut cdf = Vec::with_capacity(spec.sites);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }

    let threads: Vec<(ThreadId, String)> =
        (0..spec.threads).map(|t| (ThreadId(t + 1), format!("worker-{t}"))).collect();
    let access_traces: Vec<Vec<Frame>> = (0..spec.threads * 4)
        .map(|i| {
            vec![
                Frame::new(run, 0),
                Frame::new(middle[(i as usize * 7) % middle.len()], 40),
                Frame::new(middle[(i as usize * 13 + 1) % middle.len()], 0),
            ]
        })
        .collect();

    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
    let mut heap = Heap { live: Vec::new(), heat_order: Vec::new(), top: HEAP_BASE, next_id: 1 };
    let mut events = Vec::new();
    let mut gc = 0u64;
    let mut thread = 0u64;
    for i in 0..spec.accesses {
        if i % spec.burst == 0 {
            thread = (thread + 1) % spec.threads;
        }
        if i % spec.accesses_per_alloc == 0 || heap.live.is_empty() {
            let pick = rng.unit() * acc;
            let rank = cdf.partition_point(|c| *c < pick).min(spec.sites - 1);
            let size = if rng.unit() < spec.small_share {
                64 + 8 * rng.below(120)
            } else {
                1024 + 64 * rng.below(480)
            };
            events.push(heap.allocate(site_order[rank], size, thread + 1, rng.next_u64()));
        }
        let live = &heap.live;
        let idx = match spec.skew {
            Skew::Flat => rng.below(live.len() as u64) as usize,
            Skew::HotSet(k) => {
                let rank = (live.len() as f64 * rng.unit().powf(k)) as usize;
                heap.heat_order[rank.min(live.len() - 1)]
            }
        };
        let obj = &live[idx];
        let addr = obj.start + 8 * rng.below(obj.size / 8);
        let cpu = thread as usize;
        let access = if rng.below(100) < 85 {
            MemoryAccess::load(cpu, addr, 8)
        } else {
            MemoryAccess::store(cpu, addr, 8)
        };
        let outcome = hierarchy.access(access);
        let trace = (thread * 4 + rng.below(4)) as u32;
        events.push(Ev::Access { thread: thread + 1, trace, outcome });

        if (i + 1) % spec.accesses_per_gc == 0 {
            gc += 1;
            heap.collect(&mut rng, spec.death_rate, gc, &mut events);
        }
    }
    gc += 1;
    heap.collect(&mut rng, 1.0, gc, &mut events);

    Recording {
        events,
        sites,
        classes,
        access_traces,
        methods,
        threads,
        objects: heap.next_id,
        gcs: gc,
    }
}

/// The generated program's heap: live objects in address order, bump-allocated.
struct Heap {
    live: Vec<LiveObj>,
    /// Indices into `live`, hottest first (new objects join at the cold end).
    heat_order: Vec<usize>,
    top: u64,
    next_id: u64,
}

impl Heap {
    fn allocate(&mut self, site: u32, size: u64, thread: u64, heat: u64) -> Ev {
        let id = self.next_id;
        self.next_id += 1;
        self.heat_order.push(self.live.len());
        self.live.push(LiveObj { id, start: self.top, size, site, heat });
        let ev = Ev::Alloc { object: id, site, start: self.top, size, thread };
        self.top += size;
        ev
    }

    /// One compacting collection: reclaim the dead (at their current addresses),
    /// then slide the survivors down in address order.
    fn collect(&mut self, rng: &mut Rng, death_rate: f64, gc: u64, events: &mut Vec<Ev>) {
        events.push(Ev::GcStart { gc, heap_used: self.top - HEAP_BASE });
        let mut survivors = Vec::with_capacity(self.live.len());
        let mut reclaimed = 0;
        for obj in self.live.drain(..) {
            if rng.unit() < death_rate {
                let (object, addr, size, site) = (obj.id, obj.start, obj.size, obj.site);
                events.push(Ev::Reclaim { gc, object, addr, size, site });
                reclaimed += 1;
            } else {
                survivors.push(obj);
            }
        }
        let mut cursor = HEAP_BASE;
        let mut moved = 0;
        for obj in &mut survivors {
            if obj.start != cursor {
                let (object, old, size) = (obj.id, obj.start, obj.size);
                events.push(Ev::Move { gc, object, old, new: cursor, size });
                obj.start = cursor;
                moved += 1;
            }
            cursor += obj.size;
        }
        self.top = cursor;
        self.live = survivors;
        let mut order: Vec<usize> = (0..self.live.len()).collect();
        order.sort_by_key(|&i| self.live[i].heat);
        self.heat_order = order;
        events.push(Ev::GcEnd { gc, heap_used: self.top - HEAP_BASE, moved, reclaimed });
    }
}

impl Recording {
    /// Announces every thread of the program (once per listener, before lap 0).
    pub fn start_threads<L: RuntimeListener + ?Sized>(&self, listener: &L) {
        for (i, (thread, name)) in self.threads.iter().enumerate() {
            listener.on_thread_start(&ThreadEvent { thread: *thread, name, cpu: i });
        }
    }

    /// Delivers `events[range]` of lap `lap` to `listener`. `on_access` runs after
    /// each memory access with the event's index, so a caller can read counters the
    /// access moved.
    pub fn replay<L: RuntimeListener + ?Sized>(
        &self,
        listener: &L,
        lap: u64,
        range: std::ops::Range<usize>,
        mut on_access: impl FnMut(usize),
    ) {
        let ids = lap * self.objects;
        let gcs = lap * self.gcs;
        let first = range.start;
        for (k, ev) in self.events[range].iter().enumerate() {
            match *ev {
                Ev::Alloc { object, site, start, size, thread } => {
                    let def = &self.sites[site as usize];
                    listener.on_object_alloc(&AllocationEvent {
                        object: ObjectId(object + ids),
                        class: ClassId(def.class),
                        class_name: &self.classes[def.class as usize],
                        start,
                        size,
                        thread: ThreadId(thread),
                        call_trace: &def.path,
                    });
                }
                Ev::Access { thread, trace, outcome } => {
                    listener.on_memory_access(&MemoryAccessEvent {
                        thread: ThreadId(thread),
                        outcome,
                        call_trace: &self.access_traces[trace as usize],
                        object: None,
                    });
                    on_access(first + k);
                }
                Ev::GcStart { gc, heap_used } => listener.on_gc_start(&GcEvent {
                    gc: GcId(gc + gcs),
                    heap_used,
                    objects_moved: 0,
                    objects_reclaimed: 0,
                }),
                Ev::GcEnd { gc, heap_used, moved, reclaimed } => listener.on_gc_end(&GcEvent {
                    gc: GcId(gc + gcs),
                    heap_used,
                    objects_moved: moved,
                    objects_reclaimed: reclaimed,
                }),
                Ev::Move { gc, object, old, new, size } => {
                    listener.on_object_move(&ObjectMoveEvent {
                        gc: GcId(gc + gcs),
                        object: ObjectId(object + ids),
                        old_addr: old,
                        new_addr: new,
                        size,
                    })
                }
                Ev::Reclaim { gc, object, addr, size, site } => {
                    listener.on_object_reclaim(&ObjectReclaimEvent {
                        gc: GcId(gc + gcs),
                        object: ObjectId(object + ids),
                        addr,
                        size,
                        class: ClassId(self.sites[site as usize].class),
                    })
                }
            }
        }
    }
}

/// What a correct object-centric profiler attributes from one lap of a recording,
/// computed without the profiler: live monitored ranges are tracked through
/// allocations, deferred moves (applied at GC end, as the agent does) and
/// reclamations, and every `period`-th qualifying load of each thread is resolved
/// against them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Samples per leaf allocation frame (the `GroupBy::Site` key).
    pub per_site: BTreeMap<Frame, u64>,
    /// Samples that hit no monitored object.
    pub unattributed: u64,
    /// Samples per thread.
    pub per_thread: BTreeMap<u64, u64>,
    /// Allocations at or above the size filter.
    pub monitored: u64,
}

impl Reference {
    pub fn total(&self) -> u64 {
        self.per_site.values().sum::<u64>() + self.unattributed
    }
}

/// Computes the [`Reference`] for one lap of `rec`.
pub fn reference(rec: &Recording, event: PmuEvent, period: u64, size_filter: u64) -> Reference {
    let mut out = Reference::default();
    // start -> (end, site, object)
    let mut ranges: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new();
    let mut pending: Vec<(u64, u64, u64, u64)> = Vec::new();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for ev in &rec.events {
        match *ev {
            Ev::Alloc { object, site, start, size, .. } => {
                if size >= size_filter {
                    out.monitored += 1;
                    ranges.insert(start, (start + size, site, object));
                }
            }
            Ev::Access { thread, outcome, .. } => {
                let inc = event.increment_for(&outcome);
                if inc == 0 {
                    continue;
                }
                let count = counts.entry(thread).or_default();
                let before = *count / period;
                *count += inc;
                let fired = *count / period - before;
                if fired == 0 {
                    continue;
                }
                *out.per_thread.entry(thread).or_default() += fired;
                let addr = outcome.access.addr;
                match ranges.range(..=addr).next_back() {
                    Some((_, &(end, site, _))) if addr < end => {
                        let leaf = *rec.sites[site as usize].path.last().expect("non-empty path");
                        *out.per_site.entry(leaf).or_default() += fired;
                    }
                    _ => out.unattributed += fired,
                }
            }
            Ev::Move { object, old, new, size, .. } => pending.push((object, old, new, size)),
            Ev::GcEnd { .. } => {
                for (object, old, new, size) in pending.drain(..) {
                    if let Some(&(end, site, id)) = ranges.get(&old) {
                        if id == object {
                            ranges.remove(&old);
                            ranges.insert(new, (new + size, site, id));
                            debug_assert_eq!(end - old, size);
                        }
                    }
                }
            }
            Ev::Reclaim { addr, object, .. } => {
                if ranges.get(&addr).is_some_and(|r| r.2 == object) {
                    ranges.remove(&addr);
                }
            }
            Ev::GcStart { .. } => {}
        }
    }
    out
}
