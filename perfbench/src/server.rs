//! `server_stream`: the online service fed a recorded arrival trace.
//!
//! Open loop: the generator (this thread) submits trace A to
//! `dts_server::spawn` on a fixed schedule at [`OFFERED_RATE`] tasks per
//! second — about a third of the service's capacity on the reference host,
//! so slow host stretches do not tip it into backlog. A task's latency
//! runs from its due time to the emission of its placement.
//!
//! Saturation: trace B goes batch by batch, each batch submitted at once,
//! alternately to a serial service and to a service evaluating on two
//! threads. Both receive the same submissions, so their placements must
//! be identical, and the median ratio of their batch times is
//! `speedup_2w`.
//!
//! Traced, the run also drives `DtsServer::submit`, `plan` and `dispatch`
//! directly on trace A, and rebuilds every plan call from public pieces
//! under the timing wrappers; both must reproduce the service's
//! placements.

use std::time::{Duration, Instant};

use dts_core::fitness::ProcessorState;
use dts_core::init::remap_islands;
use dts_core::PnConfig;
use dts_distributions::Prng;
use dts_distributions::Rng;
use dts_ga::Chromosome;
use dts_model::{
    ArrivalProcess, ProcessorId, SimTime, SizeDistribution, Task, TaskId, WorkloadSpec,
};
use dts_server::{
    replay_trace, spawn, DtsServer, PlacementEvent, PlanBudget, ProcessorProfile, ServerConfig,
    ServerStats, ServiceHandle, TenantId, TimedPlacement,
};
use dts_sim::arrivals::ArrivalTrace;

use crate::stats::{mean, median, tail};
use crate::trace::{self, CallStats, Counters, PlanInput, Recorder, ROOT};
use crate::{Opts, Scale, SetupTimes, Tally, WARMUP_SEED};

/// Offered load of the open loop, tasks per second of wall time. The
/// serial service's saturation throughput measured a median of 2 570
/// tasks/s (1 264 to 3 154) over twenty 25-second runs on the 2-core
/// reference host, so this is under a third of it, and under two thirds
/// of the slowest run, which lost 11 of its 25 seconds to steal.
pub const OFFERED_RATE: f64 = 800.0;

/// Set-ups per untraced run. Each records and parses both traces, about a
/// quarter of a second at 25 seconds, so fewer fit than on the other
/// workloads.
const SETUPS: usize = 15;

#[derive(Debug, Clone, Copy)]
struct Shape {
    procs: usize,
    batch: usize,
    max_generations: u32,
    tenants: usize,
    rate: f64,
    /// Share of the measured seconds given to the open loop.
    open_share: f64,
    /// Saturation tasks recorded per measured second.
    saturation_per_s: f64,
}

fn shape(opts: &Opts) -> Shape {
    match opts.scale {
        Scale::Full => Shape {
            procs: 10,
            batch: 30,
            max_generations: 300,
            tenants: 4,
            rate: OFFERED_RATE,
            open_share: 0.45,
            saturation_per_s: 600.0,
        },
        Scale::Tiny => tiny_shape(),
    }
}

/// The tiny shape: the self-tests' service and every set-up's warm-up
/// service.
fn tiny_shape() -> Shape {
    Shape {
        procs: 3,
        batch: 6,
        max_generations: 10,
        tenants: 2,
        rate: 400.0,
        open_share: 0.5,
        saturation_per_s: 200.0,
    }
}

fn server_config(shape: &Shape, workers: usize, tasks: usize) -> ServerConfig {
    let mut pn = PnConfig::default()
        .with_warm_start(4)
        .with_eval_workers(workers);
    pn.ga.max_generations = shape.max_generations;
    let procs = (0..shape.procs)
        .map(|i| ProcessorProfile {
            rate: 75.0 + 75.0 * (i as f64 + 0.5) / shape.procs as f64,
            comm_cost: 0.1,
        })
        .collect();
    let cfg = ServerConfig {
        procs,
        pn,
        tenants: shape.tenants,
        // Never sheds: the service plans as soon as a batch is full, so
        // pending work stays near one batch.
        tenant_capacity: shape.batch + tasks,
        batch_size: shape.batch,
        budget: PlanBudget::Unlimited,
    };
    cfg.validate().expect("valid server config");
    cfg
}

/// Records a trace, then serializes and parses it back, as a client
/// shipping a trace file would.
fn trace(count: usize, seed: u64) -> ArrivalTrace {
    let spec = WorkloadSpec {
        count,
        sizes: SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
        arrival: ArrivalProcess::PoissonStream {
            mean_interarrival: 1.0,
        },
    };
    let recorded = ArrivalTrace::record(&spec, seed).expect("generated traces are valid");
    ArrivalTrace::parse(&recorded.serialize()).expect("a serialized trace parses")
}

struct Setup {
    a: ArrivalTrace,
    b: ArrivalTrace,
    cfg_a: ServerConfig,
    s0: (ServiceHandle, std::thread::JoinHandle<()>),
    s1: (ServiceHandle, std::thread::JoinHandle<()>),
    s2: (ServiceHandle, std::thread::JoinHandle<()>),
}

fn stop(service: (ServiceHandle, std::thread::JoinHandle<()>)) -> Vec<TimedPlacement> {
    let rest = service.0.shutdown();
    service.1.join().expect("service thread exits cleanly");
    rest
}

/// One set-up: both traces recorded, serialized and parsed; a tiny
/// warm-up service planning one batch of a fixed trace; the three measured
/// services spawned.
fn setup(opts: &Opts, shape: &Shape) -> (Setup, f64) {
    let t = Instant::now();
    let n_a = ((shape.rate * shape.open_share * opts.seconds).round() as usize).max(shape.batch);
    let n_b = ((shape.saturation_per_s * opts.seconds).round() as usize).max(4 * shape.batch);
    let a = trace(n_a, opts.seed);
    let b = trace(n_b, opts.seed ^ 0x5A70_0B0B);
    let cfg_a = server_config(shape, 1, n_a);
    let cfg_b = server_config(shape, 1, n_b);
    let mut cfg_b2 = cfg_b.clone();
    cfg_b2.pn = cfg_b2.pn.with_eval_workers(2);

    let warm_shape = tiny_shape();
    let warm = spawn(server_config(&warm_shape, 1, warm_shape.batch));
    let warm_trace = trace(warm_shape.batch, WARMUP_SEED);
    for (i, task) in warm_trace.tasks().iter().enumerate() {
        let _ = warm.0.submit(tenant(i, &warm_shape), task.mflops, 0.0);
    }
    std::hint::black_box(stop(warm));

    let s = Setup {
        s0: spawn(cfg_a.clone()),
        s1: spawn(cfg_b),
        s2: spawn(cfg_b2),
        a,
        b,
        cfg_a,
    };
    (s, t.elapsed().as_secs_f64())
}

fn tenant(i: usize, shape: &Shape) -> TenantId {
    TenantId((i % shape.tenants) as u16)
}

/// Open-loop measurements over trace A.
struct OpenLoop {
    /// Per task: why it was not admitted as expected, if it was not.
    refused: Vec<Option<String>>,
    placements: Vec<TimedPlacement>,
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    stats: ServerStats,
}

fn open_loop(
    s0: (ServiceHandle, std::thread::JoinHandle<()>),
    a: &ArrivalTrace,
    shape: &Shape,
) -> OpenLoop {
    let handle = &s0.0;
    let tasks = a.tasks();
    // Trace seconds → wall seconds at the offered rate.
    let scale = 1.0 / (shape.rate * mean_interarrival(a));
    let first = tasks.first().map_or(0.0, |t| t.arrival.seconds());
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut returned_after_due = vec![f64::INFINITY; tasks.len()];
    let mut lag_ms = Vec::with_capacity(tasks.len());
    let mut refused = vec![None; tasks.len()];
    for (i, task) in tasks.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64((task.arrival.seconds() - first) * scale);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        match handle.submit(tenant(i, shape), task.mflops, task.arrival.seconds()) {
            Ok(id) if id.0 as usize == i => {
                returned_after_due[i] = Instant::now().duration_since(due).as_secs_f64();
            }
            Ok(id) => refused[i] = Some(format!("task {i} admitted as id {}", id.0)),
            Err(e) => refused[i] = Some(format!("task {i} refused at the offered rate: {e:?}")),
        }
    }
    let stats = handle.stats();
    let placements = stop(s0);
    // A refused or unplaced task misses every limit: infinite latency.
    let mut latencies_ms = vec![f64::INFINITY; tasks.len()];
    for p in &placements {
        let i = p.event.task.id.0 as usize;
        if i < tasks.len() {
            latencies_ms[i] = (returned_after_due[i] + p.decision_latency.as_secs_f64()) * 1e3;
        }
    }
    OpenLoop {
        refused,
        placements,
        latencies_ms,
        lag_ms,
        stats,
    }
}

fn mean_interarrival(a: &ArrivalTrace) -> f64 {
    let tasks = a.tasks();
    match (tasks.first(), tasks.last()) {
        (Some(f), Some(l)) if tasks.len() > 1 && l.arrival.seconds() > f.arrival.seconds() => {
            (l.arrival.seconds() - f.arrival.seconds()) / (tasks.len() - 1) as f64
        }
        _ => 1.0,
    }
}

/// Saturation: batches of trace B alternately to the serial and the
/// two-worker service, with `between` run before each pair. Returns
/// (serial batch seconds, two-worker batch seconds, tasks submitted to
/// each).
fn saturation(
    (s1, s2): (&ServiceHandle, &ServiceHandle),
    b: &ArrivalTrace,
    shape: &Shape,
    deadline: Instant,
    tally: &mut Tally,
    mut between: impl FnMut(),
) -> (Vec<f64>, Vec<f64>, usize) {
    let size = shape.batch;
    let tasks = b.tasks();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    let mut k = 0usize;
    while next + size <= tasks.len() && (Instant::now() < deadline || k < 2) {
        between();
        let range = next..next + size;
        let feed = |h: &ServiceHandle, tally: &mut Tally| {
            let t = Instant::now();
            for i in range.clone() {
                if let Err(e) = h.submit(
                    tenant(i, shape),
                    tasks[i].mflops,
                    tasks[i].arrival.seconds(),
                ) {
                    tally.fail(format!("saturation task {i} refused: {e:?}"));
                }
            }
            // Queued behind the batch's plan, so it returns once that plan
            // is done.
            std::hint::black_box(h.stats());
            t.elapsed().as_secs_f64()
        };
        if k.is_multiple_of(2) {
            t1.push(feed(s1, tally));
            t2.push(feed(s2, tally));
        } else {
            t2.push(feed(s2, tally));
            t1.push(feed(s1, tally));
        }
        next += size;
        k += 1;
    }
    (t1, t2, next)
}

/// Per task `0..n`: why it is misplaced, if it is — not placed exactly
/// once in `events`, or placed differently from the same task in
/// `reference`. `what` names the two sides in the messages.
fn misplaced(
    events: &[PlacementEvent],
    reference: &[PlacementEvent],
    n: usize,
    what: &str,
) -> Vec<Option<String>> {
    let by_task = |evs: &[PlacementEvent]| {
        let mut slots: Vec<(u32, Option<PlacementEvent>)> = vec![(0, None); n];
        for e in evs {
            if let Some(slot) = slots.get_mut(e.task.id.0 as usize) {
                slot.0 += 1;
                slot.1 = Some(*e);
            }
        }
        slots
    };
    let (got, want) = (by_task(events), by_task(reference));
    got.iter()
        .zip(&want)
        .enumerate()
        .map(|(i, (g, w))| match (g.0, w.0) {
            (1, 1) if g.1 == w.1 => None,
            (1, 1) => Some(format!("task {i} placed differently ({what})")),
            (a, b) => Some(format!("task {i} placed {a} and {b} times ({what})")),
        })
        .collect()
}

/// Placements of tasks that were never submitted (ids `n` and above).
fn unsubmitted(events: &[PlacementEvent], n: usize) -> usize {
    events.iter().filter(|e| e.task.id.0 as usize >= n).count()
}

/// Counts one failure per task that `bad` flags, and one per placement
/// of a task that was never submitted.
fn fail_per_task(tally: &mut Tally, bad: Vec<Option<String>>, stray: usize, what: &str) {
    for msg in bad.into_iter().flatten() {
        tally.fail(msg);
    }
    for _ in 0..stray {
        tally.fail(format!("placement of a task never submitted ({what})"));
    }
}

fn events(placements: &[TimedPlacement]) -> Vec<PlacementEvent> {
    placements.iter().map(|p| p.event).collect()
}

/// Runs the workload; returns the tally, metric values and notes.
pub fn run(opts: &Opts) -> (Tally, Vec<(&'static str, f64)>, Vec<String>) {
    let shape = shape(opts);
    let mut tally = Tally::default();
    let (s, first_secs) = setup(opts, &shape);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    // Later set-ups are spread through the saturation phase: in the open
    // loop they would delay the generator.
    let setup_again = || {
        let (extra, secs) = setup(opts, &shape);
        for service in [extra.s0, extra.s1, extra.s2] {
            stop(service);
        }
        secs
    };

    // ---- open loop ----
    let mut open = open_loop(s.s0, &s.a, &shape);
    let n_a = s.a.len();
    if opts.corrupt_first {
        if let Some(p) = open.placements.first_mut() {
            p.event.proc = ProcessorId((p.event.proc.0 + 1) % shape.procs as u16);
        }
    }

    // ---- saturation ----
    let mut setups = SetupTimes::new(first_secs, deadline, SETUPS);
    let (t1, t2, n_b) = saturation(
        (&s.s1.0, &s.s2.0),
        &s.b,
        &shape,
        deadline,
        &mut tally,
        || setups.maybe(setup_again),
    );
    let setup_s = setups.median(setup_again);
    let sat1 = events(&stop(s.s1));
    let sat2 = events(&stop(s.s2));

    // ---- checks, one operation per task ----
    // Open loop: every task admitted, placed exactly once, and placed as
    // `replay_trace` places it. A shed task is refused at submission, so
    // the refusals already count `stats.shed`.
    let open_events = events(&open.placements);
    tally.attempted += n_a as u64;
    match replay_trace(&s.a, s.cfg_a.clone()) {
        Ok(r) => {
            let mut bad = misplaced(&open_events, &r.placements, n_a, "service vs replay_trace");
            for (b, refused) in bad.iter_mut().zip(&open.refused) {
                if refused.is_some() {
                    b.clone_from(refused);
                }
            }
            fail_per_task(&mut tally, bad, unsubmitted(&open_events, n_a), "open loop");
        }
        Err(e) => {
            for _ in 0..n_a {
                tally.fail(format!("replay_trace failed: {e:?}"));
            }
        }
    }
    // Saturation: both services place every task once, identically.
    tally.attempted += n_b as u64;
    let bad = misplaced(&sat1, &sat2, n_b, "serial vs two-worker service");
    let stray = unsubmitted(&sat1, n_b) + unsubmitted(&sat2, n_b);
    fail_per_task(&mut tally, bad, stray, "saturation");

    // ---- metrics ----
    let mut lat = open.latencies_ms.clone();
    let (pct, tail_ms) = tail(&mut lat);
    let mut batch_makespans: Vec<f64> = Vec::new();
    let mut last_batch = u64::MAX;
    for e in &open_events {
        if e.batch != last_batch {
            batch_makespans.push(e.makespan_estimate);
            last_batch = e.batch;
        }
    }
    let mut pairs: Vec<f64> = t1.iter().zip(&t2).map(|(a, b)| a / b).collect();
    let capacity = (t1.len() * shape.batch) as f64 / t1.iter().sum::<f64>();
    let notes = vec![format!(
        "open loop: {n_a} tasks at {} tasks/s, median latency {:.3} ms, latency_ms_tail is p{pct:.2}; saturation: {} batch pairs, {capacity:.0} tasks/s serial",
        shape.rate,
        median(&mut lat),
        t1.len()
    )];
    let mut values = vec![
        ("latency_ms_tail", tail_ms),
        ("speedup_2w", median(&mut pairs)),
        ("makespan_s", mean(&batch_makespans)),
        ("setup_s", setup_s),
    ];
    if opts.trace {
        let mut v = trace::zeros();
        trace::set_all(&mut v, service_layer(&open, capacity));
        match direct_drive(&s.a, &s.cfg_a, &shape) {
            Ok(d) => {
                let bad = misplaced(&d.events, &open_events, n_a, "direct drive vs service");
                fail_per_task(&mut tally, bad, unsubmitted(&d.events, n_a), "direct drive");
                trace::set_all(&mut v, d.values);
                let (rebuilt, traced_ms) =
                    rebuilt_plans(&s.a, &s.cfg_a, &shape, &d.events, opts, &mut tally);
                trace::set_all(&mut v, rebuilt);
                // The same plan calls, traced under the wrappers and
                // untraced inside `DtsServer::plan`.
                trace::set_all(
                    &mut v,
                    vec![("trace.overhead_ratio", traced_ms / d.plan_ms)],
                );
            }
            Err(e) => tally.fail(format!("direct drive: {e}")),
        }
        values = v;
    }
    (tally, values, notes)
}

/// Service-level per-layer metrics from the untraced open loop.
fn service_layer(open: &OpenLoop, capacity: f64) -> Vec<(&'static str, f64)> {
    // A batch's oldest task waited for the batch to fill: the spread of
    // decision latencies within the batch.
    let mut waits = Vec::new();
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    let mut batch = u64::MAX;
    for p in &open.placements {
        if p.event.batch != batch && batch != u64::MAX {
            waits.push(hi - lo);
            lo = f64::INFINITY;
            hi = 0.0;
        }
        batch = p.event.batch;
        let d = p.decision_latency.as_secs_f64() * 1e3;
        lo = lo.min(d);
        hi = hi.max(d);
    }
    if batch != u64::MAX {
        waits.push(hi - lo);
    }
    vec![
        ("server.batch_wait_ms", mean(&waits)),
        ("server.max_pending", open.stats.max_pending as f64),
        ("server.shed", open.stats.shed as f64),
        ("server.capacity_tasks_per_s", capacity),
        ("service.generator_lag_ms", mean(&open.lag_ms)),
    ]
}

struct Direct {
    events: Vec<PlacementEvent>,
    values: Vec<(&'static str, f64)>,
    /// Total time in `DtsServer::plan`.
    plan_ms: f64,
}

/// Drives `DtsServer` directly, the way the service loop does, timing
/// each `submit` and `plan`, then dispatches every placed task.
fn direct_drive(a: &ArrivalTrace, cfg: &ServerConfig, shape: &Shape) -> Result<Direct, String> {
    let mut server = DtsServer::new(cfg.clone());
    let mut events = Vec::with_capacity(a.len());
    let (mut submit_ns, mut plan_ms) = (0u128, Vec::<f64>::new());
    for (i, task) in a.tasks().iter().enumerate() {
        let ts = Instant::now();
        let r = server.submit(tenant(i, shape), task.mflops, task.arrival.seconds());
        submit_ns += ts.elapsed().as_nanos();
        r.map_err(|e| format!("submit {i}: {e:?}"))?;
        while server.ready_to_plan() {
            let tp = Instant::now();
            events.extend(server.plan());
            plan_ms.push(tp.elapsed().as_secs_f64() * 1e3);
        }
    }
    while server.pending_len() > 0 {
        let tp = Instant::now();
        events.extend(server.plan());
        plan_ms.push(tp.elapsed().as_secs_f64() * 1e3);
    }
    // Workers pull everything: each placed task comes back exactly once,
    // in its processor's queue order.
    for p in 0..shape.procs {
        let pid = ProcessorId(p as u16);
        let expected: Vec<u32> = events
            .iter()
            .filter(|e| e.proc == pid)
            .map(|e| e.task.id.0)
            .collect();
        let mut got = Vec::new();
        while let Some(task) = server.dispatch(pid) {
            got.push(task.id.0);
        }
        if got != expected {
            return Err(format!(
                "dispatch order on processor {p} differs from placements"
            ));
        }
    }
    let stats = server.stats();
    Ok(Direct {
        values: vec![
            (
                "server.submit_us",
                submit_ns as f64 / a.len().max(1) as f64 / 1e3,
            ),
            ("server.plan_ms", mean(&plan_ms)),
            (
                "server.gens_per_batch",
                stats.generations as f64 / stats.batches.max(1) as f64,
            ),
        ],
        plan_ms: plan_ms.iter().sum(),
        events,
    })
}

/// Rebuilds every plan call of the direct drive from public pieces —
/// processor states from committed load, one seed per call from the
/// server's seed stream, carried elites remapped by `remap_islands` — and
/// runs it traced. Its placements must equal `reference`.
fn rebuilt_plans(
    a: &ArrivalTrace,
    cfg: &ServerConfig,
    shape: &Shape,
    reference: &[PlacementEvent],
    opts: &Opts,
    tally: &mut Tally,
) -> (Vec<(&'static str, f64)>, f64) {
    let elites = match cfg.pn.seed_strategy {
        dts_core::SeedStrategy::CarryOver { elites } => elites,
        dts_core::SeedStrategy::Fresh => 0,
    };
    let mut rng = Prng::seed_from(cfg.pn.seed);
    let mut load = vec![0.0f64; cfg.procs.len()];
    let mut carried: Option<Vec<Vec<Chromosome>>> = None;
    let mut rec = Recorder::new();
    let counters = Counters::default();
    let mut calls: Vec<CallStats> = Vec::new();
    let mut events = Vec::with_capacity(a.len());
    for (k, chunk) in a.tasks().chunks(shape.batch).enumerate() {
        let first_id = k * shape.batch;
        let batch: Vec<Task> = chunk
            .iter()
            .enumerate()
            .map(|(j, t)| {
                Task::new(
                    TaskId((first_id + j) as u32),
                    t.mflops,
                    SimTime::new(t.arrival.seconds()),
                )
            })
            .collect();
        let states: Vec<ProcessorState> = cfg
            .procs
            .iter()
            .zip(&load)
            .map(|(p, &l)| ProcessorState {
                rate: p.rate.max(1e-9),
                existing_load_mflops: l,
                comm_cost: if cfg.pn.use_comm_estimates {
                    p.comm_cost
                } else {
                    0.0
                },
            })
            .collect();
        let seed = rng.next_u64();
        let remap = rec.open("remap", ROOT, k as u32);
        let warm = match &carried {
            Some(prev) if elites > 0 => remap_islands(prev, elites, &batch, &states),
            _ => Vec::new(),
        };
        let remap_ns = rec.close(remap);
        let input = PlanInput {
            batch: &batch,
            procs: &states,
            prec: None,
            warm: warm.first().map_or(&[], Vec::as_slice),
            seed,
        };
        let (result, mut st) = trace::traced_plan(&input, &cfg.pn, &mut rec, k as u32, &counters);
        st.init_ns += remap_ns;
        st.plan_ns += remap_ns;
        calls.push(st);
        let queues = result.best.to_queues();
        for (proc, queue) in queues.iter().enumerate() {
            for &slot in queue {
                let task = batch[slot as usize];
                load[proc] += task.mflops;
                events.push(PlacementEvent {
                    task,
                    tenant: tenant(task.id.0 as usize, shape),
                    proc: ProcessorId(proc as u16),
                    batch: k as u64,
                    makespan_estimate: result.best_makespan,
                });
            }
        }
        if elites > 0 {
            let mut pop = result.final_population;
            pop.truncate(elites);
            carried = Some(vec![pop]);
        }
    }
    let n = a.len();
    let bad = misplaced(&events, reference, n, "rebuilt plans vs DtsServer::plan");
    fail_per_task(tally, bad, unsubmitted(&events, n), "rebuilt plans");
    if let Some(dir) = &opts.trace_dir {
        let file = format!("{}-{}.tsv", opts.workload.name(), opts.seed);
        if let Err(e) = rec.write(dir, &file) {
            tally.fail(format!("writing spans: {e}"));
        }
    }
    let traced_ms = calls.iter().map(|c| c.plan_ns as f64 / 1e6).sum();
    (trace::ga_layer_metrics(&calls, 16), traced_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u32, proc: u16) -> PlacementEvent {
        PlacementEvent {
            task: Task::new(TaskId(id), 100.0, SimTime::new(0.0)),
            tenant: TenantId(0),
            proc: ProcessorId(proc),
            batch: 0,
            makespan_estimate: 1.0,
        }
    }

    #[test]
    fn every_misplaced_task_is_one_failure() {
        let reference: Vec<PlacementEvent> = (0..6).map(|i| event(i, 0)).collect();
        // Task 1 placed twice, task 2 never, task 3 on another processor,
        // and a task that was never submitted.
        let got = vec![
            event(0, 0),
            event(1, 0),
            event(1, 0),
            event(3, 1),
            event(4, 0),
            event(5, 0),
            event(9, 0),
        ];
        let bad = misplaced(&got, &reference, 6, "test");
        let flagged: Vec<usize> = (0..6).filter(|&i| bad[i].is_some()).collect();
        assert_eq!(flagged, vec![1, 2, 3]);
        let mut tally = Tally::default();
        fail_per_task(&mut tally, bad, unsubmitted(&got, 6), "test");
        assert_eq!(tally.failed, 4);
    }
}
