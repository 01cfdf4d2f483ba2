//! `paper_batch` and `dag_layered`: closed loops of plan calls, each on a
//! fresh seeded batch.
//!
//! Untraced, every batch is planned twice — serial evaluator and
//! `Evaluator::threads(2)`, in alternating order — so host drift hits
//! both sides of `speedup_2w` alike. Traced, every batch is planned by the
//! public API call and by the same call rebuilt from public pieces under
//! the timing wrappers; the two must agree bit for bit.

use std::time::{Duration, Instant};

use dts_core::fitness::{BatchProblem, ProcessorState};
use dts_core::{plan_batch, schedule_batch, slot_precedence, BatchOutcome, PlanRequest, PnConfig};
use dts_distributions::{Prng, Rng, SeedSequence};
use dts_ga::{Gene, Problem, SlotPrecedence};
use dts_model::{DagFamily, SizeDistribution, Task, TaskGraph, WorkloadSpec};

use crate::stats::{mean, median, tail};
use crate::trace::{self, CallStats, Counters, PlanInput, Recorder};
use crate::{Opts, Scale, SetupTimes, Tally, Workload, WARMUP_SEED};

/// Set-ups per untraced run, one every half second or so of a 25-second
/// run.
const SETUPS: usize = 51;

/// Problem shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    tasks: usize,
    procs: usize,
    max_generations: u32,
    dag: Option<(usize, f64)>,
    /// Calls whose makespans (and traced counts) are averaged.
    first_k: usize,
}

fn shape(opts: &Opts) -> Shape {
    let dag = opts.workload == Workload::DagLayered;
    match opts.scale {
        Scale::Full => Shape {
            tasks: 200,
            procs: 50,
            max_generations: 1000,
            dag: dag.then_some((8, 0.05)),
            first_k: 32,
        },
        Scale::Tiny => tiny_shape(dag),
    }
}

/// The tiny shape: the self-tests' problem size and every set-up's
/// warm-up call.
fn tiny_shape(dag: bool) -> Shape {
    Shape {
        tasks: 24,
        procs: 4,
        max_generations: 20,
        dag: dag.then_some((3, 0.3)),
        first_k: 2,
    }
}

/// One call's inputs.
struct Inputs {
    batch: Vec<Task>,
    procs: Vec<ProcessorState>,
    graph: Option<TaskGraph>,
    prec: Option<SlotPrecedence>,
    seed: u64,
}

/// Batch `i` of the run: Normal(1000, 9e5) MFLOP tasks on processors
/// rated U[15, 40) Mflop/s with some existing load, all from `(seed, i)`.
fn inputs(shape: &Shape, seeds: &SeedSequence, i: u64) -> Inputs {
    let mut seq = SeedSequence::new(seeds.seed_at(i));
    let spec = WorkloadSpec::batch(
        shape.tasks,
        SizeDistribution::Normal {
            mean: 1000.0,
            variance: 9.0e5,
        },
    );
    let batch = spec.generate(seq.next_seed());
    let mut rng = Prng::seed_from(seq.next_seed());
    let procs = (0..shape.procs)
        .map(|_| ProcessorState {
            rate: rng.range_f64(15.0, 40.0),
            existing_load_mflops: rng.range_f64(0.0, 500.0),
            comm_cost: rng.range_f64(0.05, 0.5),
        })
        .collect();
    let graph_seed = seq.next_seed();
    let graph = shape.dag.map(|(layers, p)| {
        DagFamily::RandomLayered {
            layers,
            edge_probability: p,
        }
        .build(shape.tasks, graph_seed)
    });
    let prec = graph.as_ref().map(|g| slot_precedence(&batch, g));
    Inputs {
        batch,
        procs,
        graph,
        prec,
        seed: seq.next_seed(),
    }
}

fn config(shape: &Shape, workers: usize) -> PnConfig {
    let mut c = PnConfig::default().with_eval_workers(workers);
    c.ga.max_generations = shape.max_generations;
    c.validate().expect("valid benchmark config");
    c
}

/// The public API call under test.
fn api_call(inp: &Inputs, cfg: &PnConfig) -> BatchOutcome {
    match &inp.prec {
        None => schedule_batch(&inp.batch, &inp.procs, cfg, inp.seed),
        Some(prec) => plan_batch(
            &PlanRequest::new(&inp.batch, &inp.procs, inp.seed).with_precedence(prec),
            cfg,
        ),
    }
}

/// Checks one returned plan: its queues are a permutation of the batch
/// and match the best chromosome, a fresh problem re-evaluates the best
/// chromosome to `best_makespan` bit for bit, and every DAG edge's source
/// precedes its target.
fn check(inp: &Inputs, cfg: &PnConfig, out: &BatchOutcome) -> Result<(), String> {
    let (batch, procs) = (&inp.batch, &inp.procs);
    if out.queues.len() != procs.len() {
        return Err(format!(
            "{} queues for {} processors",
            out.queues.len(),
            procs.len()
        ));
    }
    let mut slots: Vec<u32> = out.queues.iter().flatten().copied().collect();
    slots.sort_unstable();
    if !slots.iter().copied().eq(0..batch.len() as u32) {
        return Err("queues are not a permutation of the batch".into());
    }
    if out.queues != out.best.to_queues() {
        return Err("queues do not match the best chromosome".into());
    }
    let mut problem = BatchProblem::new(batch, procs, cfg);
    if let Some(p) = &inp.prec {
        problem = problem.with_precedence(p);
    }
    let again = problem.makespan(&out.best);
    if again.to_bits() != out.best_makespan.to_bits() {
        return Err(format!(
            "re-evaluated makespan {again} != reported {}",
            out.best_makespan
        ));
    }
    if let Some(g) = &inp.graph {
        let mut pos = vec![usize::MAX; batch.len()];
        for (at, gene) in out.best.genes().iter().enumerate() {
            if let Gene::Task(slot) = *gene {
                pos[slot as usize] = at;
            }
        }
        for (src, dst) in g.edge_list() {
            if pos[src as usize] >= pos[dst as usize] {
                return Err(format!("edge {src}->{dst} out of order"));
            }
        }
    }
    Ok(())
}

/// Places one task twice, so the permutation check must fail.
fn corrupt(out: &mut BatchOutcome) {
    if let Some(q) = out.queues.iter_mut().find(|q| !q.is_empty()) {
        q.push(q[0]);
    }
}

/// What a set-up builds.
struct Setup {
    serial: PnConfig,
    two: PnConfig,
    /// The run's first batch.
    first: Inputs,
}

/// One set-up: both configurations built and validated, the run's first
/// batch (and its graph) generated, and one warm-up call per
/// configuration on a tiny fixed batch, so no full plan call is timed.
fn setup(shape: &Shape, seeds: &SeedSequence, trace: bool) -> (Setup, f64) {
    let t = Instant::now();
    let serial = config(shape, 1);
    let two = config(shape, 2);
    let first = inputs(shape, seeds, 0);
    let warm_shape = tiny_shape(shape.dag.is_some());
    let warm = inputs(&warm_shape, &SeedSequence::new(WARMUP_SEED), 0);
    let workers: &[usize] = if trace { &[1] } else { &[1, 2] };
    for &w in workers {
        std::hint::black_box(api_call(&warm, &config(&warm_shape, w)));
    }
    (Setup { serial, two, first }, t.elapsed().as_secs_f64())
}

/// Runs the workload; returns the tally, metric values and notes.
pub fn run(opts: &Opts) -> (Tally, Vec<(&'static str, f64)>, Vec<String>) {
    let shape = shape(opts);
    let seeds = SeedSequence::new(opts.seed);
    let (Setup { serial, two, first }, first_secs) = setup(&shape, &seeds, opts.trace);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        return run_traced(opts, &shape, &seeds, &serial, deadline);
    }
    let mut setups = SetupTimes::new(first_secs, deadline, SETUPS);
    let setup_again = || setup(&shape, &seeds, false).1;

    let mut tally = Tally::default();
    let mut serial_ms = Vec::new();
    let mut speedups = Vec::new();
    let mut makespans = Vec::new();
    let mut next = Some(first);
    let mut i = 0u64;
    while Instant::now() < deadline || (i as usize) < shape.first_k {
        setups.maybe(setup_again);
        let inp = next.take().unwrap_or_else(|| inputs(&shape, &seeds, i));
        let timed = |cfg: &PnConfig| {
            let t = Instant::now();
            let out = api_call(&inp, cfg);
            (out, t.elapsed().as_secs_f64())
        };
        let ((mut a, ta), (b, tb)) = if i.is_multiple_of(2) {
            let a = timed(&serial);
            (a, timed(&two))
        } else {
            let b = timed(&two);
            (timed(&serial), b)
        };
        if opts.corrupt_first && i == 0 {
            corrupt(&mut a);
        }
        tally.record(check(&inp, &serial, &a).map_err(|e| format!("call {i} serial: {e}")));
        tally.record(
            check(&inp, &two, &b)
                .and_then(|()| trace::same_result(&a.ga, &b.ga))
                .map_err(|e| format!("call {i} two workers: {e}")),
        );
        serial_ms.push(ta * 1e3);
        speedups.push(ta / tb);
        if (i as usize) < shape.first_k {
            makespans.push(a.best_makespan);
        }
        i += 1;
    }
    let n = serial_ms.len();
    let (pct, tail_ms) = tail(&mut serial_ms);
    let notes = vec![format!(
        "{n} calls per configuration; median {:.3} ms; latency_ms_tail is p{pct:.1}",
        median(&mut serial_ms)
    )];
    let values = vec![
        ("latency_ms_tail", tail_ms),
        ("speedup_2w", median(&mut speedups)),
        ("makespan_s", mean(&makespans)),
        ("setup_s", setups.median(setup_again)),
    ];
    (tally, values, notes)
}

fn run_traced(
    opts: &Opts,
    shape: &Shape,
    seeds: &SeedSequence,
    cfg: &PnConfig,
    deadline: Instant,
) -> (Tally, Vec<(&'static str, f64)>, Vec<String>) {
    let mut tally = Tally::default();
    let mut rec = Recorder::new();
    let counters = Counters::default();
    let mut calls: Vec<CallStats> = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut i = 0u64;
    while Instant::now() < deadline || (i as usize) < shape.first_k {
        let inp = inputs(shape, seeds, i);
        let t = Instant::now();
        let mut out = api_call(&inp, cfg);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let input = PlanInput {
            batch: &inp.batch,
            procs: &inp.procs,
            prec: inp.prec.as_ref(),
            warm: &[],
            seed: inp.seed,
        };
        let (rebuilt, st) = trace::traced_plan(&input, cfg, &mut rec, i as u32, &counters);
        traced_ms.push(st.plan_ns as f64 / 1e6);
        calls.push(st);
        if opts.corrupt_first && i == 0 {
            corrupt(&mut out);
        }
        tally.record(
            check(&inp, cfg, &out)
                .and_then(|()| trace::same_result(&out.ga, &rebuilt))
                .map_err(|e| format!("call {i}: {e}")),
        );
        i += 1;
    }
    let mut values = trace::zeros();
    trace::set_all(&mut values, trace::ga_layer_metrics(&calls, shape.first_k));
    let overhead = median(&mut traced_ms) / median(&mut plain_ms);
    trace::set_all(&mut values, vec![("trace.overhead_ratio", overhead)]);
    let mut notes = vec![format!(
        "{} traced calls, {} spans",
        calls.len(),
        rec.spans.len()
    )];
    if let Some(dir) = &opts.trace_dir {
        let file = format!("{}-{}.tsv", opts.workload.name(), opts.seed);
        if let Err(e) = rec.write(dir, &file) {
            tally.fail(format!("writing spans: {e}"));
        }
        notes.push(format!("spans written to {}", dir.join(file).display()));
    }
    (tally, values, notes)
}
