//! `sim_stream`: whole simulated experiments with the PN scheduler under
//! Poisson arrivals on the paper's 50-processor cluster.
//!
//! Untraced, a fixed set of experiment seeds is simulated pass after pass
//! with the PN scheduler's GA evaluating serially; every sixth seed is
//! also simulated with two evaluation threads, in alternating order. The
//! two reports must be identical, and so must every pass's report of a
//! seed. Experiments differ in cost by seed (the dearest take twice the
//! median), so the tail is taken per seed: its second-slowest pass, which
//! sits at the slow end of the host's speed over the run, as a plan call's
//! tail does, without letting one burst of steal count. Traced, a `Scheduler` decorator
//! around PN (built inside the factory) times every scheduler call; the
//! decorated experiment must reproduce the untraced report.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dts_core::{PnConfig, PnScheduler};
use dts_distributions::SeedSequence;
use dts_model::{
    ArrivalProcess, AvailabilityModel, ClusterSpec, CommCostSpec, PlanOutcome, ProcessorId,
    Scheduler, SchedulerMode, SizeDistribution, SystemView, Task, WorkloadSpec,
};
use dts_sim::{run_simulation, SimConfig, SimReport};

use crate::stats::{mean, median, second_largest};
use crate::trace::{self, Recorder, ROOT};
use crate::{ratio, Opts, Scale, SetupTimes, Tally, WARMUP_SEED};

/// Set-ups per untraced run, one every half second or so of a 25-second
/// run.
const SETUPS: usize = 51;

/// Every this many experiment seeds of a pass, one is also simulated with
/// two evaluation workers.
const PAIR_EVERY: usize = 6;

/// Passes over the experiment seeds an untraced run makes at least, so
/// every seed has a second-slowest repetition. After these, a pass starts
/// only if, at the last pass's duration, it would end no later than half
/// a pass after the deadline, so a run overruns or underruns its seconds
/// by at most half a pass.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Shape {
    procs: usize,
    tasks: usize,
    /// Experiment seeds of an untraced run; each pass simulates every one.
    per_pass: usize,
    /// Experiments whose traced counts are averaged.
    first_k: usize,
}

fn shape(opts: &Opts) -> Shape {
    match opts.scale {
        Scale::Full => Shape {
            procs: 50,
            tasks: 150,
            per_pass: 48,
            first_k: 12,
        },
        Scale::Tiny => tiny_shape(),
    }
}

/// The tiny shape: the self-tests' experiment size and every set-up's
/// warm-up experiment.
fn tiny_shape() -> Shape {
    Shape {
        procs: 5,
        tasks: 30,
        per_pass: 4,
        first_k: 2,
    }
}

struct Experiment {
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    sim: SimConfig,
}

fn experiment(shape: &Shape) -> Experiment {
    Experiment {
        cluster: ClusterSpec {
            processors: shape.procs,
            rating: SizeDistribution::Uniform { lo: 15.0, hi: 40.0 },
            availability: AvailabilityModel::Dedicated,
            comm: CommCostSpec::with_mean(1.0),
        },
        workload: WorkloadSpec {
            count: shape.tasks,
            sizes: SizeDistribution::Normal {
                mean: 1000.0,
                variance: 9.0e5,
            },
            arrival: ArrivalProcess::PoissonStream {
                mean_interarrival: 1.0,
            },
        },
        sim: SimConfig::default(),
    }
}

fn pn(n: usize, seed: u64, workers: usize) -> PnScheduler {
    let mut cfg = PnConfig::default().with_eval_workers(workers);
    cfg.seed = seed;
    PnScheduler::new(n, cfg)
}

fn simulate(e: &Experiment, workers: usize, seed: u64) -> (Result<SimReport, String>, f64) {
    let factory = move |n: usize, s: u64| -> Box<dyn Scheduler> { Box::new(pn(n, s, workers)) };
    let t = Instant::now();
    let r = run_simulation(&e.cluster, &e.workload, &factory, &e.sim, seed);
    (
        r.map_err(|err| format!("{err:?}")),
        t.elapsed().as_secs_f64(),
    )
}

/// The report of a complete experiment, or why it is not one.
fn check(r: &Result<SimReport, String>, tasks: usize) -> Result<&SimReport, String> {
    let report = r.as_ref().map_err(|e| format!("SimError {e}"))?;
    if report.tasks_completed != tasks as u64 {
        return Err(format!(
            "{} of {tasks} tasks completed",
            report.tasks_completed
        ));
    }
    Ok(report)
}

fn same(a: &SimReport, b: &SimReport) -> Result<(), String> {
    // Debug prints every float in shortest round-trip form, so equal text
    // means bit-identical reports.
    if format!("{a:?}") == format!("{b:?}") {
        Ok(())
    } else {
        Err("reports differ".into())
    }
}

/// One set-up: the experiment described, and a tiny warm-up experiment on
/// a fixed seed.
fn setup(shape: &Shape) -> (Experiment, f64) {
    let t = Instant::now();
    let e = experiment(shape);
    let warm = experiment(&tiny_shape());
    std::hint::black_box(simulate(&warm, 1, WARMUP_SEED).0.ok());
    (e, t.elapsed().as_secs_f64())
}

/// Runs the workload; returns the tally, metric values and notes.
pub fn run(opts: &Opts) -> (Tally, Vec<(&'static str, f64)>, Vec<String>) {
    let shape = shape(opts);
    let seeds = SeedSequence::new(opts.seed);
    let (e, first_secs) = setup(&shape);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        return run_traced(opts, &shape, &e, &seeds, deadline);
    }
    let mut setups = SetupTimes::new(first_secs, deadline, SETUPS);
    let setup_again = || setup(&shape).1;

    let mut tally = Tally::default();
    // Serial times of each experiment seed, one per pass, and its first
    // pass's report, which every later pass must reproduce.
    let mut serial_ms = vec![Vec::new(); shape.per_pass];
    let mut first: Vec<Option<SimReport>> = vec![None; shape.per_pass];
    let mut speedups = Vec::new();
    let mut makespans = Vec::new();
    let mut passes = 0usize;
    let mut last_pass = Duration::ZERO;
    while passes < MIN_PASSES || Instant::now() + last_pass / 2 < deadline {
        let pass_start = Instant::now();
        for k in 0..shape.per_pass {
            setups.maybe(setup_again);
            let seed = seeds.seed_at(k as u64);
            // Every `PAIR_EVERY`th seed is paired with a two-worker run, in
            // alternating order; the others run serially only, so the
            // two-worker runs' thread churn weighs less on the serial
            // samples.
            let (mut a, ta, b) = if !k.is_multiple_of(PAIR_EVERY) {
                let (a, ta) = simulate(&e, 1, seed);
                (a, ta, None)
            } else if (passes + k / PAIR_EVERY).is_multiple_of(2) {
                let (a, ta) = simulate(&e, 1, seed);
                (a, ta, Some(simulate(&e, 2, seed)))
            } else {
                let b = simulate(&e, 2, seed);
                let (a, ta) = simulate(&e, 1, seed);
                (a, ta, Some(b))
            };
            if opts.corrupt_first && passes == 0 && k == 0 {
                if let Ok(r) = a.as_mut() {
                    r.tasks_completed -= 1;
                }
            }
            let serial = check(&a, shape.tasks).and_then(|r| match &first[k] {
                Some(f) => same(f, r)
                    .map(|()| r)
                    .map_err(|_| "differs from its first pass".into()),
                None => Ok(r),
            });
            if let Some((b, tb)) = b {
                let two = check(&b, shape.tasks).and_then(|rb| match &serial {
                    Ok(ra) => same(ra, rb),
                    Err(_) => Err("no serial report to compare".into()),
                });
                tally.record(two.map_err(|e| format!("experiment {k} two workers: {e}")));
                speedups.push(ta / tb);
            }
            if let (0, Ok(r)) = (passes, &serial) {
                makespans.push(r.makespan);
                first[k] = Some((*r).clone());
            }
            tally.record(
                serial
                    .map(|_| ())
                    .map_err(|e| format!("experiment {k} pass {passes} serial: {e}")),
            );
            serial_ms[k].push(ta * 1e3);
        }
        last_pass = pass_start.elapsed();
        passes += 1;
    }
    let mut all_ms: Vec<f64> = serial_ms.iter().flatten().copied().collect();
    let ceilings: Vec<f64> = serial_ms.iter_mut().map(|t| second_largest(t)).collect();
    let notes = vec![format!(
        "{passes} passes over {} experiments, {} paired with two workers; median {:.3} ms; \
         latency_ms_tail is the mean of each experiment's second-slowest pass",
        shape.per_pass,
        speedups.len(),
        median(&mut all_ms)
    )];
    let values = vec![
        ("latency_ms_tail", mean(&ceilings)),
        ("speedup_2w", median(&mut speedups)),
        ("makespan_s", mean(&makespans)),
        ("setup_s", setups.median(setup_again)),
    ];
    (tally, values, notes)
}

/// What the decorator saw during one experiment.
#[derive(Default)]
struct CallLog {
    /// `(start_ns, end_ns, tasks_assigned, generations)` per plan call
    /// that planned a batch.
    plans: Vec<(u64, u64, usize, u32)>,
    /// Time in every other scheduler call.
    other_ns: u64,
}

/// Times every `Scheduler` method of the wrapped scheduler, defaulted ones
/// included, and delegates each to it.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    log: Arc<Mutex<CallLog>>,
    t0: Instant,
}

impl TimedScheduler {
    fn other<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.log.lock().expect("log lock").other_ns += ns;
        r
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mode(&self) -> SchedulerMode {
        self.inner.mode()
    }

    fn enqueue(&mut self, tasks: &[Task]) {
        self.other(|s| s.enqueue(tasks))
    }

    fn unscheduled_len(&self) -> usize {
        self.inner.unscheduled_len()
    }

    fn plan(&mut self, view: &SystemView) -> PlanOutcome {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = self.inner.plan(view);
        let end = self.t0.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("log lock");
        if out.tasks_assigned > 0 {
            log.plans
                .push((start, end, out.tasks_assigned, out.generations));
        } else {
            log.other_ns += end - start;
        }
        out
    }

    fn next_task_for(&mut self, p: ProcessorId) -> Option<Task> {
        self.other(|s| s.next_task_for(p))
    }

    fn queued_len(&self, p: ProcessorId) -> usize {
        self.inner.queued_len(p)
    }

    fn queued_mflops(&self, p: ProcessorId) -> f64 {
        self.inner.queued_mflops(p)
    }

    fn observe_comm(&mut self, p: ProcessorId, seconds: f64) {
        self.other(|s| s.observe_comm(p, seconds))
    }

    fn observe_rate(&mut self, p: ProcessorId, mflops_per_sec: f64) {
        self.other(|s| s.observe_rate(p, mflops_per_sec))
    }
}

fn run_traced(
    opts: &Opts,
    shape: &Shape,
    e: &Experiment,
    seeds: &SeedSequence,
    deadline: Instant,
) -> (Tally, Vec<(&'static str, f64)>, Vec<String>) {
    let mut tally = Tally::default();
    let mut rec = Recorder::new();
    let log = Arc::new(Mutex::new(CallLog::default()));
    // The decorator stamps plan calls on the recorder's clock.
    let t0 = rec.origin();
    let factory = {
        let log = Arc::clone(&log);
        move |n: usize, s: u64| -> Box<dyn Scheduler> {
            Box::new(TimedScheduler {
                inner: Box::new(pn(n, s, 1)),
                log: Arc::clone(&log),
                t0,
            })
        }
    };
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut plan_ns, mut other_ns, mut exp_ns) = (0u64, 0u64, 0u64);
    let (mut events, mut plain_s) = (0u64, 0.0f64);
    let (mut k_plans, mut k_tasks, mut k_gens) = (0u64, 0u64, 0u64);
    let mut i = 0u64;
    while Instant::now() < deadline || (i as usize) < shape.first_k {
        let seed = seeds.seed_at(i);
        let (mut plain, secs) = simulate(e, 1, seed);
        plain_ms.push(secs * 1e3);
        plain_s += secs;

        *log.lock().expect("log lock") = CallLog::default();
        let span = rec.open("experiment", ROOT, i as u32);
        let decorated = run_simulation(&e.cluster, &e.workload, &factory, &e.sim, seed)
            .map_err(|err| format!("{err:?}"));
        let ns = rec.close(span);
        traced_ms.push(ns as f64 / 1e6);
        exp_ns += ns;
        let calls = std::mem::take(&mut *log.lock().expect("log lock"));
        for &(start_ns, end_ns, _, _) in &calls.plans {
            rec.spans.push(trace::Span {
                name: "plan",
                parent: span,
                call: i as u32,
                start_ns,
                end_ns,
            });
            plan_ns += end_ns - start_ns;
        }
        other_ns += calls.other_ns;
        if (i as usize) < shape.first_k {
            k_plans += calls.plans.len() as u64;
            k_tasks += calls.plans.iter().map(|p| p.2 as u64).sum::<u64>();
            k_gens += calls.plans.iter().map(|p| u64::from(p.3)).sum::<u64>();
        }

        if opts.corrupt_first && i == 0 {
            if let Ok(r) = plain.as_mut() {
                r.makespan += 1.0;
            }
        }
        let outcome = check(&plain, shape.tasks).and_then(|a| {
            let b = check(&decorated, shape.tasks)?;
            same(a, b).map_err(|_| "decorated simulation differs from the untraced one".into())
        });
        if let Ok(r) = &plain {
            events += r.events_processed;
        }
        tally.record(outcome.map_err(|err| format!("experiment {i}: {err}")));
        i += 1;
    }
    let gens_per_plan = ratio(k_gens as f64, k_plans as f64);
    let mut values = trace::zeros();
    trace::set_all(
        &mut values,
        vec![
            ("ga.generations", gens_per_plan),
            (
                "sim.plan_calls",
                ratio(k_plans as f64, shape.first_k.min(i as usize) as f64),
            ),
            ("sim.batch_mean", ratio(k_tasks as f64, k_plans as f64)),
            ("sim.gens_per_plan", gens_per_plan),
            ("sim.plan_share", ratio(plan_ns as f64, exp_ns as f64)),
            (
                "sim.loop_self_share",
                ratio(
                    exp_ns as f64 - plan_ns as f64 - other_ns as f64,
                    exp_ns as f64,
                ),
            ),
            ("sim.events_per_s", ratio(events as f64, plain_s)),
            (
                "trace.overhead_ratio",
                median(&mut traced_ms) / median(&mut plain_ms),
            ),
        ],
    );
    let mut notes = vec![format!("{i} traced experiments, {} spans", rec.spans.len())];
    if let Some(dir) = &opts.trace_dir {
        let file = format!("{}-{}.tsv", opts.workload.name(), opts.seed);
        if let Err(err) = rec.write(dir, &file) {
            tally.fail(format!("writing spans: {err}"));
        }
        notes.push(format!("spans written to {}", dir.join(file).display()));
    }
    (tally, values, notes)
}
