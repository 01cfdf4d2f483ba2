//! The traced run's machinery: a span recorder, timing wrappers around
//! every method of the GA's extension traits, and a plan call rebuilt from
//! public pieces so each layer's share of it can be timed.
//!
//! Spans (plan call → problem / init / start / step) are kept one by one.
//! Fine-grained calls (≈20 000 `improve` calls per plan) are only summed,
//! per plan call, so memory stays bounded.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dts_core::fitness::{BatchProblem, ProcessorState};
use dts_core::init::initial_population;
use dts_core::PnConfig;
use dts_distributions::Prng;
use dts_ga::{
    Chromosome, CrossoverOp, CycleCrossover, GaEngine, GaResult, GeneEdit, MutationOp, Problem,
    RouletteWheel, SelectionOp, SlotPrecedence, SwapMutation,
};
use dts_model::Task;

use crate::ratio;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// The operation (plan call, experiment, batch) the span belongs to.
    pub call: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Records spans; span ids are indices into `spans`.
pub struct Recorder {
    t0: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Fine-grained sums per span id: `(span, counter deltas)`.
    pub sums: Vec<(u32, Snap)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, call: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            call,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Writes every span and sum as tab-separated lines to `dir/file`.
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(fs::File::create(dir.join(file))?);
        writeln!(out, "# span\tid\tparent\tcall\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "span\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.call, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "# sum\tspan\t{}", C_NAMES.join("\t"))?;
        for (span, snap) in &self.sums {
            let vals: Vec<String> = snap.iter().map(u64::to_string).collect();
            writeln!(out, "sum\t{span}\t{}", vals.join("\t"))?;
        }
        out.flush()
    }
}

// ---- fine-grained call counters ------------------------------------------

/// Counter indices into [`Counters`]: fitness evaluations (`fitness`,
/// `makespan`, `evaluate`, `evaluate_into`).
const EVAL_CALLS: usize = 0;
/// Time in fitness evaluation.
const EVAL_NS: usize = 1;
/// `evaluate_swap_delta` calls.
const DELTA_CALLS: usize = 2;
/// `evaluate_swap_delta` calls that returned a value.
const DELTA_HITS: usize = 3;
/// Time in `evaluate_swap_delta`.
const DELTA_NS: usize = 4;
/// `repair` calls.
const REPAIR_CALLS: usize = 5;
/// `repair` calls that changed the chromosome.
const REPAIR_CHANGED: usize = 6;
/// Time in `repair`.
const REPAIR_NS: usize = 7;
/// `improve` (§3.5 rebalance) calls.
const IMPROVE_CALLS: usize = 8;
/// `improve` calls that returned a fitter schedule.
const IMPROVE_ACCEPTS: usize = 9;
/// Time in `improve`.
const IMPROVE_NS: usize = 10;
/// Selection calls.
const SELECT_CALLS: usize = 11;
/// Time in selection.
const SELECT_NS: usize = 12;
/// Crossover calls.
const CROSS_CALLS: usize = 13;
/// Time in crossover.
const CROSS_NS: usize = 14;
/// Mutation calls.
const MUTATE_CALLS: usize = 15;
/// Time in mutation.
const MUTATE_NS: usize = 16;
/// Time in `epoch_key`.
const EPOCH_NS: usize = 17;
const N_COUNTERS: usize = 18;
const C_NAMES: [&str; N_COUNTERS] = [
    "eval_calls",
    "eval_ns",
    "delta_calls",
    "delta_hits",
    "delta_ns",
    "repair_calls",
    "repair_changed",
    "repair_ns",
    "improve_calls",
    "improve_accepts",
    "improve_ns",
    "select_calls",
    "select_ns",
    "cross_calls",
    "cross_ns",
    "mutate_calls",
    "mutate_ns",
    "epoch_ns",
];
/// The counters that hold time spent inside a wrapped call.
const NS_COUNTERS: [usize; 8] = [
    EVAL_NS, DELTA_NS, REPAIR_NS, IMPROVE_NS, SELECT_NS, CROSS_NS, MUTATE_NS, EPOCH_NS,
];

/// A snapshot of (or difference between) counter values.
pub type Snap = [u64; N_COUNTERS];

/// Shared call counters; atomics because the thread-pool evaluator may
/// call the problem from worker threads.
pub struct Counters([AtomicU64; N_COUNTERS]);

impl Default for Counters {
    fn default() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    fn add(&self, idx: usize, v: u64) {
        self.0[idx].fetch_add(v, Ordering::Relaxed);
    }

    fn timed<R>(&self, calls: usize, ns: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(ns, t.elapsed().as_nanos() as u64);
        self.add(calls, 1);
        r
    }

    /// Current values.
    pub fn snap(&self) -> Snap {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

fn diff(later: &Snap, earlier: &Snap) -> Snap {
    std::array::from_fn(|i| later[i] - earlier[i])
}

fn ns_total(s: &Snap) -> u64 {
    NS_COUNTERS.iter().map(|&i| s[i]).sum()
}

/// Times every [`Problem`] method of the wrapped problem, defaulted ones
/// included, and delegates each to it.
pub struct TracedProblem<'a, P> {
    inner: &'a P,
    c: &'a Counters,
}

impl<'a, P> TracedProblem<'a, P> {
    /// Wraps `inner`, counting into `c`.
    pub fn new(inner: &'a P, c: &'a Counters) -> Self {
        Self { inner, c }
    }
}

impl<P: Problem> Problem for TracedProblem<'_, P> {
    fn fitness(&self, c: &Chromosome) -> f64 {
        self.c.timed(EVAL_CALLS, EVAL_NS, || self.inner.fitness(c))
    }

    fn makespan(&self, c: &Chromosome) -> f64 {
        self.c.timed(EVAL_CALLS, EVAL_NS, || self.inner.makespan(c))
    }

    fn evaluate(&self, c: &Chromosome) -> (f64, f64) {
        self.c.timed(EVAL_CALLS, EVAL_NS, || self.inner.evaluate(c))
    }

    fn evaluate_into(&self, c: &Chromosome, completions: &mut Vec<f64>) -> (f64, f64) {
        self.c.timed(EVAL_CALLS, EVAL_NS, || {
            self.inner.evaluate_into(c, completions)
        })
    }

    fn evaluate_swap_delta(
        &self,
        c: &Chromosome,
        i: usize,
        j: usize,
        completions: &mut [f64],
    ) -> Option<(f64, f64)> {
        let r = self.c.timed(DELTA_CALLS, DELTA_NS, || {
            self.inner.evaluate_swap_delta(c, i, j, completions)
        });
        if r.is_some() {
            self.c.add(DELTA_HITS, 1);
        }
        r
    }

    fn epoch_key(&self) -> u64 {
        let t = Instant::now();
        let k = self.inner.epoch_key();
        self.c.add(EPOCH_NS, t.elapsed().as_nanos() as u64);
        k
    }

    fn repair(&self, c: &mut Chromosome) -> bool {
        let changed = self
            .c
            .timed(REPAIR_CALLS, REPAIR_NS, || self.inner.repair(c));
        if changed {
            self.c.add(REPAIR_CHANGED, 1);
        }
        changed
    }

    fn improve(
        &self,
        c: &mut Chromosome,
        current_fitness: f64,
        completions: &mut Vec<f64>,
        rng: &mut Prng,
    ) -> Option<(f64, f64)> {
        let r = self.c.timed(IMPROVE_CALLS, IMPROVE_NS, || {
            self.inner.improve(c, current_fitness, completions, rng)
        });
        if r.is_some() {
            self.c.add(IMPROVE_ACCEPTS, 1);
        }
        r
    }
}

/// Times a selection operator.
pub struct TracedSelection<'a> {
    inner: &'a dyn SelectionOp,
    c: &'a Counters,
}

impl SelectionOp for TracedSelection<'_> {
    fn select(&self, fitness: &[f64], rng: &mut Prng) -> usize {
        self.c
            .timed(SELECT_CALLS, SELECT_NS, || self.inner.select(fitness, rng))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Times a crossover operator.
pub struct TracedCrossover<'a> {
    inner: &'a dyn CrossoverOp,
    c: &'a Counters,
}

impl CrossoverOp for TracedCrossover<'_> {
    fn cross(&self, a: &Chromosome, b: &Chromosome, rng: &mut Prng) -> (Chromosome, Chromosome) {
        self.c
            .timed(CROSS_CALLS, CROSS_NS, || self.inner.cross(a, b, rng))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Times a mutation operator, tracked and untracked forms both.
pub struct TracedMutation<'a> {
    inner: &'a dyn MutationOp,
    c: &'a Counters,
}

impl MutationOp for TracedMutation<'_> {
    fn mutate(&self, c: &mut Chromosome, rng: &mut Prng) {
        self.c
            .timed(MUTATE_CALLS, MUTATE_NS, || self.inner.mutate(c, rng))
    }

    fn mutate_tracked(&self, c: &mut Chromosome, rng: &mut Prng) -> GeneEdit {
        self.c.timed(MUTATE_CALLS, MUTATE_NS, || {
            self.inner.mutate_tracked(c, rng)
        })
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

// ---- one plan call, rebuilt from public pieces ---------------------------

/// The inputs of one plan call.
pub struct PlanInput<'a> {
    /// Tasks of the batch.
    pub batch: &'a [Task],
    /// Processor estimates.
    pub procs: &'a [ProcessorState],
    /// Slot precedence for a DAG batch.
    pub prec: Option<&'a SlotPrecedence>,
    /// Warm seeds, already remapped onto this batch (best first).
    pub warm: &'a [Chromosome],
    /// The plan call's seed.
    pub seed: u64,
}

/// What one traced plan call cost, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    /// Whole call.
    pub plan_ns: u64,
    /// `BatchProblem` construction, initial population and warm-seed
    /// filtering (plus any remap the caller timed into `extra_init_ns`).
    pub init_ns: u64,
    /// `GaRun::step` calls.
    pub steps: u64,
    /// Time in `GaRun::step`.
    pub step_ns: u64,
    /// Counter deltas over the whole call.
    pub total: Snap,
    /// Counter deltas inside `GaRun::step` only.
    pub in_steps: Snap,
    /// Generations evolved.
    pub generations: u32,
    /// Fitness-memo hits and misses.
    pub memo_hits: u64,
    /// Fitness-memo misses.
    pub memo_misses: u64,
}

/// Runs one monolithic PN plan call the way `dts_core`'s batch runner
/// does — problem, §3.3 initial population topped up behind the warm
/// seeds, `GaEngine::start`, `GaRun::step` until a stop — with every
/// layer timed. `config` must be a monolithic (non-island) configuration
/// with no time budget.
pub fn traced_plan(
    input: &PlanInput<'_>,
    config: &PnConfig,
    rec: &mut Recorder,
    call: u32,
    counters: &Counters,
) -> (GaResult, CallStats) {
    assert!(config.islands.islands <= 1, "traced plan is monolithic");
    let mut st = CallStats::default();
    let before = counters.snap();
    let root = rec.open("plan", ROOT, call);

    let init = rec.open("init", root, call);
    config.validate().expect("valid PnConfig");
    let mut rng = Prng::seed_from(input.seed);
    let mut problem = BatchProblem::new(input.batch, input.procs, config);
    if let Some(prec) = input.prec {
        problem = problem.with_precedence(prec);
    }
    let (h, m) = (input.batch.len(), input.procs.len());
    let pop = config.ga.population_size;
    let mut initial: Vec<Chromosome> = input
        .warm
        .iter()
        .filter(|c| c.n_tasks() as usize == h && c.n_procs() as usize == m && c.validate().is_ok())
        .take(pop)
        .cloned()
        .collect();
    if initial.len() < pop {
        initial.extend(initial_population(
            input.batch,
            input.procs,
            pop - initial.len(),
            config.init_random_fraction,
            &mut rng,
        ));
    }
    st.init_ns = rec.close(init);

    let traced = TracedProblem::new(&problem, counters);
    let selection = TracedSelection {
        inner: &RouletteWheel,
        c: counters,
    };
    let crossover = TracedCrossover {
        inner: &CycleCrossover,
        c: counters,
    };
    let mutation = TracedMutation {
        inner: &SwapMutation,
        c: counters,
    };
    let engine = GaEngine::new(&selection, &crossover, &mutation, config.ga.clone());
    let result = config.ga.evaluator.with_context(&traced, |eval| {
        let start = rec.open("start", root, call);
        let mut run = engine.start(&traced, eval, &initial, None);
        rec.close(start);
        while run.stopped().is_none() {
            let s0 = counters.snap();
            let step = rec.open("step", root, call);
            run.step(eval, &mut rng);
            st.step_ns += rec.close(step);
            st.steps += 1;
            let d = diff(&counters.snap(), &s0);
            for (sum, delta) in st.in_steps.iter_mut().zip(d) {
                *sum += delta;
            }
        }
        run.into_result()
    });
    st.plan_ns = rec.close(root);
    st.total = diff(&counters.snap(), &before);
    st.generations = result.generations;
    st.memo_hits = result.memo_hits;
    st.memo_misses = result.memo_misses;
    rec.sums.push((root, st.total));
    (result, st)
}

/// Per-layer GA and core metrics over traced plan calls. Counts are
/// per-call means over the first `k` calls (deterministic per seed);
/// shares and per-call times use every call.
pub fn ga_layer_metrics(calls: &[CallStats], k: usize) -> Vec<(&'static str, f64)> {
    let first = &calls[..k.min(calls.len())];
    let n_first = first.len().max(1) as f64;
    let sum_first = |idx: usize| first.iter().map(|c| c.total[idx]).sum::<u64>() as f64;
    let sum_all = |idx: usize| calls.iter().map(|c| c.total[idx]).sum::<u64>() as f64;
    let plan_ns = calls.iter().map(|c| c.plan_ns).sum::<u64>() as f64;
    let step_ns = calls.iter().map(|c| c.step_ns).sum::<u64>() as f64;
    let steps = calls.iter().map(|c| c.steps).sum::<u64>() as f64;
    let inner_step_ns = calls.iter().map(|c| ns_total(&c.in_steps)).sum::<u64>() as f64;
    let init_ns = calls.iter().map(|c| c.init_ns).sum::<u64>() as f64;
    let gens = first.iter().map(|c| f64::from(c.generations)).sum::<f64>();
    let hits = first.iter().map(|c| c.memo_hits).sum::<u64>() as f64;
    let misses = first.iter().map(|c| c.memo_misses).sum::<u64>() as f64;
    vec![
        ("ga.generations", gens / n_first),
        ("ga.gen_us", ratio(step_ns, steps) / 1e3),
        (
            "ga.breed_self_share",
            ratio(step_ns - inner_step_ns, plan_ns),
        ),
        (
            "ga.select_ns",
            ratio(sum_all(SELECT_NS), sum_all(SELECT_CALLS)),
        ),
        (
            "ga.crossover_ns",
            ratio(sum_all(CROSS_NS), sum_all(CROSS_CALLS)),
        ),
        (
            "ga.mutate_ns",
            ratio(sum_all(MUTATE_NS), sum_all(MUTATE_CALLS)),
        ),
        ("ga.crossovers", sum_first(CROSS_CALLS) / n_first),
        ("ga.mutations", sum_first(MUTATE_CALLS) / n_first),
        ("ga.repair_share", ratio(sum_all(REPAIR_NS), plan_ns)),
        ("ga.repair_calls", sum_first(REPAIR_CALLS) / n_first),
        (
            "ga.repair_changed_ratio",
            ratio(sum_first(REPAIR_CHANGED), sum_first(REPAIR_CALLS)),
        ),
        ("ga.memo_hit_ratio", ratio(hits, hits + misses)),
        ("core.eval_calls", sum_first(EVAL_CALLS) / n_first),
        ("core.eval_share", ratio(sum_all(EVAL_NS), plan_ns)),
        ("core.delta_attempts", sum_first(DELTA_CALLS) / n_first),
        (
            "core.delta_hit_ratio",
            ratio(sum_first(DELTA_HITS), sum_first(DELTA_CALLS)),
        ),
        ("core.rebalance_calls", sum_first(IMPROVE_CALLS) / n_first),
        (
            "core.rebalance_accept_ratio",
            ratio(sum_first(IMPROVE_ACCEPTS), sum_first(IMPROVE_CALLS)),
        ),
        ("core.rebalance_share", ratio(sum_all(IMPROVE_NS), plan_ns)),
        ("core.init_share", ratio(init_ns, plan_ns)),
    ]
}

/// Every per-layer metric at 0, for the layers a workload does not use;
/// later entries with the same name override these.
pub fn zeros() -> Vec<(&'static str, f64)> {
    crate::PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// Replaces or appends `(name, value)` pairs.
pub fn set_all(values: &mut Vec<(&'static str, f64)>, new: Vec<(&'static str, f64)>) {
    for (name, v) in new {
        match values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => values.push((name, v)),
        }
    }
}

/// Whether two GA results are the same run: genes, makespan bits,
/// generations and memo counters.
pub fn same_result(a: &GaResult, b: &GaResult) -> Result<(), String> {
    if a.best.genes() != b.best.genes() {
        return Err("best chromosome differs".into());
    }
    if a.best_makespan.to_bits() != b.best_makespan.to_bits() {
        return Err(format!(
            "best makespan differs: {} vs {}",
            a.best_makespan, b.best_makespan
        ));
    }
    if a.generations != b.generations {
        return Err(format!(
            "generations differ: {} vs {}",
            a.generations, b.generations
        ));
    }
    if (a.memo_hits, a.memo_misses) != (b.memo_hits, b.memo_misses) {
        return Err(format!(
            "memo counters differ: {}/{} vs {}/{}",
            a.memo_hits, a.memo_misses, b.memo_hits, b.memo_misses
        ));
    }
    Ok(())
}
