//! `perfbench` — the repository's benchmark.
//!
//! One command measures one workload for a given number of seconds,
//! checks every output it produced, and prints one JSON result line. Four
//! workloads cover the four ways the PN genetic algorithm is used:
//!
//! * `paper_batch` — back-to-back `dts_core::schedule_batch` calls at the
//!   paper's §4.2 shape;
//! * `dag_layered` — the same shape through `plan_batch` with a random
//!   layered precedence graph;
//! * `server_stream` — the online service (`dts_server::spawn`) fed a
//!   recorded arrival trace on a fixed schedule, then saturated;
//! * `sim_stream` — whole `dts_sim::run_simulation` experiments with the PN
//!   scheduler under Poisson arrivals.
//!
//! Untraced runs (`trace = false`) report the end-to-end metrics. Traced
//! runs report per-layer metrics: they time the calls into each layer's
//! public functions from this crate only, and check that the traced
//! program reproduces the untraced one bit for bit. See `README.md`.

pub mod gabatch;
pub mod host;
pub mod server;
pub mod sim;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Independent tasks at the paper's batch shape.
    PaperBatch,
    /// The paper's batch shape under a random layered DAG.
    DagLayered,
    /// The online service: open loop, then saturation.
    ServerStream,
    /// Whole simulated experiments with the PN scheduler.
    SimStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperBatch,
        Workload::DagLayered,
        Workload::ServerStream,
        Workload::SimStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::DagLayered => "dag_layered",
            Workload::ServerStream => "server_stream",
            Workload::SimStream => "sim_stream",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or tiny ones for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The shapes `README.md` describes.
    Full,
    /// Minimal shapes that exercise every code path in well under a second.
    Tiny,
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Every input is derived from this seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_dir: Option<PathBuf>,
    /// Deliberately corrupts the first schedule or placement before it is
    /// checked, so the self-tests can see a failed operation counted.
    pub corrupt_first: bool,
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms_tail", "ms"),
    ("speedup_2w", "x"),
    ("makespan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run (0 where a layer
/// does no work in the workload).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("ga.generations", "count"),
    ("ga.gen_us", "us"),
    ("ga.breed_self_share", "ratio"),
    ("ga.select_ns", "ns"),
    ("ga.crossover_ns", "ns"),
    ("ga.mutate_ns", "ns"),
    ("ga.crossovers", "count"),
    ("ga.mutations", "count"),
    ("ga.repair_share", "ratio"),
    ("ga.repair_calls", "count"),
    ("ga.repair_changed_ratio", "ratio"),
    ("ga.memo_hit_ratio", "ratio"),
    ("core.eval_calls", "count"),
    ("core.eval_share", "ratio"),
    ("core.delta_attempts", "count"),
    ("core.delta_hit_ratio", "ratio"),
    ("core.rebalance_calls", "count"),
    ("core.rebalance_accept_ratio", "ratio"),
    ("core.rebalance_share", "ratio"),
    ("core.init_share", "ratio"),
    ("sim.plan_calls", "count"),
    ("sim.batch_mean", "count"),
    ("sim.gens_per_plan", "count"),
    ("sim.plan_share", "ratio"),
    ("sim.loop_self_share", "ratio"),
    ("sim.events_per_s", "1/s"),
    ("server.submit_us", "us"),
    ("server.batch_wait_ms", "ms"),
    ("server.plan_ms", "ms"),
    ("server.gens_per_batch", "count"),
    ("server.max_pending", "count"),
    ("server.shed", "count"),
    ("server.capacity_tasks_per_s", "1/s"),
    ("service.generator_lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations run (plan calls, submitted tasks, experiments).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Messages of the first failures.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts one failure of an already-counted operation (or of the run).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metric values keyed by name.
    pub values: Vec<(&'static str, f64)>,
    /// Host conditions over the run, one JSON object.
    pub host: String,
    /// Extra diagnostics (tail percentiles and sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// the end-to-end or the per-layer list in `BENCHMARK.json` order. A
    /// listed metric that was not measured counts as a failure.
    pub fn result_json(&mut self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut body = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            let value = match value {
                Some(v) if v.is_finite() => v,
                other => {
                    self.tally
                        .fail(format!("metric {name} not measured ({other:?})"));
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        )
    }
}

/// A finite float with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Seed of the warm-up inputs: the same in every run, so the warm-up
/// part of a set-up does not depend on `--seed`.
pub const WARMUP_SEED: u64 = 0x5EED_0F5E_7B0B;

/// Set-up times of one untraced run; `setup_s` is their median. The first
/// set-up precedes the measured phase; the others are spread evenly
/// through a window of it, between measured calls, so host drift during
/// the run reaches `setup_s` as it reaches the calls.
pub struct SetupTimes {
    samples: Vec<f64>,
    count: usize,
    start: Instant,
    window: f64,
}

impl SetupTimes {
    /// Starts a window from now until `until` for `count` set-ups in all,
    /// the first of which took `first` seconds.
    pub fn new(first: f64, until: Instant, count: usize) -> Self {
        let start = Instant::now();
        SetupTimes {
            samples: vec![first],
            count,
            start,
            window: until.saturating_duration_since(start).as_secs_f64(),
        }
    }

    /// Times `setup` if the next set-up is due.
    pub fn maybe(&mut self, setup: impl FnOnce() -> f64) {
        let k = self.samples.len();
        let due = self.window * k as f64 / self.count as f64;
        if k < self.count && self.start.elapsed().as_secs_f64() >= due {
            self.samples.push(setup());
        }
    }

    /// The median set-up time, after making the set-ups the window ended
    /// before reaching.
    pub fn median(mut self, mut setup: impl FnMut() -> f64) -> f64 {
        while self.samples.len() < self.count {
            self.samples.push(setup());
        }
        stats::median(&mut self.samples)
    }
}

/// Ratio that reads 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Report {
    let start = host::HostSample::now();
    let (tally, mut values, notes) = match opts.workload {
        Workload::PaperBatch | Workload::DagLayered => gabatch::run(opts),
        Workload::ServerStream => server::run(opts),
        Workload::SimStream => sim::run(opts),
    };
    values.push(("peak_rss_mb", host::peak_rss_mb()));
    let end = host::HostSample::now();
    Report {
        tally,
        values,
        host: start.json_until(&end),
        notes,
    }
}
