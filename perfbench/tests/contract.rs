//! Self-tests of the benchmark's contract: the metric list matches
//! `BENCHMARK.json`, every workload passes its checks at a tiny size, and
//! a corrupted schedule or placement is counted as a failed operation.

use perfbench::{run, Opts, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        trace_dir: None,
        corrupt_first: false,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} listed"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |item: &str, key: &str| -> String {
        let at = item.find(&format!("\"{key}\"")).expect("field present");
        let rest = &item[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(listed("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(listed("per_layer"), as_owned(&PER_LAYER));
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        for w in Workload::ALL {
            let mut report = run(&tiny(w, trace));
            let line = report.result_json(trace);
            for (name, unit) in listed(section) {
                let printed = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&printed)
                    .unwrap_or_else(|| panic!("{} does not print {name}: {line}", w.name()));
                let rest = &line[at..];
                let entry = &rest[..rest.find('}').expect("metric object closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} printed without unit {unit}: {entry}"
                );
            }
        }
    }
}

#[test]
fn tiny_runs_pass_their_checks() {
    for trace in [false, true] {
        for w in Workload::ALL {
            let mut report = run(&tiny(w, trace));
            let line = report.result_json(trace);
            assert!(
                report.tally.failed == 0 && report.tally.attempted > 0,
                "{} (trace {trace}) failed: {:?}",
                w.name(),
                report.tally.messages
            );
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }
}

#[test]
fn a_corrupted_schedule_or_placement_is_a_failed_operation() {
    for trace in [false, true] {
        for w in Workload::ALL {
            let mut opts = tiny(w, trace);
            opts.corrupt_first = true;
            let mut report = run(&opts);
            let line = report.result_json(trace);
            assert!(
                report.tally.failed >= 1,
                "{} (trace {trace}) missed the corruption",
                w.name()
            );
            assert!(line.starts_with("{\"correct\": false"), "{line}");
        }
    }
}
