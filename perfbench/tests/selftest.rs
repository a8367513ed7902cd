//! Self-test of the benchmark at toy sizes: a planted wrong expectation
//! must be counted as a failed operation, and the traced pass must emit
//! one span per layer call, each with a valid parent and op id.
//!
//! The cluster workload needs the `lafd` binary: `python3
//! perfbench/run.py --selftest` builds it and passes its path in
//! `PERFBENCH_LAFD`.

use perfbench::trace::Span;
use perfbench::{run, Outcome, Plan, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn plan(workload: Workload, traced: bool, plant_wrong: bool) -> Plan {
    let lafd = std::env::var_os("PERFBENCH_LAFD").map(PathBuf::from);
    if workload == Workload::ClusterLocal {
        assert!(
            lafd.as_ref().is_some_and(|p| p.is_file()),
            "set PERFBENCH_LAFD to a built lafd binary (perfbench/run.py --selftest does)"
        );
    }
    Plan {
        workload,
        seed: 7,
        seconds: 0.3,
        traced,
        toy: true,
        plant_wrong,
        lafd,
    }
}

fn run_ok(plan: &Plan) -> Outcome {
    run(plan).unwrap_or_else(|e| panic!("{}: {e}", plan.workload.name()))
}

#[test]
fn a_planted_wrong_expectation_is_one_failure() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let clean = run_ok(&plan(workload, traced, false));
            assert_eq!(
                clean.checks.failed,
                0,
                "{}: {:?}",
                workload.name(),
                clean.checks.notes
            );
            assert!(clean.checks.attempted > 1, "{}", workload.name());
            let planted = run_ok(&plan(workload, traced, true));
            assert_eq!(
                planted.checks.failed,
                1,
                "{}: {:?}",
                workload.name(),
                planted.checks.notes
            );
        }
    }
}

#[test]
fn the_untraced_pass_reports_every_end_to_end_metric_nonzero() {
    for workload in Workload::ALL {
        let outcome = run_ok(&plan(workload, false, false));
        let metrics = outcome
            .metrics(false)
            .expect("all end-to-end metrics measured");
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, value, _) in metrics {
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        assert!(
            outcome.tracer.spans().is_empty(),
            "the untraced pass records no spans"
        );
    }
}

/// The layer calls each kind of operation makes, once each.
fn layer_calls(op: &str) -> &'static [&'static str] {
    match op {
        "op.setup" => &["keys.dealer_keydist"],
        "op.table" => &["keys.predicate_table"],
        "op.run" => &[
            "runner.run_with_keys",
            "keys.materialize",
            "keys.release",
            "runner.keyrings",
            "runner.to_json",
        ],
        "op.request" => &["service.submit_line"],
        "op.wire" => &[
            "wire.request_from_json",
            "wire.response_from_json",
            "wire.report_to_json",
        ],
        "op.keydist" => &["localauth.setup_keydist"],
        "op.launch" => &[
            "deploy.lafd_cluster",
            "deploy.in_process",
            "deploy.spawn_probe",
        ],
        other => panic!("unexpected operation {other}"),
    }
}

fn check_spans(name: &str, spans: &[Span]) {
    assert!(
        !spans.is_empty(),
        "{name}: the traced pass recorded no spans"
    );
    for (i, span) in spans.iter().enumerate() {
        assert!(
            span.end_us >= span.start_us,
            "{name}: span {i} ends before it starts"
        );
        match span.parent {
            None => assert!(
                span.name.starts_with("op."),
                "{name}: root span {}",
                span.name
            ),
            Some(p) => {
                let parent = spans
                    .get(p)
                    .unwrap_or_else(|| panic!("{name}: span {i} parent {p}"));
                assert!(
                    p != i && parent.parent.is_none(),
                    "{name}: span {i} nests under a layer"
                );
                assert_eq!(
                    parent.op, span.op,
                    "{name}: span {i} op id differs from its parent's"
                );
                assert!(
                    parent.start_us <= span.start_us && span.end_us <= parent.end_us,
                    "{name}: span {i} is not inside its parent"
                );
            }
        }
    }
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let mut children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.name)
            .collect();
        let mut want = layer_calls(root.name).to_vec();
        children.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            children, want,
            "{name}: layer calls of {} (op {})",
            root.name, root.op
        );
    }
}

#[test]
fn the_traced_pass_records_one_span_per_layer_call() {
    for workload in Workload::ALL {
        let outcome = run_ok(&plan(workload, true, false));
        check_spans(workload.name(), outcome.tracer.spans());
        let metrics = outcome.metrics(true).expect("per-layer metrics are finite");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let json = outcome.tracer.to_json();
        assert_eq!(
            json.matches("\"name\"").count(),
            outcome.tracer.spans().len()
        );
    }
}

#[test]
fn the_traced_engine_run_adds_up() {
    for workload in [Workload::ChainLarge, Workload::DsEvent] {
        let outcome = run_ok(&plan(workload, true, false));
        let v = |k: &str| outcome.values[k];
        let parts = v("keys.materialize_ms")
            + v("keys.release_ms")
            + v("runner.keyrings_ms")
            + v("runner.drive_ms");
        assert!(
            (parts - v("runner.run_ms")).abs() < 1e-6,
            "{}",
            workload.name()
        );
        assert!(outcome.values.contains_key("obs.overhead_pct"));
    }
}
