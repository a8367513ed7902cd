//! `chain-large` and `ds-event`: repeated warm protocol runs on one
//! dealer key distribution, in process.
//!
//! The two are mirror images. Chain FD at n = 8192 sends only n − 1
//! messages, so its run time is almost all the per-run copy and release
//! of the n dealer key stores. Dolev–Strong at n = 2048 on the event
//! engine sends n(n − 1) messages, so the scheduler, the verify cache and
//! the codec do the work and the stores are a few percent of it.

use crate::stats::{median, median_index};
use crate::trace::Tracer;
use crate::{peak_rss_mb, secs, Checks, Outcome, Plan, Rng, Workload};
use local_auth_fd::core::keys::VerifyCache;
use local_auth_fd::core::obs::{PhaseBreakdown, SpanClock};
use local_auth_fd::core::runner::{Cluster, FdRunReport, KeyDistReport};
use local_auth_fd::core::spec::{scheme_by_name, Protocol, RunSpec};
use local_auth_fd::simnet::{Engine, NodeId};
use std::collections::HashMap;
use std::time::Instant;

struct Shape {
    protocol: Protocol,
    n: usize,
    t: usize,
    engine: Engine,
    /// Set-ups per process; `setup_s` is their median.
    setups: usize,
}

fn shape(plan: &Plan) -> Shape {
    match (plan.workload, plan.toy) {
        (Workload::ChainLarge, false) => Shape {
            protocol: Protocol::ChainFd,
            n: 8192,
            t: 1,
            engine: Engine::Sync,
            setups: 3,
        },
        (Workload::DsEvent, false) => Shape {
            protocol: Protocol::DolevStrong,
            n: 2048,
            t: 1,
            engine: Engine::Event,
            setups: 5,
        },
        (Workload::ChainLarge, true) => Shape {
            protocol: Protocol::ChainFd,
            n: 64,
            t: 1,
            engine: Engine::Sync,
            setups: 2,
        },
        (_, true) => Shape {
            protocol: Protocol::DolevStrong,
            n: 32,
            t: 1,
            engine: Engine::Event,
            setups: 2,
        },
        _ => unreachable!("engines::run serves chain-large and ds-event only"),
    }
}

/// One measured protocol run's parts, from the traced pass.
struct Parts {
    run_us: f64,
    materialize_us: f64,
    release_us: f64,
    keyrings_us: f64,
    report_us: f64,
    phases: PhaseBreakdown,
}

pub fn run(plan: &Plan, t0: Instant) -> Result<Outcome, String> {
    let sh = shape(plan);
    let scheme = scheme_by_name("tiny")?;
    let cluster_seed = Rng::new(plan.seed, "cluster").next_u64();
    let mut inputs = Rng::new(plan.seed, "inputs");
    let mut tr = Tracer::new(plan.traced, t0);
    let mut checks = Checks::default();
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut summary = Vec::new();

    let expected_messages = sh.protocol.expected_messages(sh.n, sh.t);
    let mut reference_bytes: Option<usize> = None;
    let mut check = |checks: &mut Checks, report: &FdRunReport, input: &[u8]| {
        let planted = usize::from(checks.plant(plan));
        let verdict = check_run(
            report,
            input,
            expected_messages + planted,
            sh.t,
            &mut reference_bytes,
        );
        checks.op(verdict);
    };
    let mut next_spec = || {
        let input = inputs.word(16).into_bytes();
        RunSpec::new(sh.protocol, input).with_default_value(b"default".to_vec())
    };

    // Set-up: build the cluster and its dealer key distribution, several
    // times; the last one serves the warm runs. The first run on each
    // fresh distribution (the one a one-shot `lafd run` pays for) is
    // timed as `slow_ms` and kept out of the warm median.
    let setup = |tr: &mut Tracer| {
        tr.op("op.setup", |tr| {
            let cluster =
                Cluster::new(sh.n, sh.t, scheme.clone(), cluster_seed).with_engine(sh.engine);
            let kd = tr.span("keys.dealer_keydist", |_| cluster.dealer_keydist());
            (cluster, kd)
        })
    };
    let mut setup_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut kept: Option<(Cluster, KeyDistReport)> = None;
    for _ in 0..sh.setups {
        drop(kept.take());
        let start = Instant::now();
        let (cluster, kd) = setup(&mut tr);
        setup_s.push(secs(start));
        if tr.is_on() {
            tr.op("op.table", |tr| {
                tr.span("keys.predicate_table", |_| cluster.predicate_table())
            });
        }
        let spec = next_spec();
        let start = Instant::now();
        let report = cluster.run_with_keys(&spec, Some(&kd));
        cold_ms.push(secs(start) * 1e3);
        check(&mut checks, &report, &spec.input);
        drop(report);
        kept = Some((cluster, kd));
    }
    let (cluster, kd) = kept.expect("at least one set-up");
    let allocs = kd
        .predicates
        .as_ref()
        .map_or(0, |table| table.distinct_allocations());
    if allocs != sh.n {
        return Err(format!(
            "dealer table holds {allocs} allocations, expected n = {}",
            sh.n
        ));
    }

    // Untraced warm runs. A traced plan spends half its time here, to
    // measure what tracing costs.
    let budget = if plan.traced {
        plan.seconds / 2.0
    } else {
        plan.seconds
    };
    let mut walls_ms = Vec::new();
    let phase = Instant::now();
    while walls_ms.is_empty() || secs(phase) < budget {
        let spec = next_spec();
        let start = Instant::now();
        let report = cluster.run_with_keys(&spec, Some(&kd));
        walls_ms.push(secs(start) * 1e3);
        check(&mut checks, &report, &spec.input);
    }
    let untraced_s = secs(phase);

    if !plan.traced {
        let rss = peak_rss_mb()?;
        // Time as many set-ups again after the measured phase, so the
        // median spans the run and not only its first seconds (the host's
        // speed drifts).
        drop((cluster, kd));
        for _ in 0..sh.setups {
            let start = Instant::now();
            let pair = setup(&mut tr);
            setup_s.push(secs(start));
            drop(pair);
        }
        values.insert("setup_s", median(&setup_s));
        values.insert("op_p50_ms", median(&walls_ms));
        values.insert("slow_ms", median(&cold_ms));
        values.insert("ops_per_s", walls_ms.len() as f64 / untraced_s);
        values.insert("peak_rss_mb", rss);
        summary.push(format!(
            "setup_s = {:.4} s (median of {} dealer set-ups before and after the runs)",
            median(&setup_s),
            setup_s.len()
        ));
        summary.push(format!(
            "run_s = {:.4} s (median of {} warm runs; the {} first runs after set-up, median {:.1} ms, excluded)",
            median(&walls_ms) / 1e3,
            walls_ms.len(),
            cold_ms.len(),
            median(&cold_ms)
        ));
        summary.push(format!("peak_rss_mb = {rss:.1} MB"));
        return Ok(Outcome {
            checks,
            values,
            summary,
            tracer: tr,
        });
    }

    // Traced runs: the run itself with the program's own counters on,
    // then the benchmark repeats the run's per-node set-up steps as
    // separate calls to time them: store materialization exactly as
    // `Cluster::dispatch` does it, the store release, and the keyrings.
    let observed = cluster.clone().with_obs();
    let mut parts: Vec<Parts> = Vec::new();
    let phase = Instant::now();
    while parts.is_empty() || secs(phase) < plan.seconds - budget {
        let spec = next_spec();
        let part = tr.op("op.run", |tr| {
            let (report, run_us) = tr.timed("runner.run_with_keys", |_| {
                observed.run_with_keys(&spec, Some(&kd))
            });
            check(&mut checks, &report, &spec.input);
            let cache = VerifyCache::default();
            let (stores, materialize_us) = tr.timed("keys.materialize", |_| {
                (0..sh.n)
                    .map(|i| kd.store(NodeId(i as u16)).clone().with_cache(cache.clone()))
                    .collect::<Vec<_>>()
            });
            let ((), release_us) = tr.timed("keys.release", |_| drop(stores));
            let ((), keyrings_us) = tr.timed("runner.keyrings", |_| {
                let rings: Vec<_> = (0..sh.n)
                    .map(|i| cluster.keyring(NodeId(i as u16)))
                    .collect();
                drop(rings);
            });
            let (_, report_us) = tr.timed("runner.to_json", |_| report.to_json());
            Parts {
                run_us,
                materialize_us,
                release_us,
                keyrings_us,
                report_us,
                phases: report
                    .phases
                    .clone()
                    .expect("the observed cluster records phases"),
            }
        });
        parts.push(part);
    }

    // The engine remainder should never be negative. The parts are timed
    // outside the run, so where the remainder is a few percent of the run
    // (chain-large) noise can push it below zero; that is reported, not
    // counted as a failed operation, since it says nothing about the
    // program's output.
    let negative = parts
        .iter()
        .filter(|p| p.run_us < p.materialize_us + p.release_us + p.keyrings_us)
        .count();
    if negative > 0 {
        summary.push(format!(
            "warning: in {negative} of {} traced runs the separately timed parts exceed the run \
             (runner.drive_ms is within measurement noise of 0)",
            parts.len()
        ));
    }

    let runs: Vec<f64> = parts.iter().map(|p| p.run_us).collect();
    let mid = &parts[median_index(&runs).expect("at least one traced run")];
    let ph = &mid.phases;
    let drive_us = mid.run_us - mid.materialize_us - mid.release_us - mid.keyrings_us;
    values.insert(
        "keys.dealer_ms",
        median(&tr.durations_us("keys.dealer_keydist")) / 1e3,
    );
    values.insert(
        "keys.table_ms",
        median(&tr.durations_us("keys.predicate_table")) / 1e3,
    );
    values.insert("keys.materialize_ms", mid.materialize_us / 1e3);
    values.insert("keys.release_ms", mid.release_us / 1e3);
    values.insert("keys.distinct_allocs", allocs as f64);
    values.insert("keys.cache_hits", ph.cache_hits as f64);
    values.insert("keys.cache_misses", ph.cache_misses as f64);
    values.insert(
        "keys.cache_hit_pct",
        100.0 * ph.cache_hits as f64 / ((ph.cache_hits + ph.cache_misses).max(1)) as f64,
    );
    values.insert("crypto.verify_ms", ph.verify_us as f64 / 1e3);
    values.insert("runner.run_ms", mid.run_us / 1e3);
    values.insert("runner.keyrings_ms", mid.keyrings_us / 1e3);
    values.insert("runner.report_ms", mid.report_us / 1e3);
    values.insert("runner.drive_ms", drive_us / 1e3);
    if ph.clock == SpanClock::WallMicros {
        values.insert(
            "simnet.rounds_ms",
            ph.per_round().iter().sum::<u64>() as f64 / 1e3,
        );
    }
    values.insert("simnet.ring_enqueued", ph.ring_enqueued as f64);
    values.insert("simnet.heap_enqueued", ph.heap_enqueued as f64);
    values.insert("simnet.arena_hwm", ph.arena_hwm as f64);
    values.insert("simnet.max_queue_depth", ph.max_queue_depth as f64);
    values.insert("simnet.messages", expected_messages as f64);
    values.insert("simnet.bytes", reference_bytes.unwrap_or(0) as f64);
    values.insert("simnet.comm_rounds", (sh.t + 1) as f64);
    let untraced = median(&walls_ms);
    values.insert(
        "obs.overhead_pct",
        100.0 * (mid.run_us / 1e3 / untraced - 1.0),
    );
    summary.push(format!(
        "traced run_s = {:.4} s = materialize {:.1} + release {:.1} + keyrings {:.1} + drive {:.1} ms \
         (median of {} traced runs; untraced median {:.1} ms over {} runs)",
        mid.run_us / 1e6,
        mid.materialize_us / 1e3,
        mid.release_us / 1e3,
        mid.keyrings_us / 1e3,
        drive_us / 1e3,
        parts.len(),
        untraced,
        walls_ms.len()
    ));
    Ok(Outcome {
        checks,
        values,
        summary,
        tracer: tr,
    })
}

/// A failure-free run must decide the sender's input everywhere, at the
/// closed-form message count, in t + 1 communication rounds, and with
/// the same byte count as every other run of the workload (inputs have
/// a fixed length).
fn check_run(
    report: &FdRunReport,
    input: &[u8],
    expected_messages: usize,
    t: usize,
    reference_bytes: &mut Option<usize>,
) -> Result<(), String> {
    if !report.all_decided(input) {
        return Err("not every node decided the sender's input".to_string());
    }
    if report.stats.messages_total != expected_messages {
        return Err(format!(
            "{} messages, closed form says {expected_messages}",
            report.stats.messages_total
        ));
    }
    let comm_rounds = report.stats.per_round.iter().filter(|&&m| m > 0).count();
    if comm_rounds != t + 1 {
        return Err(format!(
            "{comm_rounds} communication rounds, expected t + 1 = {}",
            t + 1
        ));
    }
    let bytes = *reference_bytes.get_or_insert(report.stats.bytes_total);
    if report.stats.bytes_total != bytes {
        return Err(format!(
            "{} bytes, earlier runs sent {bytes}",
            report.stats.bytes_total
        ));
    }
    Ok(())
}
