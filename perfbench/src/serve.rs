//! `serve-mixed`: two closed-loop clients calling
//! `FdService::submit_line` on the default service configuration.
//!
//! Closed loop, because the real callers (the remote sweep executor and
//! `lafd serve` batch mode) each wait for their reply before sending the
//! next request. The request lines are generated up front from the
//! workload seed: six protocols, n ∈ {16, 32, 64} with the default t,
//! half on each engine, `jitter:1` on the event-engine runs of the three
//! protocols whose jittered cost stays bounded, and key-universe seeds
//! drawn geometrically, so a few universes stay hot while a tail forces
//! evictions and fresh Fig. 1 key distributions.

use crate::stats::{mean, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{peak_rss_mb, secs, Checks, Outcome, Plan, Rng};
use local_auth_fd::core::metrics::keydist_messages;
use local_auth_fd::core::runner::{Cluster, FdRunReport};
use local_auth_fd::core::service::{FdService, ServiceConfig};
use local_auth_fd::core::spec::{scheme_by_name, Protocol, SpecBuilder};
use local_auth_fd::core::wire::{self, Value};
use local_auth_fd::simnet::{Engine, LatencySpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const PROTOCOLS: [Protocol; 6] = [
    Protocol::ChainFd,
    Protocol::SmallRange,
    Protocol::NonAuthFd,
    Protocol::FdToBa,
    Protocol::DolevStrong,
    Protocol::Degradable,
];

/// Protocols whose event-engine requests carry `jitter:1`. `fd_to_ba`
/// is left out on purpose: under jitter its EIG fallback is exponential
/// in t (see README.md).
const JITTERED: [Protocol; 3] = [
    Protocol::ChainFd,
    Protocol::DolevStrong,
    Protocol::NonAuthFd,
];

/// Key-universe seeds of the 12 requests each size gets per block:
/// seeds 1, 2 and 3 in a geometric-like profile keep 9 universes hot,
/// one more than the pool holds per shard, and the last request gets a
/// fresh seed. Both force LRU evictions and new Fig. 1 key distributions.
const UNIVERSES: [u64; 12] = [1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, FRESH];

/// Marks the slot that draws a fresh seed from `FRESH..FRESH + 2^20`;
/// the hot universes are `1..FRESH`.
const FRESH: u64 = 4;

const CLIENTS: usize = 2;

struct Shape {
    sizes: &'static [usize],
    /// Request lines generated up front; the run stops early if the
    /// clients use them all.
    lines: usize,
    setups: usize,
}

fn shape(toy: bool) -> Shape {
    if toy {
        Shape {
            sizes: &[4, 6],
            lines: 64,
            setups: 2,
        }
    } else {
        Shape {
            sizes: &[16, 32, 64],
            lines: 16384,
            setups: 3,
        }
    }
}

/// What the benchmark knows about a request it generated.
struct Request {
    protocol: Protocol,
    n: usize,
    t: usize,
    jitter: bool,
    input: Vec<u8>,
}

/// Encode one request line.
fn encode(
    protocol: Protocol,
    n: usize,
    event: bool,
    universe: u64,
    input: Vec<u8>,
    id: &str,
) -> Result<(Request, String), String> {
    let jitter = event && JITTERED.contains(&protocol);
    let mut builder = SpecBuilder::new(protocol, n)
        .with_seed(universe)
        .with_engine(if event { Engine::Event } else { Engine::Sync })
        .with_input(input.clone())
        .with_default_value(b"default".to_vec());
    if jitter {
        builder = builder.with_latency(LatencySpec::parse("jitter:1")?);
    }
    let line = wire::request_to_json(&builder, Some(id))?;
    let request = Request {
        protocol,
        n,
        t: builder.resolved_t(),
        jitter,
        input,
    };
    Ok((request, line))
}

/// The mix is a sequence of blocks. Each block holds every
/// (protocol, n, engine) combination once, each size with the universe
/// profile of [`UNIVERSES`], in a seeded order: every seed sends the same
/// composition of work and differs in order, inputs and fresh seeds.
fn generate(seed: u64, sh: &Shape) -> Result<Vec<(Request, String)>, String> {
    let mut rng = Rng::new(seed, "serve-mix");
    let mut mix = Vec::with_capacity(sh.lines);
    while mix.len() < sh.lines {
        let mut block = Vec::new();
        for &n in sh.sizes {
            let mut universes = UNIVERSES;
            rng.shuffle(&mut universes);
            let combos = PROTOCOLS
                .iter()
                .flat_map(|&protocol| [(protocol, false), (protocol, true)]);
            for ((protocol, event), universe) in combos.zip(universes) {
                let universe = if universe == FRESH {
                    FRESH + rng.below(1 << 20)
                } else {
                    universe
                };
                block.push((protocol, n, event, universe));
            }
        }
        rng.shuffle(&mut block);
        for (protocol, n, event, universe) in block {
            let id = format!("r{}", mix.len());
            mix.push(encode(
                protocol,
                n,
                event,
                universe,
                rng.word(12).into_bytes(),
                &id,
            )?);
        }
    }
    Ok(mix)
}

/// The set-up's warm-up: one sync `chain_fd` request per hot key
/// universe, so every set-up runs the same key distributions.
fn warmup(seed: u64, sh: &Shape) -> Result<Vec<(Request, String)>, String> {
    let mut rng = Rng::new(seed, "serve-warmup");
    let mut warm = Vec::new();
    for universe in 1..FRESH {
        for &n in sh.sizes {
            let id = format!("w{}", warm.len());
            let input = rng.word(12).into_bytes();
            warm.push(encode(Protocol::ChainFd, n, false, universe, input, &id)?);
        }
    }
    Ok(warm)
}

/// A decoded response must carry a report. Key-needing runs must be
/// backed by a full Fig. 1 key distribution. Unjittered runs must decide
/// the input at the closed-form message count; jittered runs may end in
/// a discovery, but never in silent disagreement.
fn check_response(
    req: &Request,
    report: &Result<FdRunReport, String>,
    keydist: Option<usize>,
    planted: bool,
) -> Result<(), String> {
    let report = report
        .as_ref()
        .map_err(|e| format!("error response: {e}"))?;
    if req.protocol.needs_keys() && keydist != Some(keydist_messages(req.n)) {
        return Err(format!(
            "{} n={}: keydist_messages {keydist:?}, expected 3n(n-1) = {}",
            req.protocol,
            req.n,
            keydist_messages(req.n)
        ));
    }
    if req.jitter {
        let outcomes = report.correct_outcomes();
        let agree = outcomes
            .first()
            .and_then(|o| o.decided())
            .is_some_and(|v| report.all_decided(v));
        if !(agree || report.any_discovery()) {
            return Err(format!(
                "{} n={} jittered: correct nodes disagree without a discovery",
                req.protocol, req.n
            ));
        }
        return Ok(());
    }
    let expected = req.protocol.expected_messages(req.n, req.t) + usize::from(planted);
    if !report.all_decided(&req.input) {
        return Err(format!(
            "{} n={}: not every node decided the input",
            req.protocol, req.n
        ));
    }
    if report.stats.messages_total != expected {
        return Err(format!(
            "{} n={}: {} messages, closed form says {expected}",
            req.protocol, req.n, report.stats.messages_total
        ));
    }
    Ok(())
}

/// One answered request, as a client saw it.
struct Answer {
    index: usize,
    latency_us: f64,
    line: String,
}

pub fn run(plan: &Plan, t0: Instant) -> Result<Outcome, String> {
    let sh = shape(plan.toy);
    let warm = warmup(plan.seed, &sh)?;
    let (requests, lines): (Vec<Request>, Vec<String>) =
        generate(plan.seed, &sh)?.into_iter().unzip();
    let mut tr = Tracer::new(plan.traced, t0);
    let mut checks = Checks::default();
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut summary = Vec::new();

    // Set-up: start the service and warm its hot key universes, one
    // request at a time. Timed `setups` times before the measured phase,
    // the last service serving it, and as often after it, so the median
    // spans the run (the host's speed drifts).
    let setup = |checks: &mut Checks| {
        let start = Instant::now();
        let service = FdService::start(ServiceConfig::default());
        let answers: Vec<String> = warm
            .iter()
            .map(|(_, line)| service.submit_line(line))
            .collect();
        let took = secs(start);
        for ((req, _), answer) in warm.iter().zip(&answers) {
            checks.op(wire::response_from_json(answer)
                .and_then(|r| check_response(req, &r.report, r.keydist_messages, false)));
        }
        (service, took)
    };
    let mut setup_s = Vec::new();
    let mut kept: Option<FdService> = None;
    for _ in 0..sh.setups {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let (service, took) = setup(&mut checks);
        setup_s.push(took);
        kept = Some(service);
    }
    let service = kept.expect("at least one set-up");

    // Measured phase: closed loop, each client sends its next request
    // when the previous one is answered.
    let next = AtomicUsize::new(0);
    let phase = Instant::now();
    let per_client: Vec<(Vec<Answer>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Tracer::new(plan.traced, t0);
                    let mut answers = Vec::new();
                    while secs(phase) < plan.seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(index) else { break };
                        let (reply, latency_us) = tr.op_as("op.request", index as u64, |tr| {
                            tr.timed("service.submit_line", |_| service.submit_line(line))
                        });
                        answers.push(Answer {
                            index,
                            latency_us,
                            line: reply,
                        });
                    }
                    (answers, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = secs(phase);
    let mut answers = Vec::new();
    for (mine, client_tr) in per_client {
        answers.extend(mine);
        tr.absorb(client_tr);
    }
    answers.sort_by_key(|a| a.index);
    let metrics_doc = service.metrics_json();
    service.shutdown();
    if !plan.traced {
        for _ in 0..sh.setups {
            let (service, took) = setup(&mut checks);
            setup_s.push(took);
            service.shutdown();
        }
    }

    // Check every answer; the traced pass also times the wire codec on
    // the same lines.
    let mut exec_ms = Vec::with_capacity(answers.len());
    let mut wait_ms = Vec::with_capacity(answers.len());
    let mut shard_counts: HashMap<usize, usize> = HashMap::new();
    let (mut keyed, mut reused) = (0usize, 0usize);
    for answer in &answers {
        let req = &requests[answer.index];
        let planted = !req.jitter && checks.plant(plan);
        let verdict = tr.op_as("op.wire", answer.index as u64, |tr| {
            if tr.is_on() {
                tr.span("wire.request_from_json", |_| {
                    wire::request_from_json(&lines[answer.index])
                })?;
            }
            let response = tr.span("wire.response_from_json", |_| {
                wire::response_from_json(&answer.line)
            })?;
            if let (true, Ok(report)) = (tr.is_on(), &response.report) {
                tr.span("wire.report_to_json", |_| wire::report_to_json(report));
            }
            exec_ms.push(response.wall_us as f64 / 1e3);
            wait_ms.push(answer.latency_us / 1e3 - response.wall_us as f64 / 1e3);
            *shard_counts.entry(response.shard).or_default() += 1;
            if req.protocol.needs_keys() {
                keyed += 1;
                reused += usize::from(response.keydist_reused);
            }
            check_response(req, &response.report, response.keydist_messages, planted)
        });
        checks.op(verdict);
    }
    if answers.is_empty() {
        return Err("no request was answered in the measured phase".to_string());
    }

    let latencies_ms: Vec<f64> = answers.iter().map(|a| a.latency_us / 1e3).collect();
    let tail = tail_percentile(latencies_ms.len());
    if !plan.traced {
        let rss = peak_rss_mb()?;
        values.insert("setup_s", median(&setup_s));
        values.insert("op_p50_ms", percentile(&latencies_ms, 50));
        values.insert("slow_ms", percentile(&latencies_ms, tail));
        values.insert("ops_per_s", answers.len() as f64 / elapsed);
        values.insert("peak_rss_mb", rss);
        summary.push(format!(
            "setup_s = {:.4} s (median of {} service starts before and after the run, each warming {} key universes)",
            median(&setup_s),
            setup_s.len(),
            warm.len()
        ));
        summary.push(format!(
            "serve_rps = {:.2} req/s ({} requests, {CLIENTS} closed-loop clients, {elapsed:.2} s)",
            answers.len() as f64 / elapsed,
            answers.len()
        ));
        summary.push(format!(
            "serve_p50_ms = {:.3} ms",
            percentile(&latencies_ms, 50)
        ));
        summary.push(format!(
            "serve_p{tail}_ms = {:.3} ms (highest percentile with at least ten samples above it)",
            percentile(&latencies_ms, tail)
        ));
        summary.push(format!("peak_rss_mb = {rss:.1} MB"));
        return Ok(Outcome {
            checks,
            values,
            summary,
            tracer: tr,
        });
    }

    // Fig. 1 key distribution at each size of the mix, checked against
    // its closed form.
    let scheme = scheme_by_name("tiny")?;
    let mut keydist_ms = 0.0;
    for &n in sh.sizes {
        let t = SpecBuilder::new(Protocol::ChainFd, n).resolved_t();
        let (kd, us) = tr.op("op.keydist", |tr| {
            tr.timed("localauth.setup_keydist", |_| {
                Cluster::new(n, t, scheme.clone(), 1).setup_keydist()
            })
        });
        keydist_ms = us / 1e3;
        let expected = keydist_messages(n);
        checks.op(if kd.stats.messages_total == expected {
            Ok(())
        } else {
            Err(format!(
                "keydist n={n}: {} messages, 3n(n-1) = {expected}",
                kd.stats.messages_total
            ))
        });
    }
    let largest = *sh.sizes.last().expect("the mix has sizes");
    values.insert("localauth.keydist_ms", keydist_ms);
    values.insert("localauth.messages", keydist_messages(largest) as f64);
    values.insert(
        "wire.request_decode_us",
        mean(&tr.durations_us("wire.request_from_json")),
    );
    values.insert(
        "wire.report_encode_us",
        mean(&tr.durations_us("wire.report_to_json")),
    );
    values.insert("service.exec_ms_p50", percentile(&exec_ms, 50));
    values.insert("service.exec_ms_p99", percentile(&exec_ms, tail));
    values.insert("service.wait_ms_p50", percentile(&wait_ms, 50));
    values.insert("service.wait_ms_p99", percentile(&wait_ms, tail));
    let busiest = shard_counts.values().copied().max().unwrap_or(0);
    values.insert(
        "service.busiest_shard_pct",
        100.0 * busiest as f64 / answers.len() as f64,
    );
    values.insert(
        "service.keydist_reuse_pct",
        100.0 * reused as f64 / keyed.max(1) as f64,
    );
    let doc = Value::parse(&metrics_doc)?;
    let svc = doc
        .get("service")
        .ok_or("metrics document has no service object")?;
    let evictions = svc
        .get("evictions")
        .and_then(Value::as_int)
        .ok_or("metrics: no evictions")?;
    let queue_peak = svc
        .get("queue_peak")
        .and_then(Value::as_arr)
        .and_then(|peaks| peaks.iter().filter_map(Value::as_int).max())
        .ok_or("metrics: no queue_peak")?;
    values.insert("service.evictions", evictions as f64);
    values.insert("service.queue_peak", queue_peak as f64);
    let mut shards: Vec<_> = shard_counts.into_iter().collect();
    shards.sort_unstable();
    summary.push(format!(
        "{} requests; responses per shard {shards:?}; keydist reuse {reused}/{keyed}; {evictions} evictions",
        answers.len()
    ));
    Ok(Outcome {
        checks,
        values,
        summary,
        tracer: tr,
    })
}
