//! `cluster-local`: sequential `lafd cluster chain -n 8` launches, each
//! a registry plus n worker processes over the non-blocking socket mesh,
//! alternating clean launches with launches whose chaos plan kills
//! worker 2 in round 1, which the supervisor heals with one restart.
//! The only workload that runs `deploy`, the transport and the
//! supervisor.

use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{peak_rss_mb, secs, Checks, Outcome, Plan, Rng};
use local_auth_fd::core::metrics::keydist_messages;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

struct Shape {
    n: usize,
    /// Distinct launch specs; launch i uses spec i mod `specs`.
    specs: usize,
    setups: usize,
}

fn shape(toy: bool) -> Shape {
    if toy {
        Shape {
            n: 4,
            specs: 2,
            setups: 2,
        }
    } else {
        Shape {
            n: 8,
            specs: 32,
            setups: 7,
        }
    }
}

const T: usize = 1;

/// One launch spec and the report the in-process engine gives for it.
struct LaunchSpec {
    seed: u64,
    value: String,
    expected: String,
}

fn builder(n: usize, seed: u64, value: &str) -> SpecBuilder {
    // The same defaults `lafd cluster` applies to the flags it is given.
    SpecBuilder::new(Protocol::ChainFd, n)
        .with_t(T)
        .with_seed(seed)
        .with_input(value.as_bytes().to_vec())
        .with_default_value(b"default".to_vec())
}

/// The in-process report of a launch spec, key distribution included.
fn in_process(n: usize, seed: u64, value: &str) -> Result<String, String> {
    let (cluster, spec) = builder(n, seed, value).build()?;
    Ok(cluster.run(&spec).to_json())
}

/// What one launch printed, parsed.
struct Launch {
    wall_ms: f64,
    kill: bool,
    generations: u64,
    retries: u64,
    chaos_lines: usize,
}

fn launch(
    lafd: &Path,
    n: usize,
    spec: &LaunchSpec,
    chaos: Option<String>,
    planted: bool,
) -> Result<Launch, String> {
    let mut cmd = Command::new(lafd);
    cmd.args([
        "cluster",
        "chain",
        "-n",
        &n.to_string(),
        "--t",
        &T.to_string(),
    ])
    .args(["--seed", &spec.seed.to_string(), "--value", &spec.value]);
    let kill = chaos.is_some();
    if let Some(chaos) = chaos {
        cmd.args(["--chaos", &chaos]);
    }
    cmd.stdin(Stdio::null());
    let start = Instant::now();
    // Waits for the launcher and reads its pipes to the end, which the
    // worker processes share, so every process of the launch is gone.
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", lafd.display()))?;
    let wall_ms = secs(start) * 1e3;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "lafd cluster exited with {}: {}",
            out.status,
            stderr.lines().last().unwrap_or("")
        ));
    }
    let report = stdout.lines().last().unwrap_or("");
    let expected = if planted {
        format!("{} ", spec.expected)
    } else {
        spec.expected.clone()
    };
    if report != expected {
        return Err(format!(
            "cluster report differs from the in-process report: {report}"
        ));
    }
    let kd_line = format!("key distribution: {} messages,", keydist_messages(n));
    if !stdout.lines().any(|l| l.starts_with(&kd_line)) {
        return Err(format!(
            "no '{kd_line}' line: key distribution off its closed form"
        ));
    }
    let resilience = stdout
        .lines()
        .find_map(|l| l.strip_prefix("resilience: "))
        .ok_or("no resilience line")?;
    let field = |key: &str| -> Result<u64, String> {
        resilience
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .ok_or(format!("resilience line lacks {key}"))
    };
    let generations = field("generations=")?;
    let retries = field("retries=")?;
    if !resilience.contains("degraded=false") {
        return Err(format!("launch degraded: {resilience}"));
    }
    // Workers share the launcher's stderr and may tear each other's
    // lines, so a chaos event is counted wherever it starts.
    let chaos_lines = stdout.matches("chaos[node=").count() + stderr.matches("chaos[node=").count();
    let want_generations = if kill { 2 } else { 1 };
    if generations != want_generations || (kill && chaos_lines == 0) {
        return Err(format!(
            "{} launch took {generations} generations with {chaos_lines} chaos events",
            if kill { "kill" } else { "clean" }
        ));
    }
    Ok(Launch {
        wall_ms,
        kill,
        generations,
        retries,
        chaos_lines,
    })
}

/// Launch and reap n + 1 copies of `lafd` that exit at once (no
/// subcommand): the bare process cost of one cluster launch.
fn spawn_probe(lafd: &Path, n: usize) -> Result<(), String> {
    let children: Vec<_> = (0..=n)
        .map(|_| {
            Command::new(lafd)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("spawn {}: {e}", lafd.display()))?;
    for mut child in children {
        child.wait().map_err(|e| format!("wait: {e}"))?;
    }
    Ok(())
}

pub fn run(plan: &Plan, t0: Instant) -> Result<Outcome, String> {
    let sh = shape(plan.toy);
    let lafd = plan
        .lafd
        .as_deref()
        .ok_or("the cluster workload needs the lafd binary")?;
    let mut rng = Rng::new(plan.seed, "cluster-specs");
    let drawn: Vec<(u64, String)> = (0..sh.specs)
        .map(|_| (rng.below(1 << 32), rng.word(12)))
        .collect();
    let mut chaos_rng = Rng::new(plan.seed, "cluster-chaos");
    let mut tr = Tracer::new(plan.traced, t0);
    let mut checks = Checks::default();
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut summary = Vec::new();

    // Set-up: the in-process reference report of every launch spec,
    // which each launch's output must match byte for byte. Timed
    // `setups` times before the launches and once more every 32 launches,
    // so the median spans the run (the host's speed drifts).
    let prepare = || {
        drawn
            .iter()
            .map(|(seed, value)| {
                Ok(LaunchSpec {
                    seed: *seed,
                    value: value.clone(),
                    expected: in_process(sh.n, *seed, value)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let mut setup_s = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..sh.setups {
        let start = Instant::now();
        specs = prepare()?;
        setup_s.push(secs(start));
    }

    let mut launches: Vec<Launch> = Vec::new();
    let mut inproc_ms = Vec::new();
    let phase = Instant::now();
    let mut retimed_s = 0.0;
    let mut i = 0usize;
    // At least one clean and one kill launch, then until time is up.
    while i < 2 || secs(phase) - retimed_s < plan.seconds {
        if !plan.traced && i % 32 == 31 {
            let start = Instant::now();
            prepare()?;
            setup_s.push(secs(start));
            retimed_s += secs(start);
        }
        let spec = &specs[i % specs.len()];
        let chaos =
            (i % 2 == 1).then(|| format!("seed={};kill=2@round:1", chaos_rng.below(1 << 32)));
        let planted = checks.plant(plan);
        let result = tr.op("op.launch", |tr| {
            let launched = tr.span("deploy.lafd_cluster", |_| {
                launch(lafd, sh.n, spec, chaos, planted)
            });
            if tr.is_on() {
                let (report, us) = tr.timed("deploy.in_process", |_| {
                    in_process(sh.n, spec.seed, &spec.value)
                });
                inproc_ms.push(us / 1e3);
                if report? != spec.expected {
                    return Err("in-process report is not deterministic".to_string());
                }
                tr.span("deploy.spawn_probe", |_| spawn_probe(lafd, sh.n))?;
            }
            launched
        });
        match result {
            Ok(l) => {
                checks.op(Ok(()));
                launches.push(l);
            }
            Err(e) => checks.op(Err(e)),
        }
        i += 1;
    }
    let elapsed = secs(phase) - retimed_s;

    let clean: Vec<f64> = launches
        .iter()
        .filter(|l| !l.kill)
        .map(|l| l.wall_ms)
        .collect();
    let killed: Vec<&Launch> = launches.iter().filter(|l| l.kill).collect();
    let kill_ms: Vec<f64> = killed.iter().map(|l| l.wall_ms).collect();
    if !plan.traced {
        let rss = peak_rss_mb()?;
        values.insert("setup_s", median(&setup_s));
        values.insert("op_p50_ms", median(&clean));
        values.insert("slow_ms", median(&kill_ms));
        values.insert("ops_per_s", launches.len() as f64 / elapsed);
        values.insert("peak_rss_mb", rss);
        summary.push(format!(
            "setup_s = {:.4} s (median of {} preparations of {} in-process reference reports, before and during the launches)",
            median(&setup_s),
            setup_s.len(),
            sh.specs
        ));
        summary.push(format!(
            "cluster_run_ms = {:.2} ms (median of {} clean launches)",
            median(&clean),
            clean.len()
        ));
        summary.push(format!(
            "cluster_recover_ms = {:.2} ms (median of {} launches with a chaos kill)",
            median(&kill_ms),
            kill_ms.len()
        ));
        summary.push(format!("peak_rss_mb = {rss:.1} MB (the benchmark process)"));
        return Ok(Outcome {
            checks,
            values,
            summary,
            tracer: tr,
        });
    }

    let inproc = median(&inproc_ms);
    values.insert("deploy.inproc_ms", inproc);
    values.insert("deploy.overhead_ms", median(&clean) - inproc);
    values.insert(
        "deploy.spawn_ms",
        median(&tr.durations_us("deploy.spawn_probe")) / 1e3,
    );
    values.insert(
        "deploy.generations",
        mean(
            &killed
                .iter()
                .map(|l| l.generations as f64)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert(
        "transport.retries",
        mean(
            &launches
                .iter()
                .map(|l| l.retries as f64)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert(
        "chaos.faults_fired",
        mean(
            &killed
                .iter()
                .map(|l| l.chaos_lines as f64)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert("localauth.messages", keydist_messages(sh.n) as f64);
    summary.push(format!(
        "{} launches: clean median {:.2} ms, in-process {inproc:.2} ms, kill median {:.2} ms",
        launches.len(),
        median(&clean),
        median(&kill_ms)
    ));
    Ok(Outcome {
        checks,
        values,
        summary,
        tracer: tr,
    })
}
