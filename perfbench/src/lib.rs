//! The repository benchmark of local-auth-fd.
//!
//! Four workloads, each run in a process of its own: `chain-large` and
//! `ds-event` drive the in-process engines on dealer keys, `serve-mixed`
//! drives the session service with a seeded request mix, and
//! `cluster-local` launches the `lafd` binary as a multi-process
//! cluster. An untraced pass yields the end-to-end metrics; a traced
//! pass times every call the benchmark makes into a layer and reads the
//! counters the program already exposes. `README.md` in this directory
//! explains the workloads and which layer metric moves which end-to-end
//! metric.

pub mod cluster;
pub mod engines;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them from its
/// untraced pass. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("slow_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named after the program's modules. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("keys.dealer_ms", "ms"),
    ("keys.table_ms", "ms"),
    ("keys.materialize_ms", "ms"),
    ("keys.release_ms", "ms"),
    ("keys.distinct_allocs", "count"),
    ("keys.cache_hits", "count"),
    ("keys.cache_misses", "count"),
    ("keys.cache_hit_pct", "%"),
    ("crypto.verify_ms", "ms"),
    ("runner.run_ms", "ms"),
    ("runner.keyrings_ms", "ms"),
    ("runner.report_ms", "ms"),
    ("runner.drive_ms", "ms"),
    ("simnet.rounds_ms", "ms"),
    ("simnet.ring_enqueued", "count"),
    ("simnet.heap_enqueued", "count"),
    ("simnet.arena_hwm", "count"),
    ("simnet.max_queue_depth", "count"),
    ("simnet.messages", "count"),
    ("simnet.bytes", "count"),
    ("simnet.comm_rounds", "count"),
    ("localauth.keydist_ms", "ms"),
    ("localauth.messages", "count"),
    ("wire.request_decode_us", "us"),
    ("wire.report_encode_us", "us"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p99", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p99", "ms"),
    ("service.busiest_shard_pct", "%"),
    ("service.keydist_reuse_pct", "%"),
    ("service.evictions", "count"),
    ("service.queue_peak", "count"),
    ("deploy.inproc_ms", "ms"),
    ("deploy.overhead_ms", "ms"),
    ("deploy.spawn_ms", "ms"),
    ("deploy.generations", "count"),
    ("transport.retries", "count"),
    ("chaos.faults_fired", "count"),
    ("obs.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChainLarge,
    DsEvent,
    ServeMixed,
    ClusterLocal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChainLarge,
        Workload::DsEvent,
        Workload::ServeMixed,
        Workload::ClusterLocal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainLarge => "chain-large",
            Workload::DsEvent => "ds-event",
            Workload::ServeMixed => "serve-mixed",
            Workload::ClusterLocal => "cluster-local",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))
    }
}

/// What one benchmark process runs.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    /// Workload seed: every input the program receives derives from it.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Toy sizes, for the self-test.
    pub toy: bool,
    /// Self-test only: plant one wrong expectation, which the checks must
    /// count as a failed operation.
    pub plant_wrong: bool,
    /// The `lafd` binary (cluster workload only).
    pub lafd: Option<PathBuf>,
}

/// Per-operation correctness accounting.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
    planted: bool,
}

impl Checks {
    /// Count one checked operation.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(e);
            }
        }
    }

    /// Whether this operation should carry the planted wrong
    /// expectation: true once per run, when the plan asks for it.
    pub fn plant(&mut self, plan: &Plan) -> bool {
        let plant = plan.plant_wrong && !self.planted;
        self.planted |= plant;
        plant
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    /// Metric values by name; the traced pass may leave layers it does
    /// not exercise unset (they read 0).
    pub values: HashMap<&'static str, f64>,
    /// Human-readable lines, in the names the workload's own metrics
    /// carry (`run_s`, `serve_p99_ms`, ...), with sample counts.
    pub summary: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    /// The metrics the run reports, in list order, with their units.
    pub fn metrics(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if value.is_finite() {
                    Ok((name, value, unit))
                } else {
                    Err(format!("metric {name} is not a finite number"))
                }
            })
            .collect()
    }
}

/// Run one workload.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let t0 = Instant::now();
    match plan.workload {
        Workload::ChainLarge | Workload::DsEvent => engines::run(plan, t0),
        Workload::ServeMixed => serve::run(plan, t0),
        Workload::ClusterLocal => cluster::run(plan, t0),
    }
}

/// Deterministic input generator (SplitMix64), one stream per purpose so
/// that changing how many values one stream draws leaves the others
/// alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in stream.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `len` lowercase letters and digits.
    pub fn word(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| char::from(ALPHABET[self.below(ALPHABET.len() as u64) as usize]))
            .collect()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds elapsed since `start`, as a float.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
