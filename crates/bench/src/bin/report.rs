//! Regenerate every experiment table and figure of `EXPERIMENTS.md` as
//! markdown on stdout.
//!
//! ```sh
//! cargo run -p fd-bench --bin report            # everything
//! cargo run -p fd-bench --bin report -- t1 f1   # selected experiments
//! ```
//!
//! Timing-based figures (F2, F3) are covered by the Criterion benches; this
//! binary prints their deterministic companions (operation counts).

use fd_bench::{
    f1_amortization, f4_rotation, t10_wire_cost, t11_sweep, t12_large_n, t13_sched_search,
    t1_keydist, t2_fd_cost, t3_rounds, t5_small_range, t6_ba_cost, t7_agreement_costs,
    t8_fault_classes, t9_assumption_ablation,
};
use fd_core::adversary::{
    AdversaryKind, AdversarySpec, ChainFdAdversary, ChainMisbehavior, EquivocatingKeyDist,
    LaggardNode, OmissiveNode,
};
use fd_core::fd::ChainFdNode;
use fd_core::fd::ChainFdParams;
use fd_core::keys::KeyStore;
use fd_core::keys::Keyring;
use fd_core::props::check_fd;
use fd_core::runner::Cluster;
use fd_core::spec::{Protocol, RunSpec};
use fd_crypto::{RsaScheme, SchnorrScheme, SignatureScheme};
use fd_simnet::{Node, NodeId};
use std::sync::Arc;
use std::time::Instant;

const SIZES: &[usize] = &[4, 8, 16, 32, 48, 64];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |key: &str| args.is_empty() || args.iter().any(|a| a == key);

    println!("# local-auth-fd experiment report\n");
    println!(
        "Borcherding, \"Efficient Failure Discovery with Limited Authentication\" (ICDCS 1995)."
    );
    println!("All counts regenerated deterministically; formulas from the paper.\n");

    if want("t1") {
        t1();
    }
    if want("t2") {
        t2();
    }
    if want("f1") {
        f1();
    }
    if want("t3") {
        t3();
    }
    if want("t4") {
        t4();
    }
    if want("f2") {
        f2();
    }
    if want("f3") {
        f3();
    }
    if want("t5") {
        t5();
    }
    if want("t6") {
        t6();
    }
    if want("t7") {
        t7();
    }
    if want("t8") {
        t8();
    }
    if want("t9") {
        t9();
    }
    if want("t10") {
        t10();
    }
    if want("f4") {
        f4();
    }
    if want("t11") {
        t11();
    }
    if want("t12") {
        t12();
    }
    if want("t13") {
        t13();
    }
}

fn t13() {
    println!("## T13 — adversarial scheduler search (chain FD & Dolev–Strong BA)\n");
    println!(
        "`fd_core::schedsearch` hunts for the delivery schedule within the\n\
         `jitter:2` latency bounds that maximizes disagreement (silent >\n\
         loud > fallback > message anomaly), 40 episodes per search. Loud\n\
         findings are expected — timing faults are *discovered* — but no\n\
         schedule may ever produce silent disagreement.\n"
    );
    println!("| protocol | n | t | strategy | episodes | findings | worst schedule | msgs | silent | cert replay |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for row in t13_sched_search(&[16, 64], 40) {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            row.protocol,
            row.n,
            row.t,
            row.strategy,
            row.episodes,
            row.findings,
            row.best_score,
            row.best_messages,
            if row.silent_found {
                "**YES (BUG)**"
            } else {
                "never"
            },
            ok(row.replay_ok),
        );
    }
    println!();
}

fn t12() {
    println!("## T12 — large-n scaling, synchronous vs discrete-event engine\n");
    println!(
        "Chain FD on dealer stores (isolates run scaling from the 3n(n−1)\nkeydist); \
         both engines must agree on every count.\n"
    );
    println!("| n | t | engine | messages | n−1 | comm. rounds | all decided | wall clock |");
    println!("|---|---|---|---|---|---|---|---|");
    for row in t12_large_n(&[64, 256, 1024]) {
        println!(
            "| {} | {} | {} | {} {} | {} | {} | {} | {:.1} ms |",
            row.n,
            row.t,
            row.engine,
            row.messages,
            ok(row.messages == row.formula),
            row.formula,
            row.comm_rounds,
            ok(row.all_decided),
            row.micros as f64 / 1000.0,
        );
    }
    println!();
}

fn t11() {
    println!("## T11 — parallel scenario sweep (default `lafd sweep` matrix)\n");
    println!("| threads | scenarios | ok | total messages | report matches serial |");
    println!("|---|---|---|---|---|");
    for row in t11_sweep(&[1, 2, 4]) {
        println!(
            "| {} | {} | {} | {} | {} |",
            row.threads,
            row.scenarios,
            row.ok,
            row.messages_total,
            if row.matches_serial { "✓" } else { "✗" },
        );
    }
    println!();
}

fn t1() {
    println!("## T1 — key distribution cost (paper §3.1: 3n(n−1) messages, 3 rounds)\n");
    println!("| n | measured messages | 3n(n−1) | comm. rounds |");
    println!("|---|---|---|---|");
    for row in t1_keydist(SIZES) {
        let check = if row.measured == row.formula {
            "✓"
        } else {
            "✗"
        };
        println!(
            "| {} | {} {check} | {} | {} |",
            row.n, row.measured, row.formula, row.comm_rounds
        );
    }
    println!();
}

fn t2() {
    println!("## T2 — FD cost per run (paper §5: O(n) auth vs O(n·t) non-auth)\n");
    println!("| n | t | chain FD (auth) | n−1 | witness relay | (t+2)(n−1) | ratio |");
    println!("|---|---|---|---|---|---|---|");
    for row in t2_fd_cost(SIZES) {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.1}× |",
            row.n,
            row.t,
            row.auth_measured,
            row.auth_formula,
            row.non_auth_measured,
            row.non_auth_formula,
            row.non_auth_measured as f64 / row.auth_measured as f64,
        );
    }
    println!();
}

fn f1() {
    println!("## F1 — amortization of the one-time key distribution\n");
    for (n, t) in [(8usize, 2usize), (16, 5), (32, 10)] {
        let k_max = fd_core::metrics::amortization_crossover(n, t).unwrap() + 10;
        let (points, crossover) = f1_amortization(n, t, k_max);
        println!(
            "n = {n}, t = {t}: measured crossover after **{crossover}** runs \
             (analytic ≈ 3n/(t+1) = {:.1})\n",
            3.0 * n as f64 / (t as f64 + 1.0)
        );
        println!(
            "| runs k | cumulative auth (keydist + k·(n−1)) | cumulative non-auth (k·(t+2)(n−1)) |"
        );
        println!("|---|---|---|");
        for p in points
            .iter()
            .filter(|p| p.k == 1 || p.k % 5 == 0 || p.k == crossover)
        {
            let marker = if p.k == crossover {
                " **← crossover**"
            } else {
                ""
            };
            println!(
                "| {} | {} | {}{marker} |",
                p.k, p.cumulative_auth, p.cumulative_non_auth
            );
        }
        println!();
    }
}

fn t3() {
    println!("## T3 — communication rounds\n");
    println!("| protocol | measured | formula |");
    println!("|---|---|---|");
    for row in t3_rounds(10, 3) {
        println!(
            "| {} | {} | {} |",
            row.protocol, row.measured_rounds, row.formula_rounds
        );
    }
    println!();
}

fn t4() {
    println!("## T4 — property matrix (F1–F3 under every adversary; Theorems 2 & 4)\n");
    println!("| scenario | F1 | F2 | F3 | discovery | silent disagreement |");
    println!("|---|---|---|---|---|---|");

    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
    let (n, t) = (7usize, 2usize);

    type Scenario = (
        &'static str,
        Box<dyn Fn(u64) -> (Vec<fd_core::Outcome>, bool)>,
    );
    let sch = Arc::clone(&scheme);
    let chain_spec = || RunSpec::new(Protocol::ChainFd, b"v".to_vec());
    let scenarios: Vec<Scenario> = vec![
        (
            "honest run",
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed);
                let run = c.run(&chain_spec());
                (run.correct_outcomes(), true)
            }),
        ),
        (
            "silent chain relay",
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed);
                let run = c.run(
                    &chain_spec()
                        .with_adversary(AdversarySpec::scripted(AdversaryKind::SilentRelay)),
                );
                (run.correct_outcomes(), true)
            }),
        ),
        (
            "tampering relay",
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed);
                let run = c.run(&chain_spec().with_adversary(AdversarySpec::scripted_at(
                    AdversaryKind::TamperBody,
                    vec![NodeId(2)],
                )));
                (run.correct_outcomes(), true)
            }),
        ),
        (
            "partial dissemination by P_t",
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed);
                let s = Arc::clone(&c.scheme);
                let ring = c.keyring(NodeId(2));
                let adversary = AdversarySpec::custom(move |id| {
                    (id == NodeId(2)).then(|| {
                        Box::new(ChainFdAdversary::new(
                            NodeId(2),
                            ChainFdParams::new(n, t),
                            Arc::clone(&s),
                            ring.clone(),
                            ChainMisbehavior::PartialDissemination {
                                skip: vec![NodeId(5)],
                            },
                            None,
                        )) as Box<dyn Node>
                    })
                });
                let run = c.run(&chain_spec().with_adversary(adversary));
                (run.correct_outcomes(), true)
            }),
        ),
        (
            "key equivocation + signing (Thm 4)",
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::clone(&sch), seed);
                let s = Arc::clone(&c.scheme);
                let kd = c.run_key_distribution_with(&mut |id| {
                    (id == NodeId(2)).then(|| {
                        Box::new(EquivocatingKeyDist::new(
                            NodeId(2),
                            n,
                            Arc::clone(&s),
                            seed ^ 0xE0,
                            NodeId(4),
                        )) as Box<dyn Node>
                    })
                });
                let reference =
                    EquivocatingKeyDist::new(NodeId(2), n, Arc::clone(&s), seed ^ 0xE0, NodeId(4));
                let sk_a = reference.key_for(NodeId(0)).0.clone();
                let ring = Keyring::generate(s.as_ref(), NodeId(2), c.seed);
                let adversary = AdversarySpec::custom(move |id| {
                    (id == NodeId(2)).then(|| {
                        Box::new(ChainFdAdversary::new(
                            NodeId(2),
                            ChainFdParams::new(n, t),
                            Arc::clone(&s),
                            ring.clone(),
                            ChainMisbehavior::SignWithKey { sk: sk_a.clone() },
                            None,
                        )) as Box<dyn Node>
                    })
                });
                let run = c.run_with_keys(&chain_spec().with_adversary(adversary), Some(&kd));
                (run.correct_outcomes(), true)
            }),
        ),
    ];

    // Benign-fault wrappers around the honest relay automaton.
    let mut wrapped: Vec<Scenario> = Vec::new();
    for (name, kind) in [
        ("omissive relay (30%)", 0u8),
        ("laggard relay (1 round late)", 1u8),
    ] {
        wrapped.push((
            name,
            Box::new(move |seed| {
                let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed);
                let kd = c.setup_keydist();
                let scheme = Arc::clone(&c.scheme);
                let store = kd.stores[1]
                    .clone()
                    .unwrap_or_else(|| KeyStore::new(n, NodeId(1)));
                let ring = c.keyring(NodeId(1));
                let adversary = AdversarySpec::custom(move |id| {
                    (id == NodeId(1)).then(|| {
                        let honest = Box::new(ChainFdNode::new(
                            NodeId(1),
                            ChainFdParams::new(n, t),
                            Arc::clone(&scheme),
                            store.clone(),
                            ring.clone(),
                            None,
                        )) as Box<dyn Node>;
                        if kind == 0 {
                            Box::new(OmissiveNode::new(honest, seed, 300)) as Box<dyn Node>
                        } else {
                            Box::new(LaggardNode::new(honest)) as Box<dyn Node>
                        }
                    })
                });
                let run = c.run_with_keys(&chain_spec().with_adversary(adversary), Some(&kd));
                (run.correct_outcomes(), true)
            }),
        ));
    }
    let scenarios: Vec<Scenario> = scenarios.into_iter().chain(wrapped).collect();

    for (name, run_fn) in scenarios {
        let mut f1 = true;
        let mut f2 = true;
        let mut f3 = true;
        let mut any_disc = false;
        let mut silent_disagreement = false;
        for seed in 0..100u64 {
            let (outcomes, sender_correct) = run_fn(seed);
            let report = check_fd(&outcomes, sender_correct.then_some(&b"v"[..]));
            f1 &= report.f1_termination;
            f2 &= report.f2_agreement;
            f3 &= report.f3_validity;
            any_disc |= report.any_discovery;
            silent_disagreement |= !report.f2_agreement;
        }
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            ok(f1),
            ok(f2),
            ok(f3),
            if any_disc { "yes" } else { "no (fault-free)" },
            if silent_disagreement {
                "**YES (BUG)**"
            } else {
                "never"
            },
        );
    }
    println!("\n(100 seeds per scenario.)\n");
}

fn ok(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

fn f2() {
    println!("## F2 — signature scheme cost (paper cites DSA/RSA for S1–S3)\n");
    println!("| scheme | keygen | sign | verify |");
    println!("|---|---|---|---|");
    let schemes: Vec<Box<dyn SignatureScheme>> = vec![
        Box::new(SchnorrScheme::test_tiny()),
        Box::new(SchnorrScheme::s512()),
        Box::new(SchnorrScheme::s1024()),
        Box::new(fd_crypto::DsaScheme::s512()),
        Box::new(fd_crypto::DsaScheme::s1024()),
        Box::new(RsaScheme::new(512)),
        Box::new(RsaScheme::new(1024)),
    ];
    for s in schemes {
        let start = Instant::now();
        let (sk, pk) = s.keypair_from_seed(1);
        let keygen = start.elapsed();
        let start = Instant::now();
        let iterations = 20;
        let mut sig = s.sign(&sk, b"bench").unwrap();
        for _ in 1..iterations {
            sig = s.sign(&sk, b"bench").unwrap();
        }
        let sign = start.elapsed() / iterations;
        let start = Instant::now();
        for _ in 0..iterations {
            assert!(s.verify(&pk, b"bench", &sig));
        }
        let verify = start.elapsed() / iterations;
        println!(
            "| {} | {keygen:.2?} | {sign:.2?} | {verify:.2?} |",
            s.name()
        );
    }
    println!(
        "\n(Criterion benches `crypto.rs` give rigorous statistics; this is the quick view.)\n"
    );
}

fn f3() {
    use fd_core::fd::{ChainFdNode, ChainFdParams};
    use fd_core::keys::{KeyStore, Keyring};
    use fd_core::localauth::{KeyDistNode, KEYDIST_ROUNDS};
    use fd_simnet::transport::NbCluster;
    use fd_simnet::SyncNetwork;

    println!("## F3 — wall-clock per FD cycle, simulator vs socket mesh (single shot)\n");
    println!("| n | messages | simulator | mesh |");
    println!("|---|---|---|---|");
    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
    for n in [4usize, 8, 12] {
        let t = (n - 1) / 3;
        let mk_kd = |scheme: &Arc<dyn SignatureScheme>| -> Vec<Box<dyn Node>> {
            (0..n)
                .map(|i| {
                    let me = NodeId(i as u16);
                    let ring = Keyring::generate(scheme.as_ref(), me, 7);
                    Box::new(KeyDistNode::new(me, n, Arc::clone(scheme), ring, 7)) as Box<dyn Node>
                })
                .collect()
        };
        let stores: Vec<KeyStore> = {
            let mut net = SyncNetwork::new(mk_kd(&scheme));
            net.run_until_done(KEYDIST_ROUNDS);
            net.into_nodes()
                .into_iter()
                .map(|b| {
                    b.into_any()
                        .downcast::<KeyDistNode>()
                        .expect("KeyDistNode")
                        .into_parts()
                        .0
                })
                .collect()
        };
        let mk_fd = || -> Vec<Box<dyn Node>> {
            (0..n)
                .map(|i| {
                    let me = NodeId(i as u16);
                    Box::new(ChainFdNode::new(
                        me,
                        ChainFdParams::new(n, t),
                        Arc::clone(&scheme),
                        stores[i].clone(),
                        Keyring::generate(scheme.as_ref(), me, 7),
                        (i == 0).then(|| b"v".to_vec()),
                    )) as Box<dyn Node>
                })
                .collect()
        };
        let rounds = ChainFdParams::new(n, t).rounds();
        let (sim, sim_messages) = {
            let start = Instant::now();
            let mut net = SyncNetwork::new(mk_fd());
            net.run_until_done(rounds);
            (start.elapsed(), net.stats().messages_total)
        };
        let (mesh, mesh_messages) = {
            let start = Instant::now();
            let report = NbCluster::new(rounds).run(mk_fd());
            report.ok().expect("F3 mesh run");
            (start.elapsed(), report.stats.messages_total)
        };
        assert_eq!(sim_messages, mesh_messages, "F3: mesh diverged at n = {n}");
        println!("| {n} | {sim_messages} | {sim:.2?} | {mesh:.2?} |");
    }
    println!("\n(Criterion benches `transport.rs` give rigorous statistics; message counts are asserted identical on both executors.)\n");
}

fn t5() {
    println!("## T5 — small-value-range optimization (paper §5)\n");
    let (n, t) = (8usize, 2usize);
    println!("100-run workloads, n = {n}, t = {t}, default value `0`:\n");
    println!("| % default runs | small-range total msgs | chain-FD total msgs | winner |");
    println!("|---|---|---|---|");
    for row in t5_small_range(n, t) {
        let winner = if row.small_range_total < row.chain_fd_total {
            "small-range"
        } else {
            "chain FD"
        };
        println!(
            "| {}% | {} | {} | {} |",
            row.default_pct, row.small_range_total, row.chain_fd_total, winner
        );
    }
    println!();
}

fn t6() {
    println!("## T6 — BA extension cost in failure-free runs (paper §4)\n");
    println!("| n | t | FD→BA | chain FD | Dolev–Strong | BA at FD cost? |");
    println!("|---|---|---|---|---|---|");
    for row in t6_ba_cost(&[4, 7, 10, 13, 16]) {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            row.n,
            row.t,
            row.fd_to_ba,
            row.chain_fd,
            row.dolev_strong,
            ok(row.fd_to_ba == row.chain_fd)
        );
    }
    println!();
}

fn t7() {
    println!("## T7 — agreement-protocol lineup (failure-free cost; paper §7 extensions)\n");
    let (n, t) = (13usize, 3usize);
    println!("n = {n}, t = {t}:\n");
    println!("| protocol | auth | resilience | guarantee | messages | comm. rounds |");
    println!("|---|---|---|---|---|---|");
    for row in t7_agreement_costs(n, t) {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            row.protocol,
            if row.authenticated { "local" } else { "none" },
            row.resilience,
            row.guarantee,
            row.messages,
            row.comm_rounds
        );
    }
    println!();
}

fn t8() {
    println!("## T8 — fault-class hierarchy (crash ⊂ omission ⊂ timing ⊂ byzantine)\n");
    let (n, t, seeds) = (7usize, 2usize, 100u64);
    println!("Chain FD, n = {n}, t = {t}, faulty first relay, {seeds} seeds per class:\n");
    println!("| fault class | discovered | clean decide | silent disagreement |");
    println!("|---|---|---|---|");
    for row in t8_fault_classes(n, t, seeds) {
        println!(
            "| {} | {}/{} | {}/{} | {} |",
            row.fault_class,
            row.runs_discovered,
            row.runs,
            row.runs_all_decided,
            row.runs,
            if row.silent_disagreements == 0 {
                "never".to_string()
            } else {
                format!("**{} (BUG)**", row.silent_disagreements)
            }
        );
    }
    println!();
}

fn t9() {
    println!("## T9 — N1 assumption ablation (injected link faults)\n");
    let (n, t, seeds) = (7usize, 2usize, 100u64);
    println!("Chain FD, n = {n}, t = {t}, {seeds} seeds per kind; random (round, link) targets:\n");
    println!("| injected fault | per run | discovered | indistinguishable | silent disagreement |");
    println!("|---|---|---|---|---|");
    for row in t9_assumption_ablation(n, t, seeds) {
        println!(
            "| {} | {} | {}/{} | {}/{} | {} |",
            row.fault_kind,
            row.faults_per_run,
            row.runs_discovered,
            row.runs,
            row.runs_clean,
            row.runs,
            if row.silent_disagreements == 0 {
                "never".to_string()
            } else {
                format!("**{} (BUG)**", row.silent_disagreements)
            }
        );
    }
    println!("\n(\"Indistinguishable\" = the fault hit a link the protocol never used, or a\nduplicate was absorbed; the run is identical to a failure-free one.)\n");
}

fn t10() {
    println!("## T10 — wire cost across signature schemes (n = 8, t = 2)\n");
    println!("| scheme | pk bytes | sig bytes | keydist wire bytes | chain-FD wire bytes |");
    println!("|---|---|---|---|---|");
    let schemes: Vec<Arc<dyn SignatureScheme>> = vec![
        Arc::new(SchnorrScheme::test_tiny()),
        Arc::new(SchnorrScheme::s512()),
        Arc::new(fd_crypto::DsaScheme::s512()),
        Arc::new(RsaScheme::new(512)),
        Arc::new(RsaScheme::new(1024)),
    ];
    for row in t10_wire_cost(8, 2, schemes) {
        println!(
            "| {} | {} | {} | {} | {} |",
            row.scheme, row.pk_bytes, row.sig_bytes, row.keydist_bytes, row.chain_fd_bytes
        );
    }
    println!();
}

fn f4() {
    println!("## F4 — key-rotation policy (epoch length vs total cost)\n");
    let (n, t, total) = (8usize, 2usize, 30usize);
    let k_star = fd_core::metrics::amortization_crossover(n, t).unwrap();
    println!(
        "n = {n}, t = {t}, workload of {total} agreement rounds; F1 crossover k* = {k_star}:\n"
    );
    println!("| runs/epoch | rotations | total (rotated) | non-auth baseline | winner |");
    println!("|---|---|---|---|---|");
    for row in f4_rotation(n, t, total) {
        println!(
            "| {} | {} | {} | {} | {} |",
            row.runs_per_epoch,
            total / row.runs_per_epoch,
            row.rotated_total,
            row.non_auth_total,
            if row.rotated_total < row.non_auth_total {
                "rotated local auth"
            } else {
                "non-auth baseline"
            }
        );
    }
    println!("\nRotation pays for itself exactly when the epoch outlives the F1\ncrossover — re-keying more often than every k* runs burns the amortization\nthe paper's §6 argument rests on.\n");
}
