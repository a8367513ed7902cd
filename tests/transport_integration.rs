//! Transport-agnosticism: the same protocol automata produce the same
//! statistics and outcomes on the deterministic simulator and on the
//! nonblocking localhost TCP mesh.

use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::keys::{KeyStore, Keyring};
use local_auth_fd::core::localauth::{KeyDistNode, KEYDIST_ROUNDS};
use local_auth_fd::core::metrics;
use local_auth_fd::core::Outcome;
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::transport::NbCluster;
use local_auth_fd::simnet::{Node, NodeId, SyncNetwork};
use std::sync::Arc;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

fn keydist_nodes(n: usize, seed: u64) -> Vec<Box<dyn Node>> {
    let sch = scheme();
    (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            let ring = Keyring::generate(sch.as_ref(), me, seed);
            Box::new(KeyDistNode::new(me, n, Arc::clone(&sch), ring, seed)) as Box<dyn Node>
        })
        .collect()
}

fn extract_stores(nodes: Vec<Box<dyn Node>>) -> Vec<KeyStore> {
    nodes
        .into_iter()
        .map(|b| {
            let node = b.into_any().downcast::<KeyDistNode>().expect("KeyDistNode");
            node.into_parts().0
        })
        .collect()
}

fn chain_fd_nodes(
    n: usize,
    t: usize,
    seed: u64,
    stores: &[KeyStore],
    value: &[u8],
) -> Vec<Box<dyn Node>> {
    let sch = scheme();
    (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            Box::new(ChainFdNode::new(
                me,
                ChainFdParams::new(n, t),
                Arc::clone(&sch),
                stores[i].clone(),
                Keyring::generate(sch.as_ref(), me, seed),
                (i == 0).then(|| value.to_vec()),
            )) as Box<dyn Node>
        })
        .collect()
}

fn extract_outcomes(nodes: Vec<Box<dyn Node>>) -> Vec<Outcome> {
    nodes
        .into_iter()
        .map(|b| {
            b.into_any()
                .downcast::<ChainFdNode>()
                .expect("ChainFdNode")
                .outcome()
                .clone()
        })
        .collect()
}

#[test]
fn keydist_same_counts_on_all_transports() {
    let (n, seed) = (5usize, 71u64);

    let mut sim = SyncNetwork::new(keydist_nodes(n, seed));
    let sim_rounds = sim.run_until_done(KEYDIST_ROUNDS);

    let mesh = NbCluster::new(KEYDIST_ROUNDS).run(keydist_nodes(n, seed));
    assert!(mesh.ok().is_ok(), "{:?}", mesh.errors);

    assert_eq!(sim.stats().messages_total, metrics::keydist_messages(n));
    assert_eq!(&mesh.stats, sim.stats());
    assert_eq!(mesh.rounds, sim_rounds);

    // Stores agree across transports.
    let s_sim = extract_stores(sim.into_nodes());
    let s_mesh = extract_stores(mesh.nodes);
    for i in 0..n {
        for peer in NodeId::all(n) {
            assert_eq!(s_sim[i].accepted(peer), s_mesh[i].accepted(peer));
        }
    }
}

#[test]
fn chain_fd_same_outcomes_on_all_transports() {
    let (n, t, seed) = (6usize, 2usize, 73u64);
    // Key distribution once, on the simulator.
    let mut sim = SyncNetwork::new(keydist_nodes(n, seed));
    sim.run_until_done(KEYDIST_ROUNDS);
    let stores = extract_stores(sim.into_nodes());

    let rounds = ChainFdParams::new(n, t).rounds();
    let mut sim_fd = SyncNetwork::new(chain_fd_nodes(n, t, seed, &stores, b"v"));
    sim_fd.run_until_done(rounds);
    let sim_stats = sim_fd.stats().clone();
    let sim_out = extract_outcomes(sim_fd.into_nodes());

    let mesh = NbCluster::new(rounds).run(chain_fd_nodes(n, t, seed, &stores, b"v"));
    assert!(mesh.ok().is_ok(), "{:?}", mesh.errors);

    assert_eq!(sim_stats.messages_total, n - 1);
    assert_eq!(mesh.stats, sim_stats);
    assert_eq!(extract_outcomes(mesh.nodes), sim_out);
    for o in sim_out {
        assert_eq!(o, Outcome::Decided(b"v".to_vec()));
    }
}

#[test]
fn tcp_cluster_scales_to_a_dozen_nodes() {
    let (n, seed) = (12usize, 79u64);
    let mesh = NbCluster::new(KEYDIST_ROUNDS).run(keydist_nodes(n, seed));
    assert!(mesh.ok().is_ok(), "{:?}", mesh.errors);
    assert_eq!(mesh.stats.messages_total, metrics::keydist_messages(n));
    let stores = extract_stores(mesh.nodes);
    for s in &stores {
        assert_eq!(s.accepted_count(), n);
    }
}
