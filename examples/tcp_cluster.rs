//! A real TCP deployment: replica servers on localhost sockets, framed
//! binary wire protocol, gossip over long-lived peer connections — the
//! reproduction's analogue of Cheiner's MPI-on-workstations system
//! (paper §11.1).
//!
//! The replicas here run the *same* state machines as the simulator and
//! the threaded runtime; only the transport differs. The example runs a
//! small directory-service workload (the paper's §11.2 application) over
//! three replica processes' worth of sockets, once with the paper's full
//! snapshot gossip and once with the default batched exchange (§10.2 +
//! §10.4).
//!
//! Run with `cargo run --example tcp_cluster`.

use std::time::Duration;

use esds::alg::GossipStrategy;
use esds::datatypes::{Directory, DirectoryOp, DirectoryValue};
use esds::wire::{TcpCluster, TcpClusterConfig};

fn main() {
    for (name, gossip) in [
        ("full snapshot", GossipStrategy::Full),
        ("batched", GossipStrategy::Batched),
    ] {
        let mut config = TcpClusterConfig::new(3);
        config.replica = config.replica.with_gossip(gossip);
        println!("--- launching 3-replica TCP cluster ({name} gossip) ---");
        run_directory_workload(config);
    }
}

fn run_directory_workload(config: TcpClusterConfig) {
    let mut cluster = TcpCluster::launch(Directory, config);
    println!(
        "replicas listening on {:?}",
        cluster.addrs().iter().map(|a| a.port()).collect::<Vec<_>>()
    );

    let mut admin = cluster.client();
    let mut user = cluster.client();

    // The §11.2 idiom: attribute writes carry the name-creation operation
    // in their prev set, so no replica ever applies them out of order.
    let create = admin.submit(DirectoryOp::create("mail.example.org"), &[], false);
    let set_a = admin.submit(
        DirectoryOp::set_attr("mail.example.org", "A", "203.0.113.25"),
        &[create],
        false,
    );
    let set_mx = admin.submit(
        DirectoryOp::set_attr("mail.example.org", "MX", "10"),
        &[create],
        false,
    );
    for id in [create, set_a, set_mx] {
        admin
            .await_response(id, Duration::from_secs(10))
            .expect("admin op answered");
    }
    println!("admin: created name and set A/MX attributes (nonstrict, causal prev)");

    // Another client reads through a different replica. A nonstrict read
    // with the causal prev is answered as soon as gossip delivers the
    // writes to its replica.
    let lookup = user.submit(
        DirectoryOp::Lookup {
            name: "mail.example.org".into(),
            attr: "A".into(),
        },
        &[set_a],
        false,
    );
    let got = user
        .await_response(lookup, Duration::from_secs(10))
        .expect("lookup answered");
    assert_eq!(got, DirectoryValue::Attr(Some("203.0.113.25".into())));
    println!("user: causal lookup of A record → 203.0.113.25");

    // A strict listing is consistent with the eventual total order.
    let listing = user.submit(DirectoryOp::ListNames, &[create], true);
    let got = user
        .await_response(listing, Duration::from_secs(30))
        .expect("strict listing answered");
    assert_eq!(got, DirectoryValue::Names(vec!["mail.example.org".into()]));
    println!("user: strict ListNames → [mail.example.org]");

    let reps = cluster.shutdown();
    let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
    assert!(states.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    println!("cluster shut down; all {} replicas converged\n", reps.len());
}
