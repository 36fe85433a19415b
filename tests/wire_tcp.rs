//! The TCP deployment (esds-wire) end to end: framed binary protocol over
//! real sockets, driving the same replica state machines as the simulator.

use std::time::Duration;

use esds::core::OpId;
use esds::datatypes::{Bank, BankOp, BankValue, Queue, QueueOp, QueueValue};
use esds::wire::{TcpCluster, TcpClusterConfig};

#[test]
fn bank_strict_withdrawals_over_sockets() {
    let mut cluster = TcpCluster::launch(Bank, TcpClusterConfig::new(3));
    let mut east = cluster.client();
    let mut west = cluster.client();

    let mut deposits = Vec::new();
    for _ in 0..5 {
        deposits.push(east.submit(BankOp::Deposit(20), &[], false));
    }
    for id in &deposits {
        assert_eq!(
            east.await_response(*id, Duration::from_secs(10)),
            Some(BankValue::Ack)
        );
    }

    // Racing strict withdrawals of 60 from a 100 balance: exactly one fits
    // twice, so of the two 60-withdrawals exactly one is admitted.
    let we = east.submit(BankOp::Withdraw(60), &deposits, true);
    let ww = west.submit(BankOp::Withdraw(60), &deposits, true);
    let ve = east
        .await_response(we, Duration::from_secs(30))
        .expect("east answered");
    let vw = west
        .await_response(ww, Duration::from_secs(30))
        .expect("west answered");
    let admitted = [&ve, &vw]
        .iter()
        .filter(|v| matches!(v, BankValue::Withdrawn(true)))
        .count();
    assert_eq!(admitted, 1, "east={ve:?} west={vw:?}");

    let reps = cluster.shutdown();
    let states: Vec<u64> = reps.iter().map(|r| r.current_state()).collect();
    assert!(states.iter().all(|s| *s == 40), "diverged: {states:?}");
}

#[test]
fn queue_prev_chain_over_sockets_with_batched_gossip() {
    let mut cluster = TcpCluster::launch(Queue, TcpClusterConfig::new(2));
    let mut producer = cluster.client();
    let mut consumer = cluster.client();

    // A produce chain: each enqueue depends on the previous one, so every
    // replica applies them in FIFO order.
    let mut chain: Vec<OpId> = Vec::new();
    for i in 0..4 {
        let prev: Vec<OpId> = chain.last().copied().into_iter().collect();
        chain.push(producer.submit(QueueOp::Enqueue(i), &prev, false));
    }
    for id in &chain {
        assert_eq!(
            producer.await_response(*id, Duration::from_secs(10)),
            Some(QueueValue::Ack)
        );
    }

    // A strict dequeue pinned after the chain pops the first element —
    // in the eventual order, exactly item 0.
    let deq = consumer.submit(QueueOp::Dequeue, &chain, true);
    assert_eq!(
        consumer.await_response(deq, Duration::from_secs(30)),
        Some(QueueValue::Item(Some(0)))
    );

    let reps = cluster.shutdown();
    let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "diverged: {states:?}"
    );
    let want: std::collections::VecDeque<i64> = vec![1, 2, 3].into();
    assert_eq!(states[0], want);
}
