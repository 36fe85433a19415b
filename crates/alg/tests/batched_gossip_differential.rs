//! Differential property test: `GossipStrategy::Batched` is observably
//! identical to the paper's full-snapshot gossip.
//!
//! The batched protocol (delta descriptors pruned by the `IdSummary`
//! watermark handshake, `done`/`stable` as summaries diffed at the
//! receiver, delta labels) is a *wire-level* optimization: a delivered
//! batched exchange must leave the receiver in exactly the state a full
//! `(R, D, L, S)` snapshot from the same sender would have. This suite
//! checks that black-box, Vbox-style, on random workloads and partition
//! schedules:
//!
//! 1. **Lockstep equivalence** (batch interval 1): running the *same*
//!    random schedule of requests, gossip rounds, and partitions under
//!    `Full` and under `Batched` produces identical response sequences
//!    (ids *and* values, in order), identical final local orders,
//!    identical stable-everywhere prefixes, and identical object states.
//! 2. **Eventual equivalence** (batch interval > 1): pacing changes what
//!    each replica knows *when* (so nonstrict response values may
//!    legitimately differ), but every request is still answered and all
//!    replicas of the batched run converge to one order and state.
//! 3. **Equivalence on faulty channels**: the same schedule with gossip
//!    messages lost, duplicated and delivered a round late (overtaken by
//!    newer ones), plus optionally one replica crashing and recovering,
//!    drawn identically for both runs. Every batch is self-contained, so
//!    the batched run still matches `Full` response for response, and no
//!    replica ever holds an operation done (anywhere) without holding its
//!    descriptor and label.
//!
//! The acceptance bar for this suite is ≥ 256 cases (`PROPTEST_CASES`;
//! CI runs it at 512).

use esds_alg::{GossipEnvelope, GossipStrategy, Replica, ReplicaConfig};
use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId, SerialDataType};
use proptest::prelude::*;

/// Minimal counter data type (kept local so the test exercises `esds-alg`
/// alone).
#[derive(Clone, Copy, Debug)]
struct Ctr;
#[derive(Clone, PartialEq, Eq, Debug)]
enum Op {
    Inc(i64),
    Read,
}
impl SerialDataType for Ctr {
    type State = i64;
    type Operator = Op;
    type Value = i64;
    fn initial_state(&self) -> i64 {
        0
    }
    fn apply(&self, s: &i64, op: &Op) -> (i64, i64) {
        match op {
            Op::Inc(d) => (s + d, s + d),
            Op::Read => (*s, *s),
        }
    }
}

const N: usize = 3;

/// One step of the random schedule.
#[derive(Clone, Debug)]
struct Step {
    /// Replica receiving the request.
    target: usize,
    /// Increment amount (reads ignore it).
    amount: i64,
    /// Submit a read instead of an increment.
    read: bool,
    /// Make the request strict.
    strict: bool,
    /// Constrain the request after the previously submitted one.
    chain_prev: bool,
    /// Run a gossip round after the request.
    gossip_after: bool,
    /// Partition pattern for that round: 0 = none, 1..=3 = isolate
    /// replica `partition - 1` (no gossip to or from it).
    partition: u8,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0..N as u32, 1..5i64, 0..4u8, 0..5u8, 0..3u8, 0..2u8, 0..4u8).prop_map(
        |(t, a, r, s, c, g, p)| Step {
            target: t as usize,
            amount: a,
            read: r == 0,
            strict: s == 0,
            chain_prev: c == 0,
            gossip_after: g == 0,
            partition: p,
        },
    )
}

/// Whether gossip `from → to` is blocked by the round's partition
/// pattern.
fn blocked(partition: u8, from: usize, to: usize) -> bool {
    match partition {
        0 => false,
        p => {
            let isolated = (p - 1) as usize;
            from == isolated || to == isolated
        }
    }
}

/// One full gossip round among non-partitioned pairs. `batched` drives
/// `poll_gossip` (the batched wire contract); otherwise the snapshot
/// path. Returns the response effects in a deterministic (from, to)
/// order.
fn gossip_round(reps: &mut [Replica<Ctr>], partition: u8, batched: bool) -> Vec<(OpId, i64)> {
    let mut responses = Vec::new();
    for from in 0..N {
        for to in 0..N {
            if from == to || blocked(partition, from, to) {
                continue;
            }
            let effects = if batched {
                match reps[from].poll_gossip(ReplicaId(to as u32)) {
                    Some(env) => reps[to].on_gossip_envelope(env),
                    None => Vec::new(),
                }
            } else {
                let g = reps[from].make_gossip(ReplicaId(to as u32));
                reps[to].on_gossip(g)
            };
            responses.extend(effects.into_iter().map(|e| (e.msg.id, e.msg.value)));
        }
    }
    responses
}

/// Runs the schedule under one configuration and returns every observable:
/// the response sequence, each replica's final order and state, and the
/// stable-everywhere prefix of replica 0's order.
#[allow(clippy::type_complexity)]
fn run_schedule(
    cfg: ReplicaConfig,
    steps: &[Step],
    batched: bool,
) -> (Vec<(OpId, i64)>, Vec<Vec<OpId>>, Vec<i64>, Vec<OpId>) {
    let mut reps: Vec<Replica<Ctr>> = (0..N)
        .map(|i| Replica::new(Ctr, ReplicaId(i as u32), N, cfg))
        .collect();
    let mut responses: Vec<(OpId, i64)> = Vec::new();
    let mut last: Option<OpId> = None;
    for (seq, s) in steps.iter().enumerate() {
        let id = OpId::new(ClientId(s.target as u32), seq as u64);
        let op = if s.read { Op::Read } else { Op::Inc(s.amount) };
        let mut desc = OpDescriptor::new(id, op).with_strict(s.strict);
        // A prev constraint must target an operation the receiving
        // replica can eventually learn; any earlier submission works.
        if s.chain_prev {
            if let Some(p) = last {
                desc = desc.with_prev([p]);
            }
        }
        last = Some(id);
        responses.extend(
            reps[s.target]
                .on_request(desc)
                .into_iter()
                .map(|e| (e.msg.id, e.msg.value)),
        );
        if s.gossip_after {
            responses.extend(gossip_round(&mut reps, s.partition, batched));
        }
    }
    // Drain: enough unpartitioned rounds for every op to be done,
    // answered, and stable everywhere (each round is a full exchange;
    // three rounds propagate knowledge-of-knowledge-of-knowledge).
    for _ in 0..5 {
        responses.extend(gossip_round(&mut reps, 0, batched));
    }
    let orders: Vec<Vec<OpId>> = reps.iter().map(|r| r.local_order()).collect();
    let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
    let stable_prefix: Vec<OpId> = reps[0]
        .local_order()
        .into_iter()
        .filter(|x| reps[0].stable_everywhere().contains(x))
        .collect();
    (responses, orders, states, stable_prefix)
}

fn full_config() -> ReplicaConfig {
    ReplicaConfig::default().with_gossip(GossipStrategy::Full)
}

/// SplitMix64: the fault schedule, replayed identically for both runs.
struct Faults(u64);

impl Faults {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Every replica's done sets name only operations it holds with a label.
fn assert_done_is_held_and_labeled(reps: &[Replica<Ctr>]) {
    for r in reps {
        for i in 0..N as u32 {
            for x in r.done(ReplicaId(i)) {
                assert!(
                    r.labels().is_labeled(*x) && r.rcvd().contains_key(x),
                    "replica {} holds {x} done at {i} without its descriptor and label",
                    r.id()
                );
            }
        }
    }
}

/// A network that drops, duplicates and delays gossip by a round.
struct FaultyNet {
    faults: Faults,
    /// Messages held back a round, as `(to, message)`.
    late: Vec<(usize, GossipEnvelope<Op>)>,
}

impl FaultyNet {
    fn deliver(
        reps: &mut [Replica<Ctr>],
        to: usize,
        env: GossipEnvelope<Op>,
        out: &mut Vec<(OpId, i64)>,
    ) {
        let fx = reps[to].on_gossip_envelope(env);
        out.extend(fx.into_iter().map(|e| (e.msg.id, e.msg.value)));
        assert_done_is_held_and_labeled(reps);
    }

    /// One gossip round: every message sent now meets its fate, then last
    /// round's late messages arrive behind this round's.
    fn round(&mut self, reps: &mut [Replica<Ctr>], lossy: bool) -> Vec<(OpId, i64)> {
        let mut out = Vec::new();
        let late = std::mem::take(&mut self.late);
        for from in 0..N {
            for to in 0..N {
                if from == to {
                    continue;
                }
                let env = reps[from]
                    .poll_gossip(ReplicaId(to as u32))
                    .expect("interval 1 sends every tick");
                match if lossy { self.faults.next() % 8 } else { 7 } {
                    0 => {}
                    1 => {
                        Self::deliver(reps, to, env.clone(), &mut out);
                        Self::deliver(reps, to, env, &mut out);
                    }
                    2 | 3 => self.late.push((to, env)),
                    _ => Self::deliver(reps, to, env, &mut out),
                }
            }
        }
        for (to, env) in late {
            Self::deliver(reps, to, env, &mut out);
        }
        out
    }

    /// Crashes replica `t` and recovers it: messages to and from it die
    /// with its connections, the recovered replica greets every peer
    /// first, and its front ends retry what it had been sent.
    fn restart(
        &mut self,
        reps: &mut [Replica<Ctr>],
        t: usize,
        cfg: ReplicaConfig,
        retries: &[OpDescriptor<Op>],
    ) -> Vec<(OpId, i64)> {
        let stub = reps[t].clone().crash();
        reps[t] = Replica::recover(Ctr, stub, N, cfg);
        let me = ReplicaId(t as u32);
        self.late.retain(|(to, env)| *to != t && env.from() != me);
        let mut out = Vec::new();
        for to in (0..N).filter(|p| *p != t) {
            let env = reps[t]
                .poll_gossip(ReplicaId(to as u32))
                .expect("interval 1 sends every tick");
            Self::deliver(reps, to, env, &mut out);
        }
        for d in retries {
            let fx = reps[t].on_request(d.clone());
            out.extend(fx.into_iter().map(|e| (e.msg.id, e.msg.value)));
        }
        out
    }
}

/// Runs the schedule on the faulty network under one configuration and
/// returns the response sequence, the final orders and states, and the
/// stable-everywhere prefix of replica 0.
#[allow(clippy::type_complexity)]
fn run_faulty(
    cfg: ReplicaConfig,
    steps: &[Step],
    seed: u64,
    restart: Option<(usize, usize)>,
) -> (Vec<(OpId, i64)>, Vec<Vec<OpId>>, Vec<i64>, Vec<OpId>) {
    let mut reps: Vec<Replica<Ctr>> = (0..N)
        .map(|i| Replica::new(Ctr, ReplicaId(i as u32), N, cfg))
        .collect();
    let mut net = FaultyNet {
        faults: Faults(seed),
        late: Vec::new(),
    };
    let mut responses = Vec::new();
    let mut sent: Vec<OpDescriptor<Op>> = Vec::new();
    for (seq, s) in steps.iter().enumerate() {
        let id = OpId::new(ClientId(s.target as u32), seq as u64);
        let op = if s.read { Op::Read } else { Op::Inc(s.amount) };
        let desc = OpDescriptor::new(id, op).with_strict(s.strict);
        sent.push(desc.clone());
        let fx = reps[s.target].on_request(desc);
        responses.extend(fx.into_iter().map(|e| (e.msg.id, e.msg.value)));
        if s.gossip_after {
            responses.extend(net.round(&mut reps, true));
        }
        if let Some((at, t)) = restart {
            if at == seq {
                let retries: Vec<_> = sent
                    .iter()
                    .filter(|d| d.id.client() == ClientId(t as u32))
                    .cloned()
                    .collect();
                responses.extend(net.restart(&mut reps, t, cfg, &retries));
            }
        }
    }
    // Drain on a healed network (late messages still arrive).
    for _ in 0..6 {
        responses.extend(net.round(&mut reps, false));
    }
    let orders: Vec<Vec<OpId>> = reps.iter().map(|r| r.local_order()).collect();
    let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
    let stable_prefix: Vec<OpId> = reps[0]
        .local_order()
        .into_iter()
        .filter(|x| reps[0].stable_everywhere().contains(x))
        .collect();
    (responses, orders, states, stable_prefix)
}

proptest! {
    /// Property 3: on channels that lose, duplicate and reorder gossip,
    /// with an optional crash and recovery, batched gossip reaches the
    /// same responses, orders, states and stable prefixes as `Full`
    /// under the identical fault schedule — and never holds an op done
    /// without its descriptor and label.
    #[test]
    fn batched_gossip_matches_full_on_faulty_channels(
        steps in proptest::collection::vec(step_strategy(), 5..40),
        seed in any::<u64>(),
        restart in proptest::option::of((0usize..40, 0..N)),
    ) {
        let full = run_faulty(full_config(), &steps, seed, restart);
        let batched = run_faulty(ReplicaConfig::default(), &steps, seed, restart);
        prop_assert_eq!(&batched.0, &full.0, "response sequences diverged");
        prop_assert_eq!(&batched.1, &full.1, "local orders diverged");
        prop_assert_eq!(&batched.2, &full.2, "object states diverged");
        prop_assert_eq!(&batched.3, &full.3, "stable prefixes diverged");
        for order in &batched.1 {
            prop_assert_eq!(order, &batched.1[0], "replicas did not converge");
        }
        prop_assert_eq!(batched.3.len(), steps.len(), "everything stabilized");
    }
}

proptest! {
    /// Property 1: with batch interval 1 the batched protocol is
    /// *lockstep-equivalent* to full snapshots — same responses (values
    /// included), same orders, same stable prefixes, same states.
    #[test]
    fn batched_gossip_is_observably_identical_to_full(
        steps in proptest::collection::vec(step_strategy(), 5..40),
    ) {
        let full = run_schedule(full_config(), &steps, false);
        let batched = run_schedule(ReplicaConfig::default().with_batched(1), &steps, true);
        prop_assert_eq!(&batched.0, &full.0, "response sequences diverged");
        prop_assert_eq!(&batched.1, &full.1, "local orders diverged");
        prop_assert_eq!(&batched.2, &full.2, "object states diverged");
        prop_assert_eq!(&batched.3, &full.3, "stable prefixes diverged");
        // The schedule itself must be non-trivial for the comparison to
        // mean anything: everything submitted was answered and stabilized.
        prop_assert_eq!(full.0.iter().map(|(id, _)| *id).collect::<std::collections::BTreeSet<_>>().len(), steps.len());
        prop_assert_eq!(full.3.len(), steps.len());
    }

    /// Property 2: with batch intervals > 1 the pacing changes response
    /// *timing* (so nonstrict values may differ) but not the service's
    /// guarantees: every operation answers, and the batched run converges
    /// to one order and one state across replicas with everything stable.
    #[test]
    fn batched_pacing_preserves_convergence(
        steps in proptest::collection::vec(step_strategy(), 5..30),
        interval in 2u32..5,
    ) {
        let cfg = ReplicaConfig::default().with_batched(interval);
        let mut reps: Vec<Replica<Ctr>> = (0..N)
            .map(|i| Replica::new(Ctr, ReplicaId(i as u32), N, cfg))
            .collect();
        let mut answered: std::collections::BTreeSet<OpId> = Default::default();
        for (seq, s) in steps.iter().enumerate() {
            let id = OpId::new(ClientId(s.target as u32), seq as u64);
            let op = if s.read { Op::Read } else { Op::Inc(s.amount) };
            let desc = OpDescriptor::new(id, op).with_strict(s.strict);
            answered.extend(reps[s.target].on_request(desc).iter().map(|e| e.msg.id));
            if s.gossip_after {
                answered.extend(
                    gossip_round(&mut reps, s.partition, true).iter().map(|(id, _)| *id),
                );
            }
        }
        // Drain enough rounds that even interval-4 pacing exchanges
        // several times in each direction.
        for _ in 0..(5 * interval as usize) {
            answered.extend(gossip_round(&mut reps, 0, true).iter().map(|(id, _)| *id));
        }
        prop_assert_eq!(answered.len(), steps.len(), "every request answers");
        let order0 = reps[0].local_order();
        prop_assert_eq!(order0.len(), steps.len());
        for r in &reps[1..] {
            prop_assert_eq!(&r.local_order(), &order0, "orders diverged");
            prop_assert_eq!(r.current_state(), reps[0].current_state(), "states diverged");
        }
        prop_assert_eq!(reps[0].stable_everywhere().len(), steps.len());
    }
}
