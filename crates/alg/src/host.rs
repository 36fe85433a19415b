//! [`ReplicaHost`]: the one place where a replica's input is handled,
//! persisted and its output released. The simulator, the threaded
//! runtime and the TCP node each drive one host and keep only their I/O.
//! Each step method returns its output only after the attached store's
//! [`Persistence::persist`] succeeded — the sync-before-release rule of
//! [`crate::persist`], enforced by type — and [`PersistError`] otherwise.
//! The host also keeps the stabilization watch behind `Stabilize` spans.

use esds_core::{OpDescriptor, OpId, ReplicaId, SerialDataType};

use crate::messages::{GossipEnvelope, GossipMsg};
use crate::persist::Persistence;
use crate::replica::{Replica, RespondEffect};

/// The attached store failed to persist a step; its output was dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistError(pub String);

/// A read-only look at a hosted replica, shipped to the thread that owns
/// the host and run there between two steps.
pub type ReplicaQuery<T> = Box<dyn FnOnce(&Replica<T>) + Send>;

/// What one [`ReplicaHost::check_stability`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StabilityCheck {
    /// Watched operations now stable at every replica; each is reported
    /// once and leaves the watch.
    pub stabilized: Vec<OpId>,
    /// Whether the stable-everywhere set grew since the previous check.
    pub advanced: bool,
    /// Received operations not yet known stable everywhere.
    pub unstable: usize,
}

/// A replica with its optional store and its stabilization watch.
pub struct ReplicaHost<T: SerialDataType> {
    replica: Replica<T>,
    store: Option<Box<dyn Persistence<T>>>,
    /// Sampled operations whose trace awaits their stability.
    watched: Vec<OpId>,
    /// Size of the stable-everywhere set at the last check.
    stable_seen: usize,
}

impl<T: SerialDataType> ReplicaHost<T> {
    /// Hosts `replica`. [`WalDelta`](crate::WalDelta) tracking is on
    /// exactly when a `store` is attached.
    pub fn new(mut replica: Replica<T>, store: Option<Box<dyn Persistence<T>>>) -> Self {
        replica.track_wal(store.is_some());
        ReplicaHost {
            replica,
            store,
            watched: Vec::new(),
            stable_seen: 0,
        }
    }

    /// The hosted replica.
    pub fn replica(&self) -> &Replica<T> {
        &self.replica
    }

    /// Ends hosting, dropping the store.
    pub fn into_replica(self) -> Replica<T> {
        self.replica
    }

    /// [`Replica::on_request`], persisted.
    pub fn on_request(
        &mut self,
        desc: OpDescriptor<T::Operator>,
    ) -> Result<Vec<RespondEffect<T::Value>>, PersistError> {
        let effects = self.replica.on_request(desc);
        self.persist().map(|()| effects)
    }

    /// [`Replica::on_gossip_envelope`], persisted.
    pub fn on_gossip_envelope(
        &mut self,
        env: GossipEnvelope<T::Operator>,
    ) -> Result<Vec<RespondEffect<T::Value>>, PersistError> {
        let effects = self.replica.on_gossip_envelope(env);
        self.persist().map(|()| effects)
    }

    /// [`Replica::poll_gossip`], persisted if it emits.
    pub fn poll_gossip(
        &mut self,
        peer: ReplicaId,
    ) -> Result<Option<GossipEnvelope<T::Operator>>, PersistError> {
        let env = self.replica.poll_gossip(peer);
        match env {
            Some(_) => self.persist().map(|()| env),
            None => Ok(None),
        }
    }

    /// [`Replica::make_gossip`] (the simulator's broadcast), persisted.
    pub fn make_gossip(&mut self, peer: ReplicaId) -> Result<GossipMsg<T::Operator>, PersistError> {
        let msg = self.replica.make_gossip(peer);
        self.persist().map(|()| msg)
    }

    /// [`Replica::take_newly_done`].
    pub fn take_newly_done(&mut self) -> Vec<OpId> {
        self.replica.take_newly_done()
    }

    fn persist(&mut self) -> Result<(), PersistError> {
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        store.persist(&mut self.replica).map_err(PersistError)
    }

    /// Watches `id` until it is stable everywhere (idempotent).
    pub fn watch(&mut self, id: OpId) {
        if !self.watched.contains(&id) {
            self.watched.push(id);
        }
    }

    /// Whether any watched operation is still waiting.
    pub fn is_watching(&self) -> bool {
        !self.watched.is_empty()
    }

    /// Checks the watch against the replica's stable-everywhere set.
    pub fn check_stability(&mut self) -> StabilityCheck {
        let stable = self.replica.stable_everywhere();
        let (stabilized, waiting) = self.watched.iter().partition(|id| stable.contains(id));
        self.watched = waiting;
        let advanced = stable.len() > self.stable_seen;
        self.stable_seen = self.stable_seen.max(stable.len());
        StabilityCheck {
            stabilized,
            advanced,
            unstable: self.replica.rcvd().len().saturating_sub(stable.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaConfig;
    use crate::WalDelta;
    use esds_core::ClientId;
    use esds_datatypes::{Counter, CounterOp};
    use std::sync::{Arc, Mutex};

    fn op(seq: u64) -> OpDescriptor<CounterOp> {
        OpDescriptor::new(OpId::new(ClientId(0), seq), CounterOp::Increment(1))
    }

    fn replica(id: u32, n: usize) -> Replica<Counter> {
        Replica::new(Counter, ReplicaId(id), n, ReplicaConfig::default())
    }

    struct FailingDisk;

    impl Persistence<Counter> for FailingDisk {
        fn persist(&mut self, _: &mut Replica<Counter>) -> Result<(), String> {
            Err("disk gone".into())
        }
    }

    /// Records every non-empty delta it is asked to persist.
    struct RecordingDisk(Arc<Mutex<Vec<WalDelta>>>);

    impl Persistence<Counter> for RecordingDisk {
        fn persist(&mut self, rep: &mut Replica<Counter>) -> Result<(), String> {
            let delta = rep.take_wal_delta();
            if !delta.is_empty() {
                self.0.lock().unwrap().push(delta);
            }
            Ok(())
        }
    }

    #[test]
    fn a_failed_persist_releases_nothing() {
        let mut host = ReplicaHost::new(replica(0, 1), Some(Box::new(FailingDisk)));
        let err = host.on_request(op(0)).expect_err("the disk refuses");
        assert_eq!(err, PersistError("disk gone".into()));

        let mut host = ReplicaHost::new(replica(0, 2), Some(Box::new(FailingDisk)));
        assert!(
            host.poll_gossip(ReplicaId(1)).is_err(),
            "no envelope leaves a replica whose disk failed"
        );
        assert!(host.make_gossip(ReplicaId(1)).is_err());
    }

    #[test]
    fn an_attached_store_sees_the_step_delta() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut host = ReplicaHost::new(replica(0, 1), Some(Box::new(RecordingDisk(log.clone()))));
        let effects = host.on_request(op(0)).expect("persisted");
        assert_eq!(effects.len(), 1, "n = 1 answers at once");
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].admitted, vec![OpId::new(ClientId(0), 0)]);
        assert!(!log[0].labels.is_empty(), "the local label is logged");
    }

    #[test]
    fn a_volatile_host_never_accumulates_a_delta() {
        let mut tracking = replica(0, 2);
        tracking.track_wal(true);
        let mut host = ReplicaHost::new(tracking, None);
        for seq in 0..4 {
            host.on_request(op(seq)).expect("no store, no failure");
        }
        host.poll_gossip(ReplicaId(1))
            .expect("no store, no failure");
        assert!(host.into_replica().take_wal_delta().is_empty());
    }

    #[test]
    fn the_watch_reports_each_operation_once() {
        let mut host = ReplicaHost::new(replica(0, 1), None);
        host.watch(op(0).id);
        host.watch(op(0).id);
        assert!(host.is_watching());
        host.on_request(op(0)).expect("volatile");
        let check = host.check_stability();
        assert_eq!(check.stabilized, vec![op(0).id]);
        assert!(check.advanced);
        assert_eq!(check.unstable, 0);
        assert!(!host.is_watching());
        assert_eq!(host.check_stability(), StabilityCheck::default());
    }
}
