//! The pluggable persistence hook a durable deployment drives.
//!
//! The replica automaton is sans-IO; durability is a store attached to
//! its [`ReplicaHost`](crate::ReplicaHost), the only caller of
//! [`Persistence::persist`]. The host persists after every mutating step
//! and returns the step's output (responses, a gossip envelope) only
//! after it succeeded. This sync-before-release discipline is the whole
//! soundness argument: any fact another process can have observed about
//! this replica is backed by its durable log, so a crash can only lose
//! knowledge nobody was told about.
//!
//! Attaching a store turns on the replica's [`WalDelta`](crate::WalDelta)
//! tracking ([`Replica::track_wal`]); the backend drains it
//! ([`Replica::take_wal_delta`]) and decides internally when to cut a
//! snapshot and truncate its log. Errors are strings to keep `esds-alg`
//! free of storage dependencies; the host turns one into a
//! [`PersistError`](crate::PersistError) that withholds the step's
//! output, and the driver stops the replica, exactly as if its machine
//! had lost power.

use esds_core::SerialDataType;

use crate::replica::Replica;

/// A durable backend for one replica (implemented by `esds-store`).
pub trait Persistence<T: SerialDataType>: Send {
    /// Durably records everything the replica changed since the last
    /// call (drains [`Replica::take_wal_delta`]), syncing before
    /// returning. May also cut a snapshot / compact the log.
    ///
    /// # Errors
    ///
    /// Any storage failure. The host then releases nothing of the step
    /// and the driver treats the replica as crashed.
    fn persist(&mut self, replica: &mut Replica<T>) -> Result<(), String>;
}
