//! [`DurableStore`]: the per-replica write-ahead log + snapshot engine,
//! implementing [`esds_alg::Persistence`].
//!
//! # File layout
//!
//! Generation-numbered, append-only files in one flat [`Storage`]
//! namespace: `wal-<g>.log` (framed [`WalDelta`](esds_alg::WalDelta)
//! records) and `snap-<g>.img` (one framed memo image). A checkpoint
//! writes and syncs `snap-(g+1)`, then writes and syncs `wal-(g+1)`
//! seeded with the re-logged unstable suffix, and only then removes
//! older generations — so at every crash point the surviving files
//! reconstruct the replica:
//!
//! * crash before the new snapshot syncs → the torn `snap-(g+1)` is
//!   skipped and generation `g` (still intact) recovers;
//! * crash after the snapshot but before/inside the new log → the new
//!   snapshot plus the *old* logs recover (replay is idempotent and
//!   records for prefix ops are skipped);
//! * crash mid-removal → leftover old generations are replayed
//!   harmlessly.
//!
//! Recovery loads the newest decodable snapshot and replays **all**
//! surviving logs in ascending generation order. A torn record at a
//! log's end is dropped with a diagnostic ([`RecoverReport`]); a record
//! that is complete but fails its checksum refuses recovery with
//! [`StoreError::Corrupt`] — never a silent skip.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;

use esds_alg::{Persistence, Replica, ReplicaConfig, RestoreImage};
use esds_core::{Label, OpId, ReplicaId, SerialDataType};
use esds_wire::Wire;

use crate::snapshot::Snapshot;
use crate::storage::{corrupt, Storage, StoreError};
use crate::wal::{decode_record, encode_admit, encode_label, frame_into, WalRecord};

/// Policy knobs of a [`DurableStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurableConfig {
    /// Cut a snapshot (and truncate the log to the unstable suffix)
    /// once this many records accumulated since the last one. `None`
    /// never snapshots: the log grows without bound (WAL-only mode,
    /// useful for benchmarks and tests).
    pub snapshot_every: Option<u64>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            snapshot_every: Some(256),
        }
    }
}

impl DurableConfig {
    /// WAL-only: never snapshot.
    pub fn wal_only() -> Self {
        DurableConfig {
            snapshot_every: None,
        }
    }
}

/// Counters of the persistence hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (admits + label minima).
    pub appended_records: u64,
    /// Bytes appended to logs.
    pub appended_bytes: u64,
    /// Sync barriers issued.
    pub syncs: u64,
    /// Snapshots cut.
    pub snapshots: u64,
}

/// What [`DurableStore::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct RecoverReport {
    /// False when the store was empty (a fresh boot, not a recovery).
    pub recovered: bool,
    /// Generation of the snapshot used, if any.
    pub snapshot_gen: Option<u64>,
    /// Torn snapshot files that were skipped in favor of an older
    /// generation.
    pub skipped_snapshots: Vec<String>,
    /// Log records replayed.
    pub wal_records: u64,
    /// Per log file, the size of the torn tail dropped (only files with
    /// a nonzero tail are listed).
    pub torn_tails: Vec<(String, usize)>,
    /// Ops restored from the snapshot prefix.
    pub prefix_len: usize,
    /// Ops restored from the log suffix.
    pub suffix_len: usize,
}

impl fmt::Display for RecoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.recovered {
            return write!(f, "fresh store (no prior state)");
        }
        write!(
            f,
            "recovered {} prefix + {} suffix ops from {} log records{}",
            self.prefix_len,
            self.suffix_len,
            self.wal_records,
            match self.snapshot_gen {
                Some(g) => format!(" (snapshot generation {g})"),
                None => " (no snapshot)".to_string(),
            }
        )?;
        for (file, bytes) in &self.torn_tails {
            write!(f, "; dropped {bytes}-byte torn tail of {file}")?;
        }
        for file in &self.skipped_snapshots {
            write!(f, "; skipped torn snapshot {file}")?;
        }
        Ok(())
    }
}

fn wal_name(g: u64) -> String {
    format!("wal-{g:010}.log")
}

fn snap_name(g: u64) -> String {
    format!("snap-{g:010}.img")
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The write-ahead log + snapshot engine for one replica, over any
/// [`Storage`] backend. Drive it with [`DurableStore::persist`] after
/// every mutating handler (the sync-before-release discipline of
/// [`esds_alg::Persistence`]); it checkpoints itself per
/// [`DurableConfig::snapshot_every`].
pub struct DurableStore<T: SerialDataType, S> {
    storage: S,
    gen: u64,
    cfg: DurableConfig,
    records_since_snapshot: u64,
    stats: WalStats,
    obs: StoreMetrics,
    _dt: PhantomData<fn() -> T>,
}

/// Registry handles of the persistence hot path. All no-ops until
/// [`DurableStore::attach_metrics`] is called.
#[derive(Clone, Debug, Default)]
struct StoreMetrics {
    /// Latency of one durable append + fsync barrier, µs.
    sync_us: esds_obs::Histo,
    records: esds_obs::Counter,
    bytes: esds_obs::Counter,
    syncs: esds_obs::Counter,
    checkpoints: esds_obs::Counter,
    generation: esds_obs::Gauge,
}

impl<T, S> DurableStore<T, S>
where
    T: SerialDataType,
    T::Operator: Wire,
    T::Value: Wire,
    T::State: Wire,
    S: Storage,
{
    /// Opens the store, recovering the replica from whatever survives
    /// on `storage`. An empty store boots a fresh [`Replica::new`]; any
    /// prior state restores via [`Replica::restore`], which re-enters
    /// the group through the §9.3 recovery gate (passive until every
    /// pre-crash label's op is re-received).
    ///
    /// `config.durable` is forced on so the replica tracks its
    /// [`esds_alg::WalDelta`].
    ///
    /// # Errors
    ///
    /// Backend failures, [`StoreError::Corrupt`] for damaged records or
    /// snapshots, and identity mismatches (a store opened for the wrong
    /// replica or cluster size).
    #[allow(clippy::type_complexity)]
    pub fn open(
        dt: T,
        storage: S,
        id: ReplicaId,
        n: usize,
        mut config: ReplicaConfig,
        cfg: DurableConfig,
    ) -> Result<(Self, Replica<T>, RecoverReport), StoreError> {
        config.durable = true;
        let mut report = RecoverReport::default();

        let files = storage.list()?;
        let wal_gens: Vec<u64> = files
            .iter()
            .filter_map(|f| parse_gen(f, "wal-", ".log"))
            .collect();
        let mut snap_gens: Vec<u64> = files
            .iter()
            .filter_map(|f| parse_gen(f, "snap-", ".img"))
            .collect();
        snap_gens.sort_unstable();

        // Newest decodable snapshot; torn ones fall back a generation.
        let mut snapshot: Option<(u64, Snapshot<T>)> = None;
        for &g in snap_gens.iter().rev() {
            let name = snap_name(g);
            let Some(bytes) = storage.read(&name)? else {
                continue;
            };
            match Snapshot::<T>::decode(&name, &bytes)? {
                Some(s) => {
                    if s.replica != id || s.n != n as u64 {
                        return Err(corrupt(
                            &name,
                            0,
                            format!(
                                "snapshot identity mismatch: wrote ({:?}, n={}), opening ({id:?}, n={n})",
                                s.replica, s.n
                            ),
                        ));
                    }
                    snapshot = Some((g, s));
                    break;
                }
                None => {
                    // A torn snapshot is only possible if the crash hit
                    // before its sync completed — in which case the same
                    // generation's log was never created (it is written
                    // strictly after). A surviving log of this generation
                    // means the snapshot bytes rotted, and falling back
                    // would lose its prefix-only ops.
                    if wal_gens.contains(&g) {
                        return Err(corrupt(
                            &name,
                            0,
                            "snapshot unreadable but its log generation exists",
                        ));
                    }
                    report.skipped_snapshots.push(name);
                }
            }
        }

        // Replay all surviving logs, ascending.
        let prefix_ids: BTreeSet<OpId> = snapshot
            .iter()
            .flat_map(|(_, s)| s.prefix.iter().map(|e| e.id))
            .collect();
        let mut admitted: BTreeMap<OpId, esds_core::OpDescriptor<T::Operator>> = BTreeMap::new();
        let mut labels: BTreeMap<OpId, Label> = BTreeMap::new();
        let mut max_own_counter: Option<u64> = None;
        let mut sorted_wals = wal_gens.clone();
        sorted_wals.sort_unstable();
        for &g in &sorted_wals {
            let name = wal_name(g);
            let Some(bytes) = storage.read(&name)? else {
                continue;
            };
            let scan = crate::wal::scan_frames(&name, &bytes)?;
            if scan.torn_bytes > 0 {
                report.torn_tails.push((name.clone(), scan.torn_bytes));
            }
            let mut offset = 0usize;
            for payload in scan.records {
                match decode_record::<T::Operator>(&name, offset, payload)? {
                    WalRecord::Admit(d) => {
                        if !prefix_ids.contains(&d.id) {
                            admitted.entry(d.id).or_insert(d);
                        }
                    }
                    WalRecord::Label(op, l) => {
                        if l.replica == id {
                            max_own_counter = Some(max_own_counter.unwrap_or(0).max(l.counter));
                        }
                        labels
                            .entry(op)
                            .and_modify(|cur| *cur = (*cur).min(l))
                            .or_insert(l);
                    }
                }
                offset += crate::wal::FRAME_HEADER + payload.len();
                report.wal_records += 1;
            }
        }

        let any_files = !wal_gens.is_empty() || !snap_gens.is_empty();
        let max_gen = wal_gens
            .iter()
            .copied()
            .chain(snap_gens.iter().copied())
            .max()
            .unwrap_or(0);

        let replica = if any_files {
            let next_counter = snapshot
                .as_ref()
                .map_or(0, |(_, s)| s.next_counter)
                .max(max_own_counter.map_or(0, |c| c + 1));
            let (state, prefix) = match snapshot {
                Some((g, s)) => {
                    report.snapshot_gen = Some(g);
                    (s.state, s.prefix)
                }
                None => (dt.initial_state(), Vec::new()),
            };
            report.recovered = true;
            report.prefix_len = prefix.len();
            report.suffix_len = admitted.len();
            let suffix_labels: Vec<(OpId, Label)> = labels
                .into_iter()
                .filter(|(op, _)| !prefix_ids.contains(op))
                .collect();
            let img = RestoreImage {
                id,
                // The generation this open starts exceeds every generation
                // an earlier incarnation wrote. One that wrote nothing may
                // share its number with this one, but then every descriptor
                // and label it acknowledged holding is in this image.
                incarnation: max_gen + 1,
                next_counter,
                prefix,
                state,
                suffix_rcvd: admitted.into_values().collect(),
                suffix_labels,
            };
            Replica::restore(dt, img, n, config)
        } else {
            Replica::new(dt, id, n, config)
        };

        let store = DurableStore {
            storage,
            // Never append to a recovered log (its tail may be torn);
            // start a fresh generation and let the next checkpoint
            // retire the old files.
            gen: if any_files { max_gen + 1 } else { 0 },
            cfg,
            records_since_snapshot: report.wal_records,
            stats: WalStats::default(),
            obs: StoreMetrics::default(),
            _dt: PhantomData,
        };
        Ok((store, replica, report))
    }

    /// Durably appends the replica's drained [`esds_alg::WalDelta`] and
    /// syncs, then checkpoints if the policy says so. Call after every
    /// mutating handler, **before** releasing its effects.
    ///
    /// # Errors
    ///
    /// Backend failures. The caller must treat an error as the
    /// replica's death (drop the effects).
    ///
    /// # Panics
    ///
    /// Panics if an admitted op's descriptor is gone from `rcvd` —
    /// i.e. [`Replica::compact`] ran between the handler and this call,
    /// which the durable driver must never do (checkpointing is the
    /// durable form of compaction).
    pub fn persist(&mut self, rep: &mut Replica<T>) -> Result<(), StoreError> {
        let delta = rep.take_wal_delta();
        if !delta.is_empty() {
            let mut buf = Vec::new();
            let mut n = 0u64;
            for opid in &delta.admitted {
                let d = rep
                    .rcvd()
                    .get(opid)
                    .expect("admitted descriptor still in rcvd at persist time");
                frame_into(&mut buf, &encode_admit(d));
                n += 1;
            }
            for (opid, l) in &delta.labels {
                frame_into(&mut buf, &encode_label(*opid, *l));
                n += 1;
            }
            let name = wal_name(self.gen);
            let t0 = self.obs.sync_us.is_enabled().then(std::time::Instant::now);
            self.storage.append(&name, &buf)?;
            self.storage.sync(&name)?;
            if let Some(t0) = t0 {
                self.obs.sync_us.record(t0.elapsed().as_micros() as u64);
            }
            self.stats.appended_records += n;
            self.stats.appended_bytes += buf.len() as u64;
            self.stats.syncs += 1;
            self.obs.records.add(n);
            self.obs.bytes.add(buf.len() as u64);
            self.obs.syncs.inc();
            self.records_since_snapshot += n;
        }
        if let Some(every) = self.cfg.snapshot_every {
            if self.records_since_snapshot >= every {
                self.checkpoint(rep)?;
            }
        }
        Ok(())
    }

    /// Cuts a snapshot at the current memo fence and truncates the log
    /// to the unstable suffix (a new generation; older files removed).
    /// Returns `false` if skipped — the replica is still in the §9.3
    /// recovery gate, or does not memoize.
    ///
    /// # Errors
    ///
    /// Backend failures.
    pub fn checkpoint(&mut self, rep: &mut Replica<T>) -> Result<bool, StoreError> {
        // The state below already reflects any undrained delta.
        let _ = rep.take_wal_delta();
        if rep.is_recovering() || rep.memo_state().is_none() {
            return Ok(false);
        }
        let new_gen = self.gen + 1;
        let snap = snap_name(new_gen);
        self.storage.append(&snap, &Snapshot::of(rep).encode())?;
        self.storage.sync(&snap)?;

        // Re-log the unstable suffix into the new generation's log.
        let memo_ids: BTreeSet<OpId> = rep.memo_order().iter().copied().collect();
        let mut buf = Vec::new();
        let mut n = 0u64;
        for (opid, d) in rep.rcvd() {
            if !memo_ids.contains(opid) {
                frame_into(&mut buf, &encode_admit(d));
                n += 1;
            }
        }
        for (opid, l) in rep.labels().iter() {
            if !memo_ids.contains(&opid) {
                frame_into(&mut buf, &encode_label(opid, l));
                n += 1;
            }
        }
        let wal = wal_name(new_gen);
        if !buf.is_empty() {
            self.storage.append(&wal, &buf)?;
            self.storage.sync(&wal)?;
            self.stats.appended_records += n;
            self.stats.appended_bytes += buf.len() as u64;
            self.stats.syncs += 1;
            self.obs.records.add(n);
            self.obs.bytes.add(buf.len() as u64);
            self.obs.syncs.inc();
        }

        // Older generations are now redundant.
        for f in self.storage.list()? {
            let g = parse_gen(&f, "wal-", ".log").or_else(|| parse_gen(&f, "snap-", ".img"));
            if matches!(g, Some(g) if g < new_gen) {
                self.storage.remove(&f)?;
            }
        }
        self.gen = new_gen;
        // Count only *new* records toward the next snapshot — a suffix
        // that never shrinks must not cause a checkpoint per persist.
        self.records_since_snapshot = 0;
        self.stats.snapshots += 1;
        self.obs.checkpoints.inc();
        self.obs.generation.set(new_gen);
        Ok(true)
    }

    /// Reports the persistence hot path into a metrics scope
    /// (conventionally `shard{s}/replica{r}/wal`): `sync_us` append +
    /// fsync latency histogram, `records`/`bytes`/`syncs` counters,
    /// `checkpoints` counter, and the `generation` gauge. No-op cost
    /// when the scope's registry is disabled.
    pub fn attach_metrics(&mut self, scope: &esds_obs::Scope) {
        self.obs = StoreMetrics {
            sync_us: scope.histogram("sync_us"),
            records: scope.counter("records"),
            bytes: scope.counter("bytes"),
            syncs: scope.counter("syncs"),
            checkpoints: scope.counter("checkpoints"),
            generation: scope.gauge("generation"),
        };
        self.obs.generation.set(self.gen);
    }

    /// Hot-path counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Current file generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The backing storage (e.g. to take a [`crate::MemStorage`]
    /// survivor image in tests).
    pub fn storage(&self) -> &S {
        &self.storage
    }
}

impl<T, S> Persistence<T> for DurableStore<T, S>
where
    T: SerialDataType,
    T::Operator: Wire,
    T::Value: Wire,
    T::State: Wire,
    S: Storage,
{
    fn persist(&mut self, replica: &mut Replica<T>) -> Result<(), String> {
        DurableStore::persist(self, replica).map_err(|e| e.to_string())
    }
}
