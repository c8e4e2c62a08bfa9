//! Chaincode: the smart-contract abstraction.
//!
//! A chaincode is a deterministic function over the current state: it reads
//! keys, computes, writes keys. During simulation "none of the effects of
//! the simulation become durable in the current state […] each endorser
//! builds up a read set and a write set during simulation to capture the
//! effects" (paper §2.2.1). [`TxContext`] is that recording surface; it
//! also implements Fabric's read-your-own-writes and, in Fabric++ mode,
//! the early-abort stale-read check.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use fabric_common::rwset::{ReadWriteSet, RwSetBuilder};
use fabric_common::{Key, Value};
use fabric_statedb::{SnapshotRead, SnapshotView};

/// Why a simulation stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulationError {
    /// Fabric++ early abort: a read observed a version newer than the
    /// simulation snapshot (paper §5.2.1).
    StaleRead {
        /// The key whose read was stale.
        key: Key,
        /// Last block visible to the simulation's snapshot.
        snapshot_block: fabric_common::BlockNum,
        /// The (newer) version the read actually observed.
        observed: fabric_common::Version,
    },
    /// The chaincode itself rejected the invocation (bad arguments,
    /// insufficient funds rules, etc.). The proposal fails without ever
    /// becoming a transaction.
    ChaincodeError(String),
    /// The state database failed.
    Storage(String),
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::StaleRead { key, snapshot_block, observed } => {
                write!(
                    f,
                    "stale read of {key}: snapshot at block {snapshot_block} \
                     outdated by a concurrent commit (observed {observed})"
                )
            }
            SimulationError::ChaincodeError(msg) => write!(f, "chaincode error: {msg}"),
            SimulationError::Storage(msg) => write!(f, "state database error: {msg}"),
        }
    }
}

impl std::error::Error for SimulationError {}

/// The execution context handed to a chaincode during simulation.
pub struct TxContext {
    snapshot: SnapshotView,
    builder: RwSetBuilder,
    /// Reads resolved up front in one engine round trip
    /// ([`TxContext::prefetch`]); consumed by [`TxContext::get`].
    prefetched: HashMap<Key, SnapshotRead>,
    /// Fabric++: abort on stale reads instead of recording them.
    early_abort: bool,
    /// Set when an early-abort stale read fired, so the endorser can
    /// surface the abort even though [`Chaincode::invoke`] flattens
    /// errors to strings (a chaincode cannot "catch" the abort — once a
    /// stale read is observed the simulation is doomed, paper §5.2.1).
    stale: Option<SimulationError>,
}

impl TxContext {
    /// Creates a context over a pinned snapshot.
    ///
    /// `early_abort` enables the Fabric++ simulation-phase abort; without
    /// it, stale reads are served at the snapshot height and die in
    /// validation.
    pub fn new(snapshot: SnapshotView, early_abort: bool) -> Self {
        TxContext {
            snapshot,
            builder: RwSetBuilder::new(),
            prefetched: HashMap::new(),
            early_abort,
            stale: None,
        }
    }

    /// Resolves `keys` in one engine round trip and caches the results
    /// for the coming [`TxContext::get`] calls.
    ///
    /// Used by the endorser when a chaincode declares its read set up
    /// front ([`Chaincode::declared_reads`]): the whole read set costs a
    /// single store lock acquisition instead of one per key. Reading a
    /// key that was never prefetched stays correct — it falls through to
    /// a point read at the same pinned height.
    pub fn prefetch(&mut self, keys: &[Key]) -> Result<(), SimulationError> {
        let reads = self
            .snapshot
            .read_many(keys)
            .map_err(|e| SimulationError::Storage(e.to_string()))?;
        self.prefetched.reserve(keys.len());
        for (key, read) in keys.iter().zip(reads) {
            self.prefetched.insert(key.clone(), read);
        }
        Ok(())
    }

    /// Reads `key` from the simulated state.
    ///
    /// Order of precedence: this transaction's own pending writes
    /// (read-your-own-writes, not recorded in the read set), then the
    /// prefetch cache, then the snapshot (recorded with the version
    /// visible at the pinned height).
    pub fn get(&mut self, key: &Key) -> Result<Option<Value>, SimulationError> {
        if let Some(pending) = self.builder.pending_write(key) {
            return Ok(pending.cloned());
        }
        let read = match self.prefetched.remove(key) {
            Some(read) => read,
            None => self
                .snapshot
                .read(key)
                .map_err(|e| SimulationError::Storage(e.to_string()))?,
        };
        match read {
            SnapshotRead::Absent => {
                self.builder.record_read(key.clone(), None);
                Ok(None)
            }
            SnapshotRead::Fresh(vv) => {
                self.builder.record_read(key.clone(), Some(vv.version));
                Ok(Some(vv.value))
            }
            SnapshotRead::Stale(info) => {
                if self.early_abort {
                    // Paper Figure 6: "abort simulation" the moment the
                    // version check fails.
                    let err = SimulationError::StaleRead {
                        key: key.clone(),
                        snapshot_block: self.snapshot.last_block(),
                        observed: info.newest_version,
                    };
                    self.stale = Some(err.clone());
                    return Err(err);
                }
                // Snapshot isolation without early abort: serve the value
                // as of the pinned height and record that version. The
                // validation phase compares it against the newer committed
                // fact and aborts the transaction there.
                match info.at_height {
                    Some(vv) => {
                        self.builder.record_read(key.clone(), Some(vv.version));
                        Ok(Some(vv.value))
                    }
                    None => {
                        self.builder.record_read(key.clone(), None);
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Convenience: read an `i64` balance (the asset-transfer workloads).
    pub fn get_i64(&mut self, key: &Key) -> Result<Option<i64>, SimulationError> {
        Ok(self.get(key)?.and_then(|v| v.as_i64()))
    }

    /// Range scan over `[start, end)` — Fabric's `GetStateByRange`.
    ///
    /// Every returned key is recorded in the read set with its observed
    /// version, so any committed change to a returned entry invalidates
    /// the transaction. As in Fabric v1.2, *phantoms* (keys inserted into
    /// the range after simulation) are not detected — the read set records
    /// what was seen, not the range predicate.
    ///
    /// This transaction's own pending writes inside the range are merged
    /// into the result (read-your-own-writes); its pending deletes hide
    /// entries.
    pub fn get_range(
        &mut self,
        start: &Key,
        end: &Key,
    ) -> Result<Vec<(Key, Value)>, SimulationError> {
        let scanned = self
            .snapshot
            .read_range(start, end)
            .map_err(|e| SimulationError::Storage(e.to_string()))?;
        // Both lists are key-sorted, so every own-write lookup below is a
        // binary search.
        let pending = self.builder.pending_writes_in_range(start, end);
        let mut out: Vec<(Key, Value)> = Vec::with_capacity(scanned.len());
        for (key, read) in scanned {
            if let Ok(i) = pending.binary_search_by(|(k, _)| k.cmp(&key)) {
                // Own write shadows the stored entry; nothing is recorded
                // in the read set (read-your-own-writes).
                if let Some(v) = &pending[i].1 {
                    out.push((key, v.clone()));
                }
                continue;
            }
            match read {
                SnapshotRead::Absent => unreachable!("scan returns only live keys"),
                SnapshotRead::Fresh(vv) => {
                    self.builder.record_read(key.clone(), Some(vv.version));
                    out.push((key, vv.value));
                }
                SnapshotRead::Stale(info) => {
                    if self.early_abort {
                        let err = SimulationError::StaleRead {
                            key,
                            snapshot_block: self.snapshot.last_block(),
                            observed: info.newest_version,
                        };
                        self.stale = Some(err.clone());
                        return Err(err);
                    }
                    // Serve the entry as of the pinned height; the scan
                    // only returns keys live at that height.
                    if let Some(vv) = info.at_height {
                        self.builder.record_read(key.clone(), Some(vv.version));
                        out.push((key, vv.value));
                    }
                }
            }
        }
        // Own writes to keys absent from the store but inside the range.
        let mut extra: Vec<(Key, Value)> = Vec::new();
        for (k, v) in pending {
            if let Some(v) = v {
                if out.binary_search_by(|(ok, _)| ok.cmp(&k)).is_err() {
                    extra.push((k, v));
                }
            }
        }
        out.extend(extra);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Writes `value` to `key` (buffered; durable only if the transaction
    /// commits).
    pub fn put(&mut self, key: Key, value: Value) {
        self.builder.record_write(key, Some(value));
    }

    /// Convenience: write an `i64` balance.
    pub fn put_i64(&mut self, key: Key, value: i64) {
        self.put(key, Value::from_i64(value));
    }

    /// Deletes `key` (buffered).
    pub fn delete(&mut self, key: Key) {
        self.builder.record_write(key, None);
    }

    /// The pinned last-block of the simulation snapshot.
    pub fn snapshot_block(&self) -> u64 {
        self.snapshot.last_block()
    }

    /// The early-abort stale read this simulation hit, if any.
    ///
    /// [`Chaincode::invoke`] returns `Result<(), String>`, so a chaincode
    /// necessarily flattens the [`SimulationError::StaleRead`] it gets
    /// from [`TxContext::get`] into an opaque string (or even swallows
    /// it). The endorser consults this after `invoke` to recover the
    /// structured abort — with its key/version provenance — and notify
    /// the client directly, as the paper prescribes.
    pub fn take_stale_abort(&mut self) -> Option<SimulationError> {
        self.stale.take()
    }

    /// Finishes the simulation, yielding the recorded effects.
    pub fn finish(self) -> ReadWriteSet {
        self.builder.build()
    }
}

/// A deterministic smart contract.
///
/// Determinism matters: the same proposal simulated on different endorsers
/// must produce identical read/write sets or the client cannot assemble a
/// valid transaction (paper §2.2.1 footnote: mismatching sets indicate
/// non-determinism or malice).
pub trait Chaincode: Send + Sync {
    /// Executes one invocation against `ctx`, interpreting `args`.
    fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> Result<(), String>;

    /// The keys this invocation will read, when they can be computed from
    /// `args` alone (a *declared read set*). The endorser prefetches them
    /// in one engine round trip before `invoke`, so simulation touches
    /// the store lock once instead of once per key. `None` (the default)
    /// means the read set depends on state and cannot be declared.
    fn declared_reads(&self, _args: &[u8]) -> Option<Vec<Key>> {
        None
    }

    /// Human-readable name (diagnostics only).
    fn name(&self) -> &str {
        "chaincode"
    }
}

/// Name → chaincode lookup shared by all peers of a channel (the deployed
/// contracts).
#[derive(Clone, Default)]
pub struct ChaincodeRegistry {
    map: HashMap<String, Arc<dyn Chaincode>>,
}

impl ChaincodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys `cc` under `name` (replacing any previous deployment).
    pub fn deploy(&mut self, name: impl Into<String>, cc: Arc<dyn Chaincode>) {
        self.map.insert(name.into(), cc);
    }

    /// Looks up a deployed chaincode.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Chaincode>> {
        self.map.get(name).cloned()
    }

    /// Number of deployed chaincodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is deployed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl fmt::Debug for ChaincodeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChaincodeRegistry({} deployed)", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::{CommitWrite, MemStateDb, StateStore};
    use fabric_common::Version;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn setup() -> Arc<MemStateDb> {
        Arc::new(MemStateDb::with_genesis([
            (k("balA"), Value::from_i64(70)),
            (k("balB"), Value::from_i64(80)),
        ]))
    }

    fn ctx(db: &Arc<MemStateDb>, early_abort: bool) -> TxContext {
        let store: Arc<dyn StateStore> = db.clone();
        TxContext::new(SnapshotView::pin(store), early_abort)
    }

    #[test]
    fn reads_record_versions() {
        let db = setup();
        let mut c = ctx(&db, true);
        assert_eq!(c.get_i64(&k("balA")).unwrap(), Some(70));
        assert_eq!(c.get(&k("ghost")).unwrap(), None);
        let rw = c.finish();
        assert_eq!(rw.reads.version_of(&k("balA")), Some(Some(Version::GENESIS)));
        assert_eq!(rw.reads.version_of(&k("ghost")), Some(None));
        assert!(rw.writes.is_empty());
    }

    #[test]
    fn read_your_own_writes_not_in_read_set() {
        let db = setup();
        let mut c = ctx(&db, true);
        c.put_i64(k("balA"), 40);
        assert_eq!(c.get_i64(&k("balA")).unwrap(), Some(40), "sees own write");
        let rw = c.finish();
        assert!(!rw.reads.reads(&k("balA")), "own-write read not recorded");
        assert_eq!(rw.writes.value_of(&k("balA")), Some(Some(&Value::from_i64(40))));
    }

    #[test]
    fn delete_then_read_sees_absent() {
        let db = setup();
        let mut c = ctx(&db, true);
        c.delete(k("balA"));
        assert_eq!(c.get(&k("balA")).unwrap(), None);
        let rw = c.finish();
        assert_eq!(rw.writes.value_of(&k("balA")), Some(None));
    }

    #[test]
    fn stale_read_aborts_in_fabricpp_mode() {
        let db = setup();
        let mut c = ctx(&db, true);
        // Read balA first — fresh.
        assert_eq!(c.get_i64(&k("balA")).unwrap(), Some(70));
        // Concurrent commit updates balB (paper Figure 6).
        db.apply_block(1, &[CommitWrite::put(k("balB"), Value::from_i64(100), 0)]).unwrap();
        let err = c.get(&k("balB")).unwrap_err();
        assert_eq!(
            err,
            SimulationError::StaleRead {
                key: k("balB"),
                snapshot_block: 0,
                observed: Version::new(1, 0),
            }
        );
    }

    #[test]
    fn stale_read_served_at_snapshot_height_without_early_abort() {
        let db = setup();
        let mut c = ctx(&db, false);
        db.apply_block(1, &[CommitWrite::put(k("balB"), Value::from_i64(100), 0)]).unwrap();
        // Without early abort the read succeeds, serving the value as of
        // the pinned height (snapshot isolation) and recording that
        // version; validation later compares it against the newer commit
        // and aborts the transaction.
        assert_eq!(c.get_i64(&k("balB")).unwrap(), Some(80));
        let rw = c.finish();
        assert_eq!(rw.reads.version_of(&k("balB")), Some(Some(Version::GENESIS)));
    }

    #[test]
    fn prefetched_reads_resolve_in_one_round_trip() {
        let db = setup();
        let mut c = ctx(&db, true);
        let before = db.counters().snapshot();
        c.prefetch(&[k("balA"), k("balB"), k("ghost")]).unwrap();
        let mid = db.counters().snapshot();
        assert_eq!(mid.since(&before).snapshot_read_batches, 1, "one round trip");
        assert_eq!(mid.since(&before).snapshot_read_keys, 3);
        // Gets are served from the cache — no further store traffic — and
        // record the same read set as point reads would.
        assert_eq!(c.get_i64(&k("balA")).unwrap(), Some(70));
        assert_eq!(c.get_i64(&k("balB")).unwrap(), Some(80));
        assert_eq!(c.get(&k("ghost")).unwrap(), None);
        let after = db.counters().snapshot();
        assert_eq!(after.since(&mid).snapshot_read_batches, 0, "cache hits");
        let rw = c.finish();
        assert_eq!(rw.reads.version_of(&k("balA")), Some(Some(Version::GENESIS)));
        assert_eq!(rw.reads.version_of(&k("ghost")), Some(None));
    }

    #[test]
    fn prefetched_stale_read_still_aborts() {
        let db = setup();
        let mut c = ctx(&db, true);
        db.apply_block(1, &[CommitWrite::put(k("balB"), Value::from_i64(100), 0)]).unwrap();
        c.prefetch(&[k("balA"), k("balB")]).unwrap();
        assert_eq!(c.get_i64(&k("balA")).unwrap(), Some(70));
        let err = c.get(&k("balB")).unwrap_err();
        assert_eq!(
            err,
            SimulationError::StaleRead {
                key: k("balB"),
                snapshot_block: 0,
                observed: Version::new(1, 0),
            }
        );
    }

    #[test]
    fn snapshot_block_exposed() {
        let db = setup();
        let c = ctx(&db, true);
        assert_eq!(c.snapshot_block(), 0);
    }

    struct Transfer;
    impl Chaincode for Transfer {
        fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> Result<(), String> {
            let amount = i64::from_le_bytes(args.try_into().map_err(|_| "bad args")?);
            let a = ctx.get_i64(&k("balA")).map_err(|e| e.to_string())?.ok_or("no balA")?;
            let b = ctx.get_i64(&k("balB")).map_err(|e| e.to_string())?.ok_or("no balB")?;
            if a < amount {
                return Err("insufficient funds".into());
            }
            ctx.put_i64(k("balA"), a - amount);
            ctx.put_i64(k("balB"), b + amount);
            Ok(())
        }
        fn name(&self) -> &str {
            "transfer"
        }
    }

    #[test]
    fn chaincode_end_to_end_simulation() {
        // The paper's running example: transfer 30 from BalA to BalB.
        let db = setup();
        let mut c = ctx(&db, true);
        Transfer.invoke(&mut c, &30i64.to_le_bytes()).unwrap();
        let rw = c.finish();
        assert_eq!(rw.reads.len(), 2);
        assert_eq!(rw.writes.value_of(&k("balA")), Some(Some(&Value::from_i64(40))));
        assert_eq!(rw.writes.value_of(&k("balB")), Some(Some(&Value::from_i64(110))));
        // Simulation changed nothing durable.
        assert_eq!(db.get(&k("balA")).unwrap().unwrap().value, Value::from_i64(70));
    }

    #[test]
    fn chaincode_can_reject() {
        let db = setup();
        let mut c = ctx(&db, true);
        let err = Transfer.invoke(&mut c, &1000i64.to_le_bytes()).unwrap_err();
        assert!(err.contains("insufficient"));
    }

    #[test]
    fn range_scan_records_reads_and_merges_own_writes() {
        let db = Arc::new(MemStateDb::with_genesis([
            (k("acct:a"), Value::from_i64(1)),
            (k("acct:b"), Value::from_i64(2)),
            (k("acct:c"), Value::from_i64(3)),
            (k("other:x"), Value::from_i64(99)),
        ]));
        let mut c = ctx(&db, true);
        // Own write inside the range, own delete of an existing entry.
        c.put_i64(k("acct:ba"), 42); // new key inside range
        c.delete(k("acct:c"));
        let got = c.get_range(&k("acct:"), &k("acct:~")).unwrap();
        let names: Vec<String> = got.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["acct:a", "acct:b", "acct:ba"]);
        assert_eq!(got[2].1.as_i64(), Some(42));

        let rw = c.finish();
        // Stored entries a and b recorded with versions; own-write keys not.
        assert!(rw.reads.reads(&k("acct:a")));
        assert!(rw.reads.reads(&k("acct:b")));
        assert!(!rw.reads.reads(&k("acct:ba")));
        assert!(!rw.reads.reads(&k("other:x")), "outside range");
    }

    #[test]
    fn range_scan_sees_each_keys_newest_own_write() {
        let db = Arc::new(MemStateDb::with_genesis([
            (k("acct:a"), Value::from_i64(1)),
            (k("acct:b"), Value::from_i64(2)),
        ]));
        let mut c = ctx(&db, true);
        c.put_i64(k("acct:a"), 10);
        c.put_i64(k("acct:z"), 20);
        c.delete(k("acct:a"));
        c.put_i64(k("acct:a"), 11); // re-created after its delete
        c.delete(k("acct:z")); // created, then deleted again
        let got = c.get_range(&k("acct:"), &k("acct:~")).unwrap();
        let pairs: Vec<(String, i64)> =
            got.iter().map(|(k, v)| (k.to_string(), v.as_i64().unwrap())).collect();
        assert_eq!(pairs, [("acct:a".to_string(), 11), ("acct:b".to_string(), 2)]);
        let rw = c.finish();
        assert!(!rw.reads.reads(&k("acct:a")), "shadowed by an own write");
        assert!(rw.reads.reads(&k("acct:b")));
    }

    #[test]
    fn range_scan_stale_entry_early_aborts() {
        let db = Arc::new(MemStateDb::with_genesis([
            (k("r:1"), Value::from_i64(1)),
            (k("r:2"), Value::from_i64(2)),
        ]));
        let mut aborting = ctx(&db, true);
        let mut tolerant = ctx(&db, false); // both pinned at block 0
        db.apply_block(1, &[CommitWrite::put(k("r:2"), Value::from_i64(22), 0)]).unwrap();
        let err = aborting.get_range(&k("r:"), &k("r:~")).unwrap_err();
        assert_eq!(
            err,
            SimulationError::StaleRead {
                key: k("r:2"),
                snapshot_block: 0,
                observed: Version::new(1, 0),
            }
        );
        // Without early abort the scan serves the entry as of the pinned
        // height, recording that version; the transaction survives to die
        // in validation instead.
        let got = tolerant.get_range(&k("r:"), &k("r:~")).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].1.as_i64(), Some(2), "snapshot value, not the newer commit");
        let rw = tolerant.finish();
        assert_eq!(rw.reads.version_of(&k("r:2")), Some(Some(Version::GENESIS)));
    }

    #[test]
    fn registry_deploy_and_lookup() {
        let mut reg = ChaincodeRegistry::new();
        assert!(reg.is_empty());
        reg.deploy("transfer", Arc::new(Transfer));
        assert_eq!(reg.len(), 1);
        assert!(reg.get("transfer").is_some());
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.get("transfer").unwrap().name(), "transfer");
    }
}
