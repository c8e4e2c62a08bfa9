//! Dependency-aware parallel intra-block validation: the lane scheduler.
//!
//! The sequential MVCC pass ([`crate::validator::mvcc_validate_traced`])
//! walks the block in order because a transaction's fate can depend on the
//! in-block writes of *earlier valid* transactions. But most transactions
//! in a well-reordered block touch disjoint keys — their validation order
//! is immaterial. This module partitions a block into **dependency
//! chains** (connected components of the read/write conflict relation),
//! validates independent chains concurrently on the [`LanePool`]'s worker
//! lanes, and keeps block order *within* each chain — which is exactly the
//! order sensitivity the sequential pass has, so the outcome is
//! bit-identical (same codes, same traced conflict provenance, same store
//! read traffic) while conflict-free spans of the block validate in
//! parallel.
//!
//! The scheduler interns the block's read/write sets itself, in the same
//! first-seen order as the sequential validator, so both paths issue the
//! same store reads — the conformance matrix's `commit_lanes` cells and
//! the differential proptests prove the equivalence byte for byte.
//!
//! ## Why components, not just non-adjacent transactions
//!
//! Two rules force transactions into one chain:
//!
//! * a reader shares a chain with **every** writer of the key it reads:
//!   the in-block write bit (and the conflicting-writer witness for traced
//!   runs) must evolve in block order relative to that reader;
//! * co-writers of a key share a chain: the witness (`written_by`) must
//!   name the *latest* earlier valid writer, exactly as the sequential
//!   scan would.
//!
//! Union-find over the block's interned key ids applies both rules in two
//! linear passes. Components never share a key between a reader and a
//! writer or between two writers, so per-key state needs no cross-lane
//! ordering — plain relaxed atomics suffice, and the [`LanePool`] join
//! publishes everything before the caller reads the results.
//!
//! The bounded state is scratch, reused block after block: a warm
//! scheduler validates without allocating (pinned by the counting
//! allocator in `tests/lane_alloc.rs`).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fabric_common::{Key, KeyTable, LaneJob, LanePool, Result, TxId, ValidationCode, Version};
use fabric_ledger::Block;
use fabric_statedb::StateStore;
use fabric_trace::{EventKind, TraceSink};

/// Dense `u8` encoding of the three codes the MVCC phase can produce.
const CODE_VALID: u8 = 0;
const CODE_CONFLICT: u8 = 1;
const CODE_ENDORSEMENT: u8 = 2;

/// Why a transaction's first offending read failed (trace provenance).
const CAUSE_IN_BLOCK: u8 = 1;
const CAUSE_STORE_VERSION: u8 = 2;

fn code_of(raw: u8) -> ValidationCode {
    match raw {
        CODE_VALID => ValidationCode::Valid,
        CODE_CONFLICT => ValidationCode::MvccConflict,
        _ => ValidationCode::EndorsementFailure,
    }
}

/// Occupancy facts of one lane-scheduled block, for
/// [`fabric_common::StoreCounters::record_lane_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Distinct lanes that claimed at least one chain.
    pub lanes_used: u64,
    /// Transactions that had to wait behind a same-chain predecessor
    /// (`Σ max(0, chain_len - 1)` over all chains).
    pub chain_serializations: u64,
}

/// The lane scheduler: a persistent [`LanePool`] plus the reusable shared
/// block state its lanes operate on. One per peer, engaged when
/// `commit_lanes > 1`.
pub struct LaneScheduler {
    pool: LanePool,
    job: Arc<MvccLaneJob>,
    /// The same job, pre-coerced once so dispatch never allocates.
    shared: Arc<dyn LaneJob>,
    /// Serializes whole-block use of the shared state (blocks arrive in
    /// order; this guards against misuse, it is never contended in the
    /// pipeline).
    gate: Mutex<()>,
}

impl LaneScheduler {
    /// Creates a scheduler with `lanes` worker lanes (clamped to ≥ 1).
    pub fn new(lanes: usize) -> Self {
        let job = Arc::new(MvccLaneJob::default());
        let shared: Arc<dyn LaneJob> = Arc::clone(&job) as Arc<dyn LaneJob>;
        LaneScheduler { pool: LanePool::new(lanes), job, shared, gate: Mutex::new(()) }
    }

    /// Number of lanes (including the dispatching caller).
    pub fn lanes(&self) -> usize {
        self.pool.lanes()
    }

    /// The underlying pool, shared with the commit phase's lane apply.
    pub fn pool(&self) -> &LanePool {
        &self.pool
    }

    /// Lane-parallel MVCC validation of `block`: partitions into
    /// dependency chains over the interned read/write sets, prefetches the store versions
    /// with the same single batched read as the sequential pass, runs the
    /// chains on the lanes, and writes one [`ValidationCode`] per
    /// transaction into `codes` — bit-identical to
    /// [`crate::validator::mvcc_validate_traced`], including the traced
    /// conflict events, which are emitted in block order after the join.
    pub fn validate(
        &self,
        block: &Block,
        store: &dyn StateStore,
        endorsement_ok: &[bool],
        codes: &mut Vec<ValidationCode>,
        sink: &TraceSink,
    ) -> Result<LaneOccupancy> {
        let _serial = self.gate.lock();
        {
            let mut st = self.job.state.write();
            st.fill(block, endorsement_ok, self.pool.lanes());
            // Split borrow: the prefetch fills `fetched` from `probe_keys`.
            let LaneState { probe_keys, fetched, .. } = &mut *st;
            store.multi_get_versions_into(probe_keys, fetched)?;
        }
        if !block.txs.is_empty() {
            self.pool.run(&self.shared);
        }
        let st = self.job.state.read();
        st.collect(block, codes, sink);
        Ok(st.occupancy())
    }
}

impl std::fmt::Debug for LaneScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaneScheduler({} lanes)", self.pool.lanes())
    }
}

/// The shared job: lanes read the filled [`LaneState`] and race on the
/// chain cursor; all per-transaction and per-key cells are atomics whose
/// cross-lane disjointness is guaranteed by the partition.
#[derive(Default)]
struct MvccLaneJob {
    state: RwLock<LaneState>,
}

impl LaneJob for MvccLaneJob {
    fn run(&self, lane: usize) {
        self.state.read().run_lane(lane);
    }
}

/// Reusable per-block state. Everything keeps its capacity across blocks.
///
/// Local key ids are dense `u32`s: read keys first (`0..probe_len`, in
/// first-seen scan order over endorsed transactions — the exact id/probe
/// correspondence of [`crate::validator::MvccScratch`]), write-only keys
/// after, hashed through the [`KeyTable`].
#[derive(Default)]
struct LaneState {
    /// Transactions in the block.
    n: usize,
    lanes: usize,
    /// `Σ max(0, chain_len - 1)` of the current partition.
    chains_serialized: u64,
    endorsed: Vec<bool>,
    /// Per-transaction CSR rows of local read ids / declared versions,
    /// aligned with the read-set entry order.
    read_off: Vec<u32>,
    read_ids: Vec<u32>,
    read_vers: Vec<Option<Version>>,
    /// Per-transaction CSR rows of local write ids.
    write_off: Vec<u32>,
    write_ids: Vec<u32>,
    /// Raw [`TxId`] per block position (the traced conflict witness).
    tx_raw: Vec<u64>,
    /// Block-local key interner.
    keys: KeyTable,
    /// Distinct read keys in local-id order; the block's whole store read.
    probe_keys: Vec<Key>,
    probe_len: usize,
    /// Current store version per read-key id (one batched prefetch).
    fetched: Vec<Option<Version>>,
    /// Union-find scratch over block positions.
    parent: Vec<u32>,
    root_of: Vec<u32>,
    /// First writer per local key id (`u32::MAX` = none).
    first_writer: Vec<u32>,
    /// Root position → dense chain id (`u32::MAX` = unassigned).
    comp_of: Vec<u32>,
    /// Chain CSR: `comp_txs[comp_off[c]..comp_off[c+1]]` are chain `c`'s
    /// transactions in block order.
    comp_off: Vec<u32>,
    comp_txs: Vec<u32>,
    /// Next unclaimed chain.
    cursor: AtomicUsize,
    /// Per-transaction outcome (`CODE_*`), each written by exactly one lane.
    codes: Vec<AtomicU8>,
    /// In-block write bitset over local key ids, one bit per key. A key's
    /// bit is only touched by its own chain's lane; `fetch_or` keeps
    /// unrelated keys sharing a word safe.
    written: Vec<AtomicU64>,
    /// Latest earlier valid writer per local key id (raw [`TxId`]).
    written_by: Vec<AtomicU64>,
    /// First offending read of a conflicted transaction: entry index,
    /// cause, and (for in-block conflicts) the witness writer, captured at
    /// conflict time. Read only when the code says conflict.
    fail_read: Vec<AtomicU32>,
    fail_cause: Vec<AtomicU8>,
    fail_writer: Vec<AtomicU64>,
    /// Per-lane "claimed at least one chain" flags.
    lane_hits: Vec<AtomicU64>,
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        // Attach the higher root under the lower: deterministic, and the
        // representative is always the chain's earliest-rooted position.
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        parent[hi as usize] = lo;
    }
}

/// Grows an atomic vector to `n` elements (zero-initialized); existing
/// elements keep their values — callers reset what needs resetting.
fn grow_u64(v: &mut Vec<AtomicU64>, n: usize) {
    if v.len() < n {
        v.resize_with(n, || AtomicU64::new(0));
    }
}

impl LaneState {
    /// Rebuilds the whole state for `block`. Exclusive access (the caller
    /// holds the write lock); everything reuses warm capacity.
    fn fill(
        &mut self,
        block: &Block,
        endorsement_ok: &[bool],
        lanes: usize,
    ) {
        let n = block.txs.len();
        self.n = n;
        self.lanes = lanes.max(1);
        self.endorsed.clear();
        self.endorsed.extend_from_slice(endorsement_ok);
        self.read_off.clear();
        self.read_off.push(0);
        self.write_off.clear();
        self.write_off.push(0);
        self.read_ids.clear();
        self.read_vers.clear();
        self.write_ids.clear();
        self.tx_raw.clear();
        self.probe_keys.clear();

        let n_keys = self.intern_from_rwsets(block, endorsement_ok);
        self.partition(endorsement_ok, n_keys);

        // Atomic working cells: size for this block, reset what must be.
        if self.codes.len() < n {
            self.codes.resize_with(n, || AtomicU8::new(0));
        }
        if self.fail_read.len() < n {
            self.fail_read.resize_with(n, || AtomicU32::new(0));
        }
        if self.fail_cause.len() < n {
            self.fail_cause.resize_with(n, || AtomicU8::new(0));
        }
        grow_u64(&mut self.fail_writer, n);
        grow_u64(&mut self.written_by, n_keys);
        let words = n_keys.div_ceil(64);
        grow_u64(&mut self.written, words);
        for w in &self.written[..words] {
            w.store(0, Ordering::Relaxed);
        }
        grow_u64(&mut self.lane_hits, self.lanes);
        for h in &self.lane_hits[..self.lanes] {
            h.store(0, Ordering::Relaxed);
        }
        self.cursor.store(0, Ordering::Relaxed);
    }

    /// Interns reads then writes, exactly the sequential validator's
    /// two-pass scheme.
    fn intern_from_rwsets(&mut self, block: &Block, endorsement_ok: &[bool]) -> usize {
        self.keys.clear();
        for (tx, &ok) in block.txs.iter().zip(endorsement_ok) {
            if ok {
                for e in tx.rwset.reads.entries() {
                    let id = self.keys.intern(&e.key);
                    if id as usize == self.probe_keys.len() {
                        self.probe_keys.push(e.key.clone());
                    }
                    self.read_ids.push(id);
                    self.read_vers.push(e.version);
                }
            }
            self.read_off.push(self.read_ids.len() as u32);
            self.tx_raw.push(tx.id.raw());
        }
        self.probe_len = self.probe_keys.len();
        for (tx, &ok) in block.txs.iter().zip(endorsement_ok) {
            if ok {
                for e in tx.rwset.writes.entries() {
                    self.write_ids.push(self.keys.intern(&e.key));
                }
            }
            self.write_off.push(self.write_ids.len() as u32);
        }
        self.keys.len()
    }

    /// Union-find partition into dependency chains, then the chain CSR.
    ///
    /// Pass A unions co-writers of each key (through its first writer);
    /// pass B unions each reader with its key's first writer by scanning
    /// the read rows against the first-writer table (pass A already
    /// connected the co-writers).
    fn partition(&mut self, endorsement_ok: &[bool], n_keys: usize) {
        let n = self.n;
        let LaneState {
            parent,
            root_of,
            first_writer,
            comp_of,
            comp_off,
            comp_txs,
            read_off,
            read_ids,
            write_off,
            write_ids,
            ..
        } = self;
        parent.clear();
        parent.extend(0..n as u32);
        first_writer.clear();
        first_writer.resize(n_keys, u32::MAX);

        // Pass A: co-writers of a key share a chain.
        for (p, &ok) in endorsement_ok.iter().enumerate() {
            if !ok {
                continue;
            }
            for &id in &write_ids[write_off[p] as usize..write_off[p + 1] as usize] {
                let fw = &mut first_writer[id as usize];
                if *fw == u32::MAX {
                    *fw = p as u32;
                } else {
                    let w = *fw;
                    union(parent, p as u32, w);
                }
            }
        }

        // Pass B: each reader joins its key's writer component.
        for (p, &ok) in endorsement_ok.iter().enumerate() {
            if !ok {
                continue;
            }
            for &id in &read_ids[read_off[p] as usize..read_off[p + 1] as usize] {
                let fw = first_writer[id as usize];
                if fw != u32::MAX {
                    union(parent, p as u32, fw);
                }
            }
        }

        // Dense chain ids in order of first appearance, then the CSR by
        // counting sort — block order within each chain.
        root_of.clear();
        comp_of.clear();
        comp_of.resize(n, u32::MAX);
        let mut ncomps = 0u32;
        for p in 0..n as u32 {
            let r = find(parent, p);
            root_of.push(r);
            let slot = &mut comp_of[r as usize];
            if *slot == u32::MAX {
                *slot = ncomps;
                ncomps += 1;
            }
        }
        comp_off.clear();
        comp_off.resize(ncomps as usize + 1, 0);
        for &r in root_of.iter() {
            comp_off[comp_of[r as usize] as usize + 1] += 1;
        }
        for c in 1..comp_off.len() {
            comp_off[c] += comp_off[c - 1];
        }
        comp_txs.clear();
        comp_txs.resize(n, 0);
        // Reuse root_of as the per-chain fill cursor (roots are consumed).
        let fill = root_of;
        fill.clear();
        fill.extend_from_slice(&comp_off[..ncomps as usize]);
        for p in 0..n as u32 {
            let c = comp_of[find(parent, p) as usize] as usize;
            comp_txs[fill[c] as usize] = p;
            fill[c] += 1;
        }
        self.chains_serialized = n as u64 - u64::from(ncomps);
    }

    /// One lane's share of the block: claim chains off the cursor until
    /// none remain, validating each chain's transactions in block order.
    fn run_lane(&self, lane: usize) {
        let ncomps = self.comp_off.len().saturating_sub(1);
        let mut claimed = false;
        loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= ncomps {
                break;
            }
            if !claimed {
                claimed = true;
                self.lane_hits[lane].store(1, Ordering::Relaxed);
            }
            for &p in &self.comp_txs[self.comp_off[c] as usize..self.comp_off[c + 1] as usize] {
                self.validate_tx(p as usize);
            }
        }
    }

    /// The per-transaction check, mirroring the sequential pass 2 exactly:
    /// first offending read decides (in-block write bit before store
    /// version), a valid transaction's writes update the bitset and the
    /// witness table.
    fn validate_tx(&self, p: usize) {
        if !self.endorsed[p] {
            self.codes[p].store(CODE_ENDORSEMENT, Ordering::Relaxed);
            return;
        }
        let ids = &self.read_ids[self.read_off[p] as usize..self.read_off[p + 1] as usize];
        let vers = &self.read_vers[self.read_off[p] as usize..self.read_off[p + 1] as usize];
        let mut valid = true;
        for (fi, (&id, ver)) in ids.iter().zip(vers).enumerate() {
            let id = id as usize;
            if self.written[id / 64].load(Ordering::Relaxed) & (1u64 << (id % 64)) != 0 {
                // An earlier transaction of this chain updated the key;
                // the witness is this-lane-local, captured now because a
                // later co-writer may overwrite it.
                valid = false;
                self.fail_read[p].store(fi as u32, Ordering::Relaxed);
                self.fail_writer[p]
                    .store(self.written_by[id].load(Ordering::Relaxed), Ordering::Relaxed);
                self.fail_cause[p].store(CAUSE_IN_BLOCK, Ordering::Relaxed);
                break;
            }
            if self.fetched[id] != *ver {
                valid = false;
                self.fail_read[p].store(fi as u32, Ordering::Relaxed);
                self.fail_cause[p].store(CAUSE_STORE_VERSION, Ordering::Relaxed);
                break;
            }
        }
        if valid {
            for &id in &self.write_ids[self.write_off[p] as usize..self.write_off[p + 1] as usize]
            {
                let id = id as usize;
                self.written_by[id].store(self.tx_raw[p], Ordering::Relaxed);
                self.written[id / 64].fetch_or(1u64 << (id % 64), Ordering::Relaxed);
            }
            self.codes[p].store(CODE_VALID, Ordering::Relaxed);
        } else {
            self.codes[p].store(CODE_CONFLICT, Ordering::Relaxed);
        }
    }

    /// Post-join: decode the codes in block order and, when tracing,
    /// replay the failure events exactly as the sequential scan would have
    /// emitted them (one event per failed transaction, block order).
    fn collect(&self, block: &Block, codes: &mut Vec<ValidationCode>, sink: &TraceSink) {
        codes.clear();
        let traced = sink.is_enabled();
        for p in 0..self.n {
            let code = code_of(self.codes[p].load(Ordering::Relaxed));
            if traced {
                match code {
                    ValidationCode::EndorsementFailure => sink.emit(EventKind::TxEndorsementFailed {
                        block: block.header.number,
                        tx: block.txs[p].id,
                    }),
                    ValidationCode::MvccConflict => {
                        let fi = self.fail_read[p].load(Ordering::Relaxed) as usize;
                        let e = &block.txs[p].rwset.reads.entries()[fi];
                        if self.fail_cause[p].load(Ordering::Relaxed) == CAUSE_IN_BLOCK {
                            sink.emit(EventKind::TxMvccConflict {
                                block: block.header.number,
                                tx: block.txs[p].id,
                                key: e.key.clone(),
                                expected: None,
                                observed: e.version,
                                writer: Some(TxId(self.fail_writer[p].load(Ordering::Relaxed))),
                            });
                        } else {
                            let id = self.read_ids[self.read_off[p] as usize + fi] as usize;
                            sink.emit(EventKind::TxMvccConflict {
                                block: block.header.number,
                                tx: block.txs[p].id,
                                key: e.key.clone(),
                                expected: self.fetched[id],
                                observed: e.version,
                                writer: None,
                            });
                        }
                    }
                    _ => {}
                }
            }
            codes.push(code);
        }
    }

    fn occupancy(&self) -> LaneOccupancy {
        let lanes_used = self.lane_hits[..self.lanes]
            .iter()
            .filter(|h| h.load(Ordering::Relaxed) != 0)
            .count() as u64;
        LaneOccupancy { lanes_used, chain_serializations: self.chains_serialized }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::mvcc_validate_traced;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{ChannelId, ClientId, Digest, Transaction, Value};
    use fabric_statedb::MemStateDb;
    use std::time::Instant;

    fn k(i: u64) -> Key {
        Key::composite("k", i)
    }

    /// A hand-built transaction reading `reads` (at the given versions)
    /// and blind-writing `writes`.
    fn tx(id: u64, reads: &[(u64, Option<Version>)], writes: &[u64]) -> Transaction {
        let mut b = RwSetBuilder::new();
        for &(key, ver) in reads {
            b.record_read(k(key), ver);
        }
        for &key in writes {
            b.record_write(k(key), Some(Value::from_i64(id as i64)));
        }
        Transaction {
            id: TxId(id),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: b.build(),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    fn store() -> MemStateDb {
        MemStateDb::with_genesis((0..32).map(|i| (k(i), Value::from_i64(0))))
    }

    fn g() -> Option<Version> {
        Some(Version::GENESIS)
    }

    /// Sequential vs lanes, untraced and traced, on one block.
    fn assert_differential(lanes: usize, txs: Vec<Transaction>, endorsed: Vec<bool>) {
        let block = Block::build(1, Digest::ZERO, txs);
        let db = store();

        let mut seq_codes = Vec::new();
        let seq_sink = TraceSink::enabled();
        let mut scratch = crate::validator::MvccScratch::new();
        mvcc_validate_traced(&block, &db, &endorsed, &mut scratch, &mut seq_codes, &seq_sink)
            .unwrap();

        let sched = LaneScheduler::new(lanes);
        let mut lane_codes = Vec::new();
        let lane_sink = TraceSink::enabled();
        let occ = sched
            .validate(&block, &db, &endorsed, &mut lane_codes, &lane_sink)
            .unwrap();
        assert_eq!(lane_codes, seq_codes, "codes diverge at {lanes} lanes");
        let seq_events: Vec<String> =
            seq_sink.drain().iter().map(|e| format!("{:?}", e.kind)).collect();
        let lane_events: Vec<String> =
            lane_sink.drain().iter().map(|e| format!("{:?}", e.kind)).collect();
        assert_eq!(lane_events, seq_events, "traced events diverge at {lanes} lanes");
        assert!(occ.lanes_used <= lanes as u64);
    }

    #[test]
    fn disjoint_transactions_match_sequential_on_every_lane_count() {
        for lanes in [1, 2, 4, 8] {
            let txs: Vec<Transaction> =
                (0..8).map(|i| tx(i + 1, &[(i, g())], &[i])).collect();
            assert_differential(lanes, txs, vec![true; 8]);
        }
    }

    #[test]
    fn dependency_chains_match_sequential() {
        for lanes in [2, 4] {
            // Chain A: 1 writes k0; 2 reads k0 (in-block conflict);
            // 3 writes k0 again; 4 reads k0 (conflict, witness = 3... but 3
            // is valid only if its own reads pass — it has none).
            // Chain B: 5 reads k9 at a WRONG version (store conflict).
            // Singleton: 6 unendorsed.
            let txs = vec![
                tx(1, &[], &[0]),
                tx(2, &[(0, g())], &[1]),
                tx(3, &[], &[0]),
                tx(4, &[(0, g())], &[2]),
                tx(5, &[(9, Some(Version::new(7, 7)))], &[9]),
                tx(6, &[(3, g())], &[3]),
            ];
            let endorsed = vec![true, true, true, true, true, false];
            assert_differential(lanes, txs, endorsed);
        }
    }

    #[test]
    fn partition_groups_readers_with_writers_and_co_writers() {
        let txs = vec![
            tx(1, &[], &[0]),          // writes k0
            tx(2, &[(0, g())], &[]),   // reads k0  → chain of 1
            tx(3, &[], &[0]),          // writes k0 → co-writer, same chain
            tx(4, &[(5, g())], &[6]),  // disjoint  → own chain
            tx(5, &[], &[]),           // empty     → own chain
        ];
        let block = Block::build(1, Digest::ZERO, txs);
        let db = store();
        let sched = LaneScheduler::new(2);
        let mut codes = Vec::new();
        let occ = sched
            .validate(&block, &db, &[true; 5], &mut codes, &TraceSink::disabled())
            .unwrap();
        // Chains: {1,2,3}, {4}, {5} → 5 txs - 3 chains = 2 serialized.
        assert_eq!(occ.chain_serializations, 2);
        assert_eq!(
            codes,
            vec![
                ValidationCode::Valid,
                ValidationCode::MvccConflict,
                ValidationCode::Valid,
                ValidationCode::Valid,
                ValidationCode::Valid,
            ]
        );
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let block = Block::build(1, Digest::ZERO, vec![]);
        let db = store();
        let sched = LaneScheduler::new(4);
        let mut codes = vec![ValidationCode::Valid]; // stale content
        let occ = sched
            .validate(&block, &db, &[], &mut codes, &TraceSink::disabled())
            .unwrap();
        assert!(codes.is_empty());
        assert_eq!(occ.lanes_used, 0);
        assert_eq!(occ.chain_serializations, 0);
    }

    #[test]
    fn store_probe_traffic_matches_sequential() {
        // The lane path must issue the same single batched version read
        // over the same probe list (counters are part of the differential
        // contract).
        let txs = vec![
            tx(1, &[(0, g()), (1, g())], &[0]),
            tx(2, &[(1, g()), (2, g())], &[5]),
            tx(3, &[(0, g())], &[]),
        ];
        let endorsed = vec![true, true, true];
        let block = Block::build(1, Digest::ZERO, txs);

        let db_seq = store();
        let before = db_seq.counters().snapshot();
        let mut scratch = crate::validator::MvccScratch::new();
        let mut codes = Vec::new();
        mvcc_validate_traced(
            &block,
            &db_seq,
            &endorsed,
            &mut scratch,
            &mut codes,
            &TraceSink::disabled(),
        )
        .unwrap();
        let seq_stats = db_seq.counters().snapshot().since(&before);

        let db_lane = store();
        let before = db_lane.counters().snapshot();
        let sched = LaneScheduler::new(4);
        let mut lane_codes = Vec::new();
        sched
            .validate(&block, &db_lane, &endorsed, &mut lane_codes, &TraceSink::disabled())
            .unwrap();
        let lane_stats = db_lane.counters().snapshot().since(&before);
        assert_eq!(codes, lane_codes);
        assert_eq!(seq_stats.multi_get_batches, lane_stats.multi_get_batches);
        assert_eq!(seq_stats.multi_get_keys, lane_stats.multi_get_keys);
        assert_eq!(seq_stats.point_gets, lane_stats.point_gets);
    }
}
