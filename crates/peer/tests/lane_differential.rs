//! Randomized differential test for the dependency-aware lane path: on
//! random blocks (random read/write sets, stale and absent claims,
//! deletes, endorsement failures), [`LaneScheduler::validate`] +
//! [`StateStore::apply_write_batch_lanes`] at 1/2/4/8 lanes must be
//! bit-identical to the sequential production path
//! ([`mvcc_validate_traced`] + [`StateStore::apply_write_batch`]) —
//! validation codes, the traced conflict-provenance event stream,
//! post-state (values AND versions), and the commit watermark — on both
//! the in-memory engine and the LSM engine.

use std::sync::Arc;
use std::time::Instant;

use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Key, TxId, ValidationCode, Value, Version,
};
use fabric_ledger::Block;
use fabric_peer::validator::{mvcc_validate_traced, MvccScratch};
use fabric_peer::LaneScheduler;
use fabric_statedb::{
    CommitWrite, LsmConfig, LsmStateDb, MemStateDb, StateStore, WriteBatch, WriteRef,
};
use fabric_trace::TraceSink;
use proptest::prelude::*;

const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// How a generated read claims its version, resolved at runtime against
/// the sequential store's pre-block state (all replicas are identical at
/// that point, so one resolution serves every lane count).
#[derive(Debug, Clone, Copy)]
enum ReadClaim {
    /// Claim whatever the store currently holds — a fresh read.
    Current,
    /// Claim the key is absent.
    Absent,
    /// Claim a version from the far future — always stale.
    Bogus,
}

#[derive(Debug, Clone)]
struct GenTx {
    reads: Vec<(u8, ReadClaim)>,
    /// `None` value deletes the key.
    writes: Vec<(u8, Option<i64>)>,
    endorsed: bool,
}

fn key(id: u8) -> Key {
    Key::composite("k", id as u64)
}

fn claim_strategy() -> impl Strategy<Value = ReadClaim> {
    prop_oneof![
        4 => Just(ReadClaim::Current),
        1 => Just(ReadClaim::Absent),
        1 => Just(ReadClaim::Bogus),
    ]
}

fn tx_strategy() -> impl Strategy<Value = GenTx> {
    (
        proptest::collection::vec((0u8..12, claim_strategy()), 0..5),
        proptest::collection::vec(
            (0u8..12, proptest::option::of(any::<i64>())),
            0..4,
        ),
        any::<bool>(),
    )
        .prop_map(|(reads, writes, endorsed)| GenTx { reads, writes, endorsed })
}

fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<GenTx>>> {
    proptest::collection::vec(proptest::collection::vec(tx_strategy(), 0..8), 1..6)
}

/// Materializes one generated block against `state` (the sequential
/// store's pre-block snapshot).
fn build_block(
    block_num: u64,
    gen_txs: &[GenTx],
    state: &dyn StateStore,
) -> (Block, Vec<bool>) {
    let mut endorsement_ok = Vec::with_capacity(gen_txs.len());
    let txs: Vec<fabric_common::Transaction> = gen_txs
        .iter()
        .map(|g| {
            endorsement_ok.push(g.endorsed);
            let mut b = RwSetBuilder::new();
            for (id, claim) in &g.reads {
                let version = match claim {
                    ReadClaim::Current => state.get(&key(*id)).unwrap().map(|vv| vv.version),
                    ReadClaim::Absent => None,
                    ReadClaim::Bogus => Some(Version::new(9_999, 0)),
                };
                b.record_read(key(*id), version);
            }
            for (id, val) in &g.writes {
                b.record_write(key(*id), val.map(Value::from_i64));
            }
            fabric_common::Transaction {
                id: TxId::next(),
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset: b.build(),
                endorsements: vec![],
                created_at: Instant::now(),
            }
        })
        .collect();
    (Block::build(block_num, Digest::ZERO, txs), endorsement_ok)
}

/// The write batch of a validated block, in block order.
fn batch_of<'a>(block: &'a Block, codes: &[ValidationCode]) -> WriteBatch<'a> {
    let mut batch = WriteBatch::new(block.header.number);
    for (p, tx) in block.txs.iter().enumerate() {
        if codes[p].is_valid() {
            for e in tx.rwset.writes.entries() {
                batch.push(WriteRef { key: &e.key, value: e.value.as_ref(), tx: p as u32 });
            }
        }
    }
    batch
}

fn seed_genesis(store: &dyn StateStore) {
    let genesis: Vec<CommitWrite> =
        (0u8..8).map(|i| CommitWrite::put(key(i), Value::from_i64(i as i64), 0)).collect();
    store.apply_block(0, &genesis).unwrap();
}

fn post_state(store: &dyn StateStore) -> Vec<(Key, fabric_statedb::VersionedValue)> {
    store.scan_range(&key(0), &Key::composite("k", 255)).unwrap()
}

/// Drives `gen_blocks` through the sequential path on `seq_store` and the
/// lane path on each `(scheduler, store)` replica, block by block,
/// asserting bit-identical codes, traced events, post-state, and
/// watermark after every block.
fn run_differential(
    gen_blocks: &[Vec<GenTx>],
    seq_store: Arc<dyn StateStore>,
    lane_replicas: &[(LaneScheduler, Arc<dyn StateStore>)],
) -> std::result::Result<(), TestCaseError> {
    seed_genesis(seq_store.as_ref());
    for (_, store) in lane_replicas {
        seed_genesis(store.as_ref());
    }

    let mut scratch = MvccScratch::new();
    let seq_sink = TraceSink::enabled();
    for (i, gen_txs) in gen_blocks.iter().enumerate() {
        let block_num = (i + 1) as u64;
        let (block, endorsement_ok) = build_block(block_num, gen_txs, seq_store.as_ref());

        let mut seq_codes = Vec::new();
        mvcc_validate_traced(
            &block,
            seq_store.as_ref(),
            &endorsement_ok,
            &mut scratch,
            &mut seq_codes,
            &seq_sink,
        )
        .unwrap();
        seq_store.apply_write_batch(&batch_of(&block, &seq_codes)).unwrap();
        let seq_events: Vec<String> =
            seq_sink.drain().iter().map(|e| format!("{:?}", e.kind)).collect();
        let seq_scan = post_state(seq_store.as_ref());

        for (sched, store) in lane_replicas {
            let lane_sink = TraceSink::enabled();
            let mut lane_codes = Vec::new();
            let occ = sched
                .validate(&block, store.as_ref(), &endorsement_ok, &mut lane_codes, &lane_sink)
                .unwrap();
            prop_assert_eq!(
                &lane_codes,
                &seq_codes,
                "block {} codes at {} lanes",
                block_num,
                sched.lanes()
            );
            let lane_events: Vec<String> =
                lane_sink.drain().iter().map(|e| format!("{:?}", e.kind)).collect();
            prop_assert_eq!(
                &lane_events,
                &seq_events,
                "block {} events at {} lanes",
                block_num,
                sched.lanes()
            );
            prop_assert!(occ.chain_serializations as usize <= block.txs.len());

            store.apply_write_batch_lanes(&batch_of(&block, &lane_codes), sched.pool()).unwrap();
            prop_assert_eq!(
                store.last_committed_block(),
                seq_store.last_committed_block()
            );
            let lane_scan = post_state(store.as_ref());
            prop_assert_eq!(
                &lane_scan,
                &seq_scan,
                "block {} post-state at {} lanes",
                block_num,
                sched.lanes()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
    #[test]
    fn lane_path_matches_sequential_on_memdb(gen_blocks in blocks_strategy()) {
        let replicas: Vec<(LaneScheduler, Arc<dyn StateStore>)> = LANE_COUNTS
            .iter()
            .map(|&n| {
                (LaneScheduler::new(n), Arc::new(MemStateDb::with_shards(4)) as Arc<dyn StateStore>)
            })
            .collect();
        run_differential(&gen_blocks, Arc::new(MemStateDb::new()), &replicas)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]
    #[test]
    fn lane_path_matches_sequential_on_lsm(gen_blocks in blocks_strategy()) {
        let base = std::env::temp_dir().join(format!(
            "fabric-lane-diff-{}-{:x}",
            std::process::id(),
            case_suffix(&gen_blocks),
        ));
        let _ = std::fs::remove_dir_all(&base);
        let cfg = LsmConfig { memtable_max_bytes: 512, ..LsmConfig::default() };
        let replicas: Vec<(LaneScheduler, Arc<dyn StateStore>)> = [2usize, 8]
            .iter()
            .map(|&n| {
                let db = LsmStateDb::open(base.join(format!("l{n}")), cfg.clone()).unwrap();
                (LaneScheduler::new(n), Arc::new(db) as Arc<dyn StateStore>)
            })
            .collect();
        let seq = LsmStateDb::open(base.join("seq"), cfg).unwrap();
        let outcome = run_differential(&gen_blocks, Arc::new(seq), &replicas);
        let _ = std::fs::remove_dir_all(&base);
        outcome?;
    }
}

/// Stable per-case directory suffix derived from the generated input.
fn case_suffix(blocks: &[Vec<GenTx>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in blocks {
        h ^= 1 + b.len() as u64;
        h = h.wrapping_mul(0x100000001b3);
        for t in b {
            h ^= (t.reads.len() as u64) << 8 | t.writes.len() as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}
