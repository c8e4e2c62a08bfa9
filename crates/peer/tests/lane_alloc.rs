//! Asserts the lane scheduler's allocation contract: once warm (partition
//! tables, atomic cells, probe list, and the store's lane-apply scratch
//! all at capacity), a full block cycle — dependency partition, lane
//! validation, and lane-parallel commit via
//! [`StateStore::apply_write_batch_lanes`] — performs **zero heap
//! allocations** in release builds. The whole steady-state path runs on
//! reused scratch: key clones are refcount bumps, lane dispatch reuses
//! the persistent pool, and chain inserts stay within trimmed capacity.
//! Debug builds get a small bound for the standard library's debug
//! machinery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Key, Transaction, TxId, Value, Version,
};
use fabric_ledger::Block;
use fabric_peer::LaneScheduler;
use fabric_statedb::{CommitWrite, MemStateDb, StateStore, WriteBatch, WriteRef};
use fabric_trace::TraceSink;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn key(i: u64) -> Key {
    Key::composite("K", i)
}

const TXS: usize = 128;

/// Block `number` of the steady workload. Every block has the same shape
/// so scratch capacities stop growing after the first few cycles:
/// - reads target keys `0..96`, which no transaction ever writes, pinned
///   at their genesis versions — always valid against the store;
/// - writes target keys `128..256`, two per transaction, so committed
///   chains keep turning over (and trimming) block after block;
/// - every `t % 8 == 5` transaction additionally reads a key written by
///   transaction `t - 1`, forcing a same-chain in-block conflict each
///   block (the fail-slot path stays hot);
/// - the caller fails endorsement for every `t % 16 == 3` transaction.
fn make_block(number: u64) -> Block {
    let transactions: Vec<Transaction> = (0..TXS)
        .map(|t| {
            let mut b = RwSetBuilder::new();
            for r in 0..4u64 {
                b.record_read(key((t as u64 * 7 + r * 31) % 96), Some(Version::GENESIS));
            }
            if t % 8 == 5 {
                // Written in-block by transaction t - 1: chained conflict.
                b.record_read(key(128 + ((t as u64 - 1) * 2) % 128), Some(Version::GENESIS));
            }
            for w in 0..2u64 {
                b.record_write(
                    key(128 + (t as u64 * 2 + w) % 128),
                    Some(Value::from_i64((number * 1000 + t as u64) as i64)),
                );
            }
            Transaction {
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
    Block::build(number, Digest::ZERO, transactions)
}

#[test]
fn steady_state_lane_block_cycle_does_not_allocate() {
    let store = MemStateDb::with_shards(8);
    let genesis: Vec<CommitWrite> =
        (0..256).map(|i| CommitWrite::put(key(i), Value::from_i64(0), 0)).collect();
    store.apply_block(0, &genesis).unwrap();

    let blocks: Vec<Block> = (1..=12).map(make_block).collect();
    let endorsement_ok: Vec<bool> = (0..TXS).map(|t| t % 16 != 3).collect();
    let sched = LaneScheduler::new(4);
    let sink = TraceSink::disabled();
    let mut codes = Vec::new();
    let mut batch = WriteBatch::new(0);

    let mut cycle = |i: usize| {
        let block = &blocks[i];
        sched
            .validate(block, &store, &endorsement_ok, &mut codes, &sink)
            .unwrap();
        batch.block = block.header.number;
        batch.writes.clear();
        for (p, tx) in block.txs.iter().enumerate() {
            if codes[p].is_valid() {
                for e in tx.rwset.writes.entries() {
                    batch.writes.push(WriteRef {
                        key: &e.key,
                        value: e.value.as_ref(),
                        tx: p as u32,
                    });
                }
            }
        }
        store.apply_write_batch_lanes(&batch, sched.pool()).unwrap();
        codes.iter().filter(|c| c.is_valid()).count()
    };

    // Warm-up: partition tables, atomic cells, probe list, codes vec, the
    // store's lane-apply scratch, and per-key chain capacity (retained
    // depth is reached after 4 committed versions) all go steady.
    let mut mix = 0;
    for i in 0..4 {
        mix = cycle(i);
    }
    assert!(mix > 0 && mix < TXS, "both outcomes exercised");

    let before = allocations();
    for i in 4..12 {
        assert_eq!(cycle(i), mix, "code mix is shape-stable across blocks");
    }
    let allocated = allocations() - before;

    assert_eq!(store.last_committed_block(), 12);
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{allocated} allocations in debug steady state");
    } else {
        assert_eq!(
            allocated, 0,
            "warm lane validation + lane commit must not allocate"
        );
    }
}
