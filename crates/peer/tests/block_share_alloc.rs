//! Asserts the allocation contract behind sharing sealed blocks: archiving
//! a block and broadcasting it over four links costs the same number of
//! heap allocations for a 16-transaction and a 1024-transaction block,
//! because every copy is a header plus one reference-count bump on the
//! block's single transaction list. A deep copy per link would allocate
//! per transaction, key and signature.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Endorsement, Key, OrgId, PeerId, Signature, Transaction, TxId,
    Value, Version,
};
use fabric_ledger::{Block, BlockTxs};
use fabric_net::{link, FaultyBroadcaster, LatencyModel, NetStats, NoFaults};

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

/// A sealed block of `txs` endorsed transactions, each reading 2 and
/// writing 2 keys.
fn make_block(txs: usize) -> Block {
    let transactions: Vec<Transaction> = (0..txs as u64)
        .map(|t| {
            let mut b = RwSetBuilder::new();
            for k in 0..2 {
                b.record_read(Key::composite("r", t * 2 + k), Some(Version::GENESIS));
                b.record_write(
                    Key::composite("w", t * 2 + k),
                    Some(Value::from_i64(t as i64)),
                );
            }
            Transaction {
                id: TxId::next(),
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset: b.build(),
                endorsements: vec![Endorsement {
                    peer: PeerId(0),
                    org: OrgId(0),
                    signature: Signature([7; 32]),
                }],
                created_at: Instant::now(),
            }
        })
        .collect();
    Block::build(1, Digest::ZERO, transactions)
}

/// Allocations taken by the orderer's hand-off of one sealed block: the
/// archive push, then a broadcast over 2 direct and 2 gossip links. Fresh
/// links and archive each call, so both block sizes start from the same
/// channel state. Checks every delivered copy shares the block's list.
fn hand_off_allocations(txs: usize) -> u64 {
    let block = make_block(txs);
    let size = block.byte_size();
    let stats = NetStats::new();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..4)
        .map(|_| link::<Block>(LatencyModel::zero(), stats.clone()))
        .unzip();
    let mut senders = senders;
    let gossip = senders.split_off(2);
    let broadcaster = FaultyBroadcaster::wrap(senders, gossip, Arc::new(NoFaults), |i| i as u32);
    let mut archive: Vec<Block> = Vec::with_capacity(1);

    let before = allocations();
    archive.push(block.clone());
    let alive = broadcaster.broadcast(&block, size);
    let allocated = allocations() - before;

    assert_eq!(alive, 4);
    assert!(BlockTxs::ptr_eq(&archive[0].txs, &block.txs));
    for rx in &receivers {
        let got = rx.recv().unwrap();
        assert_eq!(got.header, block.header);
        assert!(
            BlockTxs::ptr_eq(&got.txs, &block.txs),
            "a link delivered its own copy"
        );
    }
    allocated
}

#[test]
fn sharing_a_sealed_block_costs_the_same_at_any_size() {
    // Warm-up: first-use allocations of the standard library and the
    // channel machinery land outside the compared runs.
    hand_off_allocations(16);
    let small = hand_off_allocations(16);
    let large = hand_off_allocations(1024);
    assert_eq!(
        small, large,
        "archiving + broadcasting a 16-tx block took {small} allocations, a 1024-tx block {large}"
    );
}
