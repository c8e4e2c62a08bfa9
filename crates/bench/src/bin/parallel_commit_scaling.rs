//! **Parallel commit scaling** — dependency-aware lane-parallel
//! validation + commit ([`LaneScheduler`] + `apply_write_batch_lanes`)
//! against the sequential block-order path, swept over block size ×
//! conflict rate × lane count.
//!
//! The *sequential* baseline is the shipped single-threaded hot path: the
//! batched MVCC scan in block order, then one `apply_write_batch`. The
//! *lanes* path partitions each block into dependency chains (union-find
//! over the interned read/write sets), validates independent chains concurrently on
//! `commit_lanes` persistent worker lanes, and installs the write batch's
//! shard groups on the same lanes. The conflict-rate knob steers how many
//! transactions share keys: at 0.0 every transaction is its own chain
//! (maximum available parallelism); at 0.9 most transactions serialize
//! into a few hot chains and the `chain_serializations` column shows the
//! scheduler degrading to block order exactly where it must.
//!
//! Rows include the lane-occupancy counters (`lanes_used`,
//! `chain_serializations` per block) so the table shows *why* a cell
//! scales or does not. On a single-core host the honest expectation is
//! parity (speedup ≈ 1.0 minus dispatch overhead) — the differential
//! gate, not the speedup, is the point there.
//!
//! `--smoke` (used by CI) runs only the differential gate: at 2/4/8 lanes
//! and on both engines (memory + LSM) the lane path must produce
//! **bit-identical** validation codes, post-state, and watermark as the
//! sequential baseline, with identical store-read traffic (one prefetch
//! batch per block, zero point gets).

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use fabric_bench::runner::print_row;
use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Key, Transaction, TxId, ValidationCode, Value, Version,
};
use fabric_ledger::Block;
use fabric_peer::validator::{mvcc_validate_into, MvccScratch};
use fabric_peer::LaneScheduler;
use fabric_statedb::{
    CommitWrite, LsmConfig, LsmStateDb, MemStateDb, StateStore, WriteBatch, WriteRef,
};
use fabric_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(i: u64) -> Key {
    Key::composite("K", i)
}

/// Builds `count` blocks of `block_size` transactions. Each transaction
/// reads 4 keys and writes 2. With probability `conflict` a key comes
/// from a 16-key hot set (forcing transactions into shared dependency
/// chains); otherwise from a per-transaction disjoint slice of the
/// working set, so at `conflict = 0` every transaction is an independent
/// chain. Reads claim the version the generator's model predicts, so
/// blocks are mostly valid modulo in-block conflicts — which both paths
/// must resolve identically.
fn make_blocks(count: usize, block_size: usize, conflict: f64, seed: u64) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(seed);
    let working = (block_size * 8) as u64;
    let mut model: HashMap<u64, Version> = (0..working).map(|i| (i, Version::GENESIS)).collect();

    (0..count)
        .map(|b| {
            let block_num = (b + 1) as u64;
            let mut staged: Vec<(u64, Version)> = Vec::new();
            let mut written_in_block: HashSet<u64> = HashSet::new();
            let txs: Vec<Transaction> = (0..block_size)
                .map(|tx_num| {
                    // Disjoint per-transaction home range: 6 keys.
                    let home = (tx_num as u64) * 6 % working;
                    let pick = |slot: u64, rng: &mut StdRng| -> u64 {
                        if rng.random::<f64>() < conflict {
                            rng.random_range(0..16)
                        } else {
                            (home + slot) % working
                        }
                    };
                    let mut bld = RwSetBuilder::new();
                    let mut reads = Vec::with_capacity(4);
                    for s in 0..4 {
                        let k = pick(s, &mut rng);
                        reads.push(k);
                        bld.record_read(key(k), model.get(&k).copied());
                    }
                    let mut writes = Vec::with_capacity(2);
                    for s in 4..6 {
                        let k = pick(s, &mut rng);
                        writes.push(k);
                        bld.record_write(key(k), Some(Value::from_i64((b * 8 + tx_num) as i64)));
                    }
                    if reads.iter().all(|k| !written_in_block.contains(k)) {
                        for &k in &writes {
                            written_in_block.insert(k);
                            staged.push((k, Version::new(block_num, tx_num as u32)));
                        }
                    }
                    Transaction {
                        id: TxId::next(),
                        channel: ChannelId(0),
                        client: ClientId(0),
                        chaincode: "cc".into(),
                        rwset: bld.build(),
                        endorsements: vec![],
                        created_at: Instant::now(),
                    }
                })
                .collect();
            for (k, v) in staged {
                model.insert(k, v);
            }
            Block::build(block_num, Digest::ZERO, txs)
        })
        .collect()
}

fn genesis_writes(working: u64) -> Vec<CommitWrite> {
    (0..working).map(|i| CommitWrite::put(key(i), Value::from_i64(0), 0)).collect()
}

fn fresh_mem(working: u64) -> MemStateDb {
    let db = MemStateDb::new();
    db.apply_block(0, &genesis_writes(working)).expect("genesis");
    db
}

/// The sequential hot path exactly as a lane-less peer runs it.
fn run_sequential(
    store: &dyn StateStore,
    blocks: &[Block],
) -> (Duration, Vec<Vec<ValidationCode>>) {
    let mut scratch = MvccScratch::new();
    let endorsement_ok: Vec<bool> =
        vec![true; blocks.iter().map(|b| b.txs.len()).max().unwrap_or(0)];
    let t0 = Instant::now();
    let mut all_codes = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut codes = Vec::with_capacity(block.txs.len());
        mvcc_validate_into(
            block,
            store,
            &endorsement_ok[..block.txs.len()],
            &mut scratch,
            &mut codes,
        )
        .unwrap();
        apply(store, block, &codes, None);
        all_codes.push(codes);
    }
    (t0.elapsed(), all_codes)
}

/// The lane path exactly as a lane-configured peer runs it: partition +
/// lane-parallel MVCC, then the lane-parallel shard install.
fn run_lanes(
    store: &dyn StateStore,
    blocks: &[Block],
    sched: &LaneScheduler,
) -> (Duration, Vec<Vec<ValidationCode>>) {
    let endorsement_ok: Vec<bool> =
        vec![true; blocks.iter().map(|b| b.txs.len()).max().unwrap_or(0)];
    let sink = TraceSink::disabled();
    let t0 = Instant::now();
    let mut all_codes = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut codes = Vec::with_capacity(block.txs.len());
        let occ = sched
            .validate(block, store, &endorsement_ok[..block.txs.len()], &mut codes, &sink)
            .unwrap();
        store.counters().record_lane_commit(occ.lanes_used, occ.chain_serializations);
        apply(store, block, &codes, Some(sched));
        all_codes.push(codes);
    }
    (t0.elapsed(), all_codes)
}

fn apply(store: &dyn StateStore, block: &Block, codes: &[ValidationCode], lanes: Option<&LaneScheduler>) {
    let mut batch = WriteBatch::new(block.header.number);
    for (tx_num, (tx, code)) in block.txs.iter().zip(codes).enumerate() {
        if code.is_valid() {
            for e in tx.rwset.writes.entries() {
                batch.push(WriteRef { key: &e.key, value: e.value.as_ref(), tx: tx_num as u32 });
            }
        }
    }
    match lanes {
        Some(s) => store.apply_write_batch_lanes(&batch, s.pool()).unwrap(),
        None => store.apply_write_batch(&batch).unwrap(),
    }
}

/// The CI gate: at every lane count and on both engines the lane path is
/// bit-identical to the sequential baseline — codes, post-state,
/// watermark — with the same batched-read traffic.
fn differential_check(lane_sweep: &[usize]) {
    let block_size = 128;
    let working = (block_size * 8) as u64;
    let lo = key(0);
    let hi = key(working + 1);
    for &conflict in &[0.0f64, 0.5, 0.9] {
        let blocks = make_blocks(6, block_size, conflict, 1234);
        let seq_store = fresh_mem(working);
        let (_, seq_codes) = run_sequential(&seq_store, &blocks);
        let valid = seq_codes.iter().flatten().filter(|c| c.is_valid()).count();
        let invalid = seq_codes.iter().flatten().filter(|c| !c.is_valid()).count();
        if conflict > 0.0 {
            assert!(
                valid > 0 && invalid > 0,
                "differential input must exercise both outcomes \
                 (conflict={conflict}: valid={valid} invalid={invalid})"
            );
        }
        for &lanes in lane_sweep {
            let sched = LaneScheduler::new(lanes);
            // Memory engine: lane-parallel validate AND lane-parallel
            // shard install.
            let mem = fresh_mem(working);
            let base = mem.counters().snapshot();
            let (_, lane_codes) = run_lanes(&mem, &blocks, &sched);
            let stats = mem.counters().snapshot().since(&base);
            assert_eq!(
                lane_codes, seq_codes,
                "codes diverge at {lanes} lanes, conflict {conflict}"
            );
            assert_eq!(mem.last_committed_block(), seq_store.last_committed_block());
            assert_eq!(
                mem.scan_range(&lo, &hi).unwrap(),
                seq_store.scan_range(&lo, &hi).unwrap(),
                "post-state diverges at {lanes} lanes, conflict {conflict}"
            );
            assert_eq!(stats.multi_get_batches, blocks.len() as u64, "one prefetch per block");
            assert_eq!(stats.point_gets, 0, "no per-read point gets on the lane path");
            if lanes > 1 {
                assert!(stats.lanes_used > 0, "occupancy counters recorded");
            }

            // LSM engine: same lane validation; the engine keeps its
            // serial group-commit apply (the default), and the result must
            // still be identical.
            let dir = std::env::temp_dir()
                .join(format!("fabric-pcs-{}-{lanes}-{}", std::process::id(), conflict));
            let _ = std::fs::remove_dir_all(&dir);
            let lsm = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
            lsm.apply_block(0, &genesis_writes(working)).unwrap();
            let (_, lsm_codes) = run_lanes(&lsm, &blocks, &sched);
            assert_eq!(
                lsm_codes, seq_codes,
                "LSM codes diverge at {lanes} lanes, conflict {conflict}"
            );
            assert_eq!(
                lsm.scan_range(&lo, &hi).unwrap(),
                seq_store.scan_range(&lo, &hi).unwrap(),
                "LSM post-state diverges at {lanes} lanes, conflict {conflict}"
            );
            drop(lsm);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    fabric_bench::smoke::record(
        "parallel_commit_scaling",
        "lanes-vs-sequential",
        true,
        "lane codes+post-state == sequential baseline at 2/4/8 lanes, \
         conflict 0.0/0.5/0.9, memory + LSM engines, one prefetch per block",
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let lane_sweep: &[usize] = &[2, 4, 8];
    differential_check(if smoke { &[2, 4, 8] } else { lane_sweep });
    if smoke {
        // CI cares about the gate, not single-core timing noise.
        return;
    }

    let mut header = false;
    for &block_size in &[256usize, 1024] {
        for &conflict in &[0.0f64, 0.5, 0.9] {
            let blocks = make_blocks(24, block_size, conflict, 7);
            let working = (block_size * 8) as u64;
            let txs = blocks.len() * block_size;
            // Sequential baseline: min of three runs, fresh store each.
            let seq = (0..3)
                .map(|_| run_sequential(&fresh_mem(working), &blocks).0)
                .min()
                .unwrap();
            for &lanes in &[1usize, 2, 4, 8] {
                let sched = LaneScheduler::new(lanes);
                let mut lane_time = Duration::MAX;
                let mut stats = Default::default();
                for _ in 0..3 {
                    let store = fresh_mem(working);
                    let base = store.counters().snapshot();
                    let (elapsed, _) = run_lanes(&store, &blocks, &sched);
                    if elapsed < lane_time {
                        lane_time = elapsed;
                    }
                    stats = store.counters().snapshot().since(&base);
                }
                let seq_ms = seq.as_secs_f64() * 1e3;
                let lane_ms = lane_time.as_secs_f64() * 1e3;
                let nblocks = blocks.len() as f64;
                print_row(
                    &mut header,
                    &[
                        ("block_size", block_size.to_string()),
                        ("conflict", format!("{conflict:.1}")),
                        ("lanes", lanes.to_string()),
                        ("blocks", blocks.len().to_string()),
                        ("seq_ms", format!("{seq_ms:.1}")),
                        ("lanes_ms", format!("{lane_ms:.1}")),
                        (
                            "ktps_lanes",
                            format!("{:.1}", txs as f64 / lane_time.as_secs_f64() / 1e3),
                        ),
                        ("lanes_used_avg", format!("{:.2}", stats.lanes_used as f64 / nblocks)),
                        (
                            "chain_serializations_per_block",
                            format!("{:.1}", stats.chain_serializations as f64 / nblocks),
                        ),
                        ("speedup_vs_seq", format!("{:.2}", seq_ms / lane_ms)),
                    ],
                );
            }
        }
    }
}
