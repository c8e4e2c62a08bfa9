//! Corruption injection: plants a known class of nondeterminism bug
//! into a replica's collected artifacts, so the comparator can prove —
//! in tests and in the CI self-test gate — that it catches each class
//! with the right localization and root-cause hint. Corruptions edit the
//! *artifacts*, not the pipeline, which keeps the injected bug precisely
//! shaped and the real pipeline honest.

use fabric_common::codec::{Decode, Decoder, Encode};
use fabric_common::{Error, Result};
use fabric_ledger::{Block, CommittedBlock};

use crate::artifacts::{ReplicaArtifacts, BLOCK_STREAM, CHAIN_FINGERPRINT};

/// A known nondeterminism-bug shape to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Rotates the (transaction, validity) pairs of the first block with
    /// at least two transactions and recomputes its data hash — what a
    /// hash-map iteration order leaking into block assembly looks like:
    /// same transactions, different order.
    ShuffleTxOrder,
    /// Overwrites the 8 bytes at offset 16 of the chain fingerprint with
    /// a wall-clock-like value — what a serialized timestamp looks like.
    /// Inject *different* near-equal values into the two compared
    /// replicas (as a real leak would) to exercise the timestamp hint.
    TimestampLeak(u64),
    /// Drops the last `n` bytes of the block stream — a truncated or
    /// partially-flushed stream.
    TruncateTail(usize),
}

/// Applies `corruption` to `replica`'s artifacts in place.
pub fn apply(replica: &mut ReplicaArtifacts, corruption: &Corruption) -> Result<()> {
    match corruption {
        Corruption::ShuffleTxOrder => shuffle_tx_order(replica),
        Corruption::TimestampLeak(value) => {
            let art = replica
                .artifact_mut(CHAIN_FINGERPRINT)
                .ok_or_else(|| Error::Config("no chain fingerprint artifact".into()))?;
            if art.bytes.len() < 24 {
                return Err(Error::Config("chain fingerprint too short to corrupt".into()));
            }
            art.bytes[16..24].copy_from_slice(&value.to_le_bytes());
            Ok(())
        }
        Corruption::TruncateTail(n) => {
            let art = replica
                .artifact_mut(BLOCK_STREAM)
                .ok_or_else(|| Error::Config("no block stream artifact".into()))?;
            if *n == 0 || *n >= art.bytes.len() {
                return Err(Error::Config(format!(
                    "cannot truncate {} of {} bytes",
                    n,
                    art.bytes.len()
                )));
            }
            art.bytes.truncate(art.bytes.len() - n);
            Ok(())
        }
    }
}

fn shuffle_tx_order(replica: &mut ReplicaArtifacts) -> Result<()> {
    let art = replica
        .artifact_mut(BLOCK_STREAM)
        .ok_or_else(|| Error::Config("no block stream artifact".into()))?;
    let mut dec = Decoder::new(&art.bytes);
    let mut blocks = Vec::new();
    while dec.remaining() > 0 {
        blocks.push(CommittedBlock::decode(&mut dec)?);
    }
    let target = blocks
        .iter_mut()
        .find(|cb| cb.block.txs.len() >= 2)
        .ok_or_else(|| Error::Config("no block with >= 2 transactions to shuffle".into()))?;
    let mut txs = target.block.txs.to_vec();
    let mut validity = target.validity.clone();
    txs.rotate_left(1);
    validity.rotate_left(1);
    // Rebuild with a recomputed data hash: an assembly-order bug scrambles
    // the transactions before hashing, so the hash diverges too.
    let rebuilt =
        Block::build(target.block.header.number, target.block.header.prev_hash, txs);
    *target = CommittedBlock::new(rebuilt, validity)?;

    let mut stream = Vec::new();
    let mut offsets = Vec::new();
    for cb in &blocks {
        offsets.push((cb.block.header.number, stream.len()));
        stream.extend_from_slice(&cb.encode_to_vec());
    }
    art.bytes = stream;
    art.block_offsets = offsets;
    Ok(())
}
