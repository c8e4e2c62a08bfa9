//! The in-memory chain: appends verify linkage; the whole chain can be
//! audited after the fact.

use std::sync::Arc;

use parking_lot::RwLock;

use fabric_common::{BlockNum, Digest, Error, Result, TxId, ValidationCode};

use crate::block::{Block, CommittedBlock};

/// A peer's local copy of the blockchain.
///
/// Appends are checked: block numbers must be consecutive and each block's
/// `prev_hash` must equal the previous header's hash. Thread-safe; readers
/// do not block each other. Blocks are stored behind [`Arc`], so handing a
/// committed block back to the pipeline (or out of [`Ledger::get`]) is a
/// reference-count bump, not a deep clone.
#[derive(Default)]
pub struct Ledger {
    chain: RwLock<Vec<Arc<CommittedBlock>>>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed block after verifying chain linkage and the data
    /// hash. The block is moved in once (or, already shared, adopted
    /// without a copy — every peer of a channel holds the same genesis
    /// block) and returned as a shared handle.
    pub fn append(&self, cb: impl Into<Arc<CommittedBlock>>) -> Result<Arc<CommittedBlock>> {
        let cb = cb.into();
        if !cb.block.verify_data_hash() {
            return Err(Error::Corruption(format!(
                "block {}: data hash does not match transactions",
                cb.block.header.number
            )));
        }
        let mut chain = self.chain.write();
        let expected_number = chain.len() as BlockNum;
        if cb.block.header.number != expected_number {
            return Err(Error::InvalidState(format!(
                "append of block {} but chain height is {expected_number}",
                cb.block.header.number
            )));
        }
        let expected_prev = match chain.last() {
            Some(prev) => prev.block.header.hash(),
            None => Digest::ZERO,
        };
        if cb.block.header.prev_hash != expected_prev {
            return Err(Error::Corruption(format!(
                "block {}: prev_hash does not match chain tip",
                cb.block.header.number
            )));
        }
        chain.push(Arc::clone(&cb));
        Ok(cb)
    }

    /// Number of blocks in the chain.
    pub fn height(&self) -> u64 {
        self.chain.read().len() as u64
    }

    /// The hash of the chain tip's header ([`Digest::ZERO`] when empty) —
    /// what the next block must link to.
    pub fn tip_hash(&self) -> Digest {
        let chain = self.chain.read();
        match chain.last() {
            Some(cb) => cb.block.header.hash(),
            None => Digest::ZERO,
        }
    }

    /// Shared handle to block `number`, if present.
    pub fn get(&self, number: BlockNum) -> Option<Arc<CommittedBlock>> {
        self.chain.read().get(number as usize).cloned()
    }

    /// Full-chain audit: recompute every linkage and data hash.
    pub fn verify_chain(&self) -> Result<()> {
        let chain = self.chain.read();
        let mut prev = Digest::ZERO;
        for (i, cb) in chain.iter().enumerate() {
            if cb.block.header.number != i as BlockNum {
                return Err(Error::Corruption(format!(
                    "block at index {i} has number {}",
                    cb.block.header.number
                )));
            }
            if cb.block.header.prev_hash != prev {
                return Err(Error::Corruption(format!("block {i}: broken prev_hash link")));
            }
            if !cb.block.verify_data_hash() {
                return Err(Error::Corruption(format!("block {i}: data hash mismatch")));
            }
            prev = cb.block.header.hash();
        }
        Ok(())
    }

    /// Looks up the final validation code of a transaction anywhere in the
    /// chain (linear scan; diagnostics and tests only).
    pub fn find_tx(&self, id: TxId) -> Option<(BlockNum, ValidationCode)> {
        let chain = self.chain.read();
        for cb in chain.iter() {
            for (tx, code) in cb.iter() {
                if tx.id == id {
                    return Some((cb.block.header.number, code));
                }
            }
        }
        None
    }

    /// Totals of (valid, invalid) transactions across the whole chain.
    pub fn tx_totals(&self) -> (u64, u64) {
        let chain = self.chain.read();
        let mut valid = 0u64;
        let mut invalid = 0u64;
        for cb in chain.iter() {
            let v = cb.valid_count() as u64;
            valid += v;
            invalid += cb.block.txs.len() as u64 - v;
        }
        (valid, invalid)
    }

    /// Runs `f` over every committed block in order.
    pub fn for_each(&self, mut f: impl FnMut(&CommittedBlock)) {
        for cb in self.chain.read().iter() {
            f(cb);
        }
    }

    /// The full write history of `key` across the chain — Fabric's
    /// `GetHistoryForKey`. Returns one entry per *valid* transaction that
    /// wrote the key, oldest first: the committing block, the transaction
    /// id, and the written value (`None` = the key was deleted).
    pub fn history_of(&self, key: &fabric_common::Key) -> Vec<HistoryEntry> {
        let chain = self.chain.read();
        let mut out = Vec::new();
        for cb in chain.iter() {
            for (tx, code) in cb.iter() {
                if !code.is_valid() {
                    continue;
                }
                if let Some(value) = tx.rwset.writes.value_of(key) {
                    out.push(HistoryEntry {
                        block: cb.block.header.number,
                        tx: tx.id,
                        value: value.cloned(),
                    });
                }
            }
        }
        out
    }
}

/// One write in a key's history (see [`Ledger::history_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Block that committed the write.
    pub block: BlockNum,
    /// The writing transaction.
    pub tx: TxId,
    /// The written value; `None` records a delete.
    pub value: Option<fabric_common::Value>,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ledger(height={})", self.height())
    }
}

/// Convenience: builds the next block linked to this ledger's tip.
pub fn next_block(ledger: &Ledger, txs: Vec<fabric_common::Transaction>) -> Block {
    Block::build(ledger.height(), ledger.tip_hash(), txs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{ChannelId, ClientId, Key, Transaction, Value, Version};
    use std::time::Instant;

    fn tx(seed: u64) -> Transaction {
        Transaction {
            id: TxId(seed),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: rwset_from_keys(
                &[Key::composite("k", seed)],
                Version::GENESIS,
                &[Key::composite("k", seed)],
                &Value::from_i64(seed as i64),
            ),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    fn committed(block: Block) -> CommittedBlock {
        let n = block.txs.len();
        CommittedBlock::new(block, vec![ValidationCode::Valid; n]).unwrap()
    }

    #[test]
    fn append_and_audit() {
        let ledger = Ledger::new();
        for b in 0..5u64 {
            let block = next_block(&ledger, vec![tx(b * 2), tx(b * 2 + 1)]);
            ledger.append(committed(block)).unwrap();
        }
        assert_eq!(ledger.height(), 5);
        ledger.verify_chain().unwrap();
        assert_eq!(ledger.tx_totals(), (10, 0));
    }

    #[test]
    fn wrong_number_rejected() {
        let ledger = Ledger::new();
        let block = Block::build(3, Digest::ZERO, vec![]);
        assert!(ledger.append(committed(block)).is_err());
    }

    #[test]
    fn wrong_prev_hash_rejected() {
        let ledger = Ledger::new();
        ledger.append(committed(next_block(&ledger, vec![tx(1)]))).unwrap();
        // Forge a block 1 that links to ZERO instead of the tip.
        let forged = Block::build(1, Digest::ZERO, vec![tx(2)]);
        assert!(matches!(ledger.append(committed(forged)), Err(Error::Corruption(_))));
    }

    #[test]
    fn tampered_data_hash_rejected() {
        let ledger = Ledger::new();
        let mut block = next_block(&ledger, vec![tx(1)]);
        block.txs.push(tx(99)); // contents no longer match data_hash
        let cb = CommittedBlock::new(block, vec![ValidationCode::Valid; 2]).unwrap();
        assert!(matches!(ledger.append(cb), Err(Error::Corruption(_))));
    }

    #[test]
    fn find_tx_locates_codes() {
        let ledger = Ledger::new();
        let block = next_block(&ledger, vec![tx(10), tx(11)]);
        let cb = CommittedBlock::new(
            block,
            vec![ValidationCode::Valid, ValidationCode::MvccConflict],
        )
        .unwrap();
        ledger.append(cb).unwrap();
        assert_eq!(ledger.find_tx(TxId(10)), Some((0, ValidationCode::Valid)));
        assert_eq!(ledger.find_tx(TxId(11)), Some((0, ValidationCode::MvccConflict)));
        assert_eq!(ledger.find_tx(TxId(999)), None);
    }

    #[test]
    fn invalid_txs_are_still_stored() {
        // Paper §2.2.4: the ledger holds valid AND invalid transactions.
        let ledger = Ledger::new();
        let block = next_block(&ledger, vec![tx(1), tx(2), tx(3)]);
        let cb = CommittedBlock::new(
            block,
            vec![
                ValidationCode::Valid,
                ValidationCode::MvccConflict,
                ValidationCode::EndorsementFailure,
            ],
        )
        .unwrap();
        ledger.append(cb).unwrap();
        assert_eq!(ledger.tx_totals(), (1, 2));
        let stored = ledger.get(0).unwrap();
        assert_eq!(stored.block.txs.len(), 3);
    }

    #[test]
    fn get_out_of_range() {
        let ledger = Ledger::new();
        assert!(ledger.get(0).is_none());
        assert_eq!(ledger.tip_hash(), Digest::ZERO);
    }

    #[test]
    fn for_each_visits_in_order() {
        let ledger = Ledger::new();
        for b in 0..3u64 {
            ledger.append(committed(next_block(&ledger, vec![tx(b)]))).unwrap();
        }
        let mut numbers = Vec::new();
        ledger.for_each(|cb| numbers.push(cb.block.header.number));
        assert_eq!(numbers, vec![0, 1, 2]);
    }

    #[test]
    fn history_of_tracks_valid_writes_only() {
        use fabric_common::rwset::RwSetBuilder;
        let ledger = Ledger::new();

        let write_tx = |id: u64, key: &str, val: Option<i64>| {
            let mut b = RwSetBuilder::new();
            b.record_write(Key::from(key), val.map(Value::from_i64));
            Transaction {
                id: TxId(id),
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset: b.build(),
                endorsements: vec![],
                created_at: Instant::now(),
            }
        };
        // Block 0: valid write k=1, plus an INVALID write k=99.
        let b0 = next_block(&ledger, vec![write_tx(1, "k", Some(1)), write_tx(2, "k", Some(99))]);
        ledger
            .append(
                CommittedBlock::new(b0, vec![ValidationCode::Valid, ValidationCode::MvccConflict])
                    .unwrap(),
            )
            .unwrap();
        // Block 1: update then (block 2) delete.
        let b1 = next_block(&ledger, vec![write_tx(3, "k", Some(2))]);
        ledger.append(CommittedBlock::new(b1, vec![ValidationCode::Valid]).unwrap()).unwrap();
        let b2 = next_block(&ledger, vec![write_tx(4, "k", None)]);
        ledger.append(CommittedBlock::new(b2, vec![ValidationCode::Valid]).unwrap()).unwrap();

        let hist = ledger.history_of(&Key::from("k"));
        assert_eq!(hist.len(), 3, "invalid write excluded");
        assert_eq!(hist[0].block, 0);
        assert_eq!(hist[0].tx, TxId(1));
        assert_eq!(hist[0].value, Some(Value::from_i64(1)));
        assert_eq!(hist[1].value, Some(Value::from_i64(2)));
        assert_eq!(hist[2].value, None, "delete recorded");
        assert!(ledger.history_of(&Key::from("never")).is_empty());
    }

    #[test]
    fn concurrent_appends_stay_consistent() {
        // Appends are serialized by the write lock; concurrent attempts with
        // the same height race, exactly one wins per height.
        let ledger = std::sync::Arc::new(Ledger::new());
        for b in 0..50u64 {
            let block = next_block(&ledger, vec![tx(b)]);
            ledger.append(committed(block)).unwrap();
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let l = std::sync::Arc::clone(&ledger);
                std::thread::spawn(move || l.verify_chain().unwrap())
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
    }
}
