//! Blocks: ordered by the ordering service, committed (with per-transaction
//! validity flags) by the peers.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::hash::Sha256;
use fabric_common::rwset::ReadWriteSet;
use fabric_common::{
    BlockNum, ChannelId, ClientId, Digest, Endorsement, Error, OrgId, PeerId, Result,
    Signature, Transaction, TxId, ValidationCode,
};

/// Block header: sequence number plus the two hashes that chain blocks
/// together and bind their contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Sequence number in the chain (genesis = 0).
    pub number: BlockNum,
    /// Hash of the previous block's header ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Hash over the canonical bytes of the block's transactions.
    pub data_hash: Digest,
}

impl BlockHeader {
    /// The header's own hash — what the next block's `prev_hash` must equal.
    pub fn hash(&self) -> Digest {
        let mut enc = Encoder::with_capacity(8 + 64);
        enc.put_u64(self.number);
        let mut h = Sha256::new();
        h.update(enc.as_slice());
        h.update(self.prev_hash.as_bytes());
        h.update(self.data_hash.as_bytes());
        h.finalize()
    }
}

/// A sealed block's ordered transactions: immutable and shared.
///
/// The orderer's archive, every broadcast link and every peer's ledger hold
/// the same allocation, so cloning a [`Block`] copies its header and bumps
/// one reference count. Nothing can mutate the transactions once sealed,
/// so the header's `data_hash` cannot go stale.
#[derive(Debug, Clone)]
pub struct BlockTxs(Arc<[Transaction]>);

impl BlockTxs {
    /// Whether `a` and `b` share one allocation (not merely equal contents).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for BlockTxs {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.0
    }
}

impl From<Vec<Transaction>> for BlockTxs {
    fn from(txs: Vec<Transaction>) -> Self {
        BlockTxs(txs.into())
    }
}

impl<'a> IntoIterator for &'a BlockTxs {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A block as emitted by the ordering service: ordered transactions, not yet
/// validated.
#[derive(Debug, Clone)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The ordered transactions (possibly reordered by Fabric++), shared by
    /// every clone of the block.
    pub txs: BlockTxs,
}

impl Block {
    /// Builds a block from ordered transactions, computing the data hash
    /// and linking to `prev_hash`.
    pub fn build(number: BlockNum, prev_hash: Digest, txs: Vec<Transaction>) -> Self {
        let data_hash = Self::compute_data_hash(&txs);
        Block { header: BlockHeader { number, prev_hash, data_hash }, txs: txs.into() }
    }

    /// Hash over every transaction's signing payload and endorsements.
    pub fn compute_data_hash(txs: &[Transaction]) -> Digest {
        let mut h = Sha256::new();
        for tx in txs {
            h.update(&tx.payload());
            for e in &tx.endorsements {
                h.update(&e.peer.raw().to_le_bytes());
                h.update(&e.signature.0);
            }
        }
        h.finalize()
    }

    /// Verifies that the stored data hash matches the transactions.
    pub fn verify_data_hash(&self) -> bool {
        Self::compute_data_hash(&self.txs) == self.header.data_hash
    }

    /// Approximate wire size in bytes (network accounting).
    pub fn byte_size(&self) -> usize {
        72 + self.txs.iter().map(Transaction::byte_size).sum::<usize>()
    }
}

/// A block after validation: the ordered transactions plus one
/// [`ValidationCode`] per transaction — Fabric's validity bitmap.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// The block as received from ordering.
    pub block: Block,
    /// Outcome per transaction, parallel to `block.txs`.
    pub validity: Vec<ValidationCode>,
}

impl CommittedBlock {
    /// Creates a committed block, checking the flags line up.
    pub fn new(block: Block, validity: Vec<ValidationCode>) -> Result<Self> {
        if block.txs.len() != validity.len() {
            return Err(Error::InvalidState(format!(
                "validity flags ({}) do not match transaction count ({})",
                validity.len(),
                block.txs.len()
            )));
        }
        Ok(CommittedBlock { block, validity })
    }

    /// Number of valid transactions in the block.
    pub fn valid_count(&self) -> usize {
        self.validity.iter().filter(|c| c.is_valid()).count()
    }

    /// Iterates `(transaction, code)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Transaction, ValidationCode)> {
        self.block.txs.iter().zip(self.validity.iter().copied())
    }
}

// ---------------------------------------------------------------------------
// Storage encoding (used by the file-backed block store)
// ---------------------------------------------------------------------------

/// Smallest encoding of one endorsement: peer, org, 32-byte signature.
const MIN_ENDORSEMENT_BYTES: usize = 8 + 8 + 4 + 32;

/// Smallest encoding of one block entry: a transaction with an empty
/// chaincode name, read-write set and endorsement list, plus its code byte.
const MIN_BLOCK_ENTRY_BYTES: usize = 8 + 8 + 8 + 4 + (4 + 4) + 4 + 1;

fn encode_tx(tx: &Transaction, enc: &mut Encoder) {
    enc.put_u64(tx.id.raw());
    enc.put_u64(tx.channel.raw());
    enc.put_u64(tx.client.raw());
    enc.put_bytes(tx.chaincode.as_bytes());
    tx.rwset.encode(enc);
    enc.put_u32(tx.endorsements.len() as u32);
    for e in &tx.endorsements {
        enc.put_u64(e.peer.raw());
        enc.put_u64(e.org.raw());
        enc.put_bytes(&e.signature.0);
    }
}

fn decode_tx(dec: &mut Decoder<'_>) -> Result<Transaction> {
    let id = TxId(dec.get_u64()?);
    let channel = ChannelId(dec.get_u64()?);
    let client = ClientId(dec.get_u64()?);
    let chaincode = String::from_utf8(dec.get_bytes()?.to_vec())
        .map_err(|e| Error::Codec(format!("chaincode name not utf-8: {e}")))?;
    let rwset = ReadWriteSet::decode(dec)?;
    let n = dec.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(Error::Codec(format!("implausible endorsement count {n}")));
    }
    let mut endorsements = Vec::with_capacity(dec.capacity_for(n, MIN_ENDORSEMENT_BYTES));
    for _ in 0..n {
        let peer = PeerId(dec.get_u64()?);
        let org = OrgId(dec.get_u64()?);
        let sig_bytes = dec.get_bytes()?;
        let sig: [u8; 32] = sig_bytes
            .try_into()
            .map_err(|_| Error::Codec("signature must be 32 bytes".into()))?;
        endorsements.push(Endorsement { peer, org, signature: Signature(sig) });
    }
    Ok(Transaction {
        id,
        channel,
        client,
        chaincode,
        rwset,
        endorsements,
        // Wall-clock anchors are runtime-only; archival reads restart them.
        created_at: Instant::now(),
    })
}

fn code_to_u8(c: ValidationCode) -> u8 {
    match c {
        ValidationCode::Valid => 0,
        ValidationCode::MvccConflict => 1,
        ValidationCode::EndorsementFailure => 2,
        ValidationCode::EarlyAbortSimulation => 3,
        ValidationCode::EarlyAbortCycle => 4,
        ValidationCode::EarlyAbortVersionMismatch => 5,
    }
}

fn code_from_u8(b: u8) -> Result<ValidationCode> {
    Ok(match b {
        0 => ValidationCode::Valid,
        1 => ValidationCode::MvccConflict,
        2 => ValidationCode::EndorsementFailure,
        3 => ValidationCode::EarlyAbortSimulation,
        4 => ValidationCode::EarlyAbortCycle,
        5 => ValidationCode::EarlyAbortVersionMismatch,
        _ => return Err(Error::Codec(format!("bad validation code {b}"))),
    })
}

impl Encode for CommittedBlock {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.block.header.number);
        enc.put_bytes(self.block.header.prev_hash.as_bytes());
        enc.put_bytes(self.block.header.data_hash.as_bytes());
        enc.put_u32(self.block.txs.len() as u32);
        for (tx, code) in self.iter() {
            encode_tx(tx, enc);
            enc.put_u8(code_to_u8(code));
        }
    }
}

impl Decode for CommittedBlock {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let number = dec.get_u64()?;
        let prev: [u8; 32] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| Error::Codec("prev_hash must be 32 bytes".into()))?;
        let data: [u8; 32] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| Error::Codec("data_hash must be 32 bytes".into()))?;
        let n = dec.get_u32()? as usize;
        if n > 1 << 20 {
            return Err(Error::Codec(format!("implausible block size {n}")));
        }
        let cap = dec.capacity_for(n, MIN_BLOCK_ENTRY_BYTES);
        let mut txs = Vec::with_capacity(cap);
        let mut validity = Vec::with_capacity(cap);
        for _ in 0..n {
            txs.push(decode_tx(dec)?);
            validity.push(code_from_u8(dec.get_u8()?)?);
        }
        let block = Block {
            header: BlockHeader { number, prev_hash: Digest(prev), data_hash: Digest(data) },
            txs: txs.into(),
        };
        CommittedBlock::new(block, validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{Key, Value, Version};

    pub(crate) fn sample_tx(seed: u64) -> Transaction {
        let rwset = rwset_from_keys(
            &[Key::composite("r", seed)],
            Version::new(seed, 0),
            &[Key::composite("w", seed)],
            &Value::from_i64(seed as i64),
        );
        Transaction {
            id: TxId(seed + 1000),
            channel: ChannelId(0),
            client: ClientId(seed % 4),
            chaincode: "bench".into(),
            rwset,
            endorsements: vec![Endorsement {
                peer: PeerId(seed % 3),
                org: OrgId(seed % 2),
                signature: Signature([seed as u8; 32]),
            }],
            created_at: Instant::now(),
        }
    }

    #[test]
    fn data_hash_binds_contents() {
        let txs = vec![sample_tx(1), sample_tx(2)];
        let block = Block::build(1, Digest::ZERO, txs);
        assert!(block.verify_data_hash());

        // A sealed block is immutable: forge one from a copy of its
        // transactions under the original header.
        let mut txs = block.txs.to_vec();
        txs[0].rwset = rwset_from_keys(
            &[],
            Version::GENESIS,
            &[Key::from("evil")],
            &Value::from_i64(666),
        );
        let tampered = Block { header: block.header, txs: txs.into() };
        assert!(!tampered.verify_data_hash());
    }

    #[test]
    fn header_hash_changes_with_each_field() {
        let h = BlockHeader { number: 1, prev_hash: Digest::ZERO, data_hash: Digest([1; 32]) };
        let base = h.hash();
        assert_ne!(BlockHeader { number: 2, ..h }.hash(), base);
        assert_ne!(BlockHeader { prev_hash: Digest([9; 32]), ..h }.hash(), base);
        assert_ne!(BlockHeader { data_hash: Digest([2; 32]), ..h }.hash(), base);
        assert_eq!(h.hash(), base); // deterministic
    }

    #[test]
    fn committed_block_checks_flag_count() {
        let block = Block::build(0, Digest::ZERO, vec![sample_tx(1)]);
        assert!(CommittedBlock::new(block.clone(), vec![]).is_err());
        let cb =
            CommittedBlock::new(block, vec![ValidationCode::Valid]).unwrap();
        assert_eq!(cb.valid_count(), 1);
    }

    #[test]
    fn valid_count_counts_only_valid() {
        let block = Block::build(0, Digest::ZERO, vec![sample_tx(1), sample_tx(2), sample_tx(3)]);
        let cb = CommittedBlock::new(
            block,
            vec![
                ValidationCode::Valid,
                ValidationCode::MvccConflict,
                ValidationCode::Valid,
            ],
        )
        .unwrap();
        assert_eq!(cb.valid_count(), 2);
        let codes: Vec<ValidationCode> = cb.iter().map(|(_, c)| c).collect();
        assert_eq!(codes[1], ValidationCode::MvccConflict);
    }

    #[test]
    fn committed_block_encoding_round_trips() {
        let block = Block::build(7, Digest([3; 32]), vec![sample_tx(1), sample_tx(2)]);
        let cb = CommittedBlock::new(
            block,
            vec![ValidationCode::Valid, ValidationCode::EarlyAbortCycle],
        )
        .unwrap();
        let bytes = cb.encode_to_vec();
        let back = CommittedBlock::decode_exact(&bytes).unwrap();
        assert_eq!(back.block.header, cb.block.header);
        assert_eq!(back.validity, cb.validity);
        assert_eq!(back.block.txs.len(), 2);
        assert_eq!(back.block.txs[0].id, cb.block.txs[0].id);
        assert_eq!(back.block.txs[0].rwset, cb.block.txs[0].rwset);
        assert_eq!(back.block.txs[0].endorsements, cb.block.txs[0].endorsements);
        assert!(back.block.verify_data_hash());
    }

    #[test]
    fn decode_rejects_truncation() {
        let block = Block::build(7, Digest([3; 32]), vec![sample_tx(1)]);
        let cb = CommittedBlock::new(block, vec![ValidationCode::Valid]).unwrap();
        let bytes = cb.encode_to_vec();
        assert!(CommittedBlock::decode_exact(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn empty_block_round_trips() {
        let block = Block::build(0, Digest::ZERO, vec![]);
        assert!(block.verify_data_hash());
        let cb = CommittedBlock::new(block, vec![]).unwrap();
        let back = CommittedBlock::decode_exact(&cb.encode_to_vec()).unwrap();
        assert_eq!(back.block.txs.len(), 0);
    }

    #[test]
    fn byte_size_scales_with_txs() {
        let b1 = Block::build(0, Digest::ZERO, vec![sample_tx(1)]);
        let b2 = Block::build(0, Digest::ZERO, vec![sample_tx(1), sample_tx(2)]);
        assert!(b2.byte_size() > b1.byte_size());
    }
}
