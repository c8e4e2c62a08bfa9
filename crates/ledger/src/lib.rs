//! # fabric-ledger
//!
//! The blockchain itself: the hash-chained, append-only log of blocks that
//! every peer maintains. "Each peer appends the block, which contains both
//! valid and invalid transactions, to its local ledger" (paper §2.2.4) —
//! invalid transactions are recorded too, flagged per-transaction, exactly
//! as in Fabric.
//!
//! * [`block`] — block headers (number, previous-hash, data-hash), ordered
//!   blocks as emitted by the ordering service, and committed blocks
//!   carrying per-transaction validation flags.
//! * [`ledger`] — the in-memory chain with linkage verification on append
//!   and full-chain auditing.
//! * [`filestore`] — an append-only, crc-framed on-disk block log so a peer
//!   can persist and recover its chain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod filestore;
pub mod ledger;

pub use block::{Block, BlockHeader, BlockTxs, CommittedBlock};
pub use filestore::{FileBlockStore, RecoveredLog};
pub use ledger::{HistoryEntry, Ledger};
