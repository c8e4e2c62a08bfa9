//! Genesis golden: the block-0 header hash and the state digest a peer
//! holds after `install_genesis` are pinned byte-for-byte.
//!
//! The input is Smallbank's bootstrap state for 1,000 users at seed 1
//! (two accounts per user, balances drawn exactly as `fabric-workloads`
//! draws them) plus one account repeated with a new balance, so the
//! last-write-wins rule for a duplicated key is pinned too. Every chain
//! fingerprint in the repository includes block 0, so a change to how the
//! genesis write set is built, hashed or applied fails here first.
//!
//! If a change is *meant* to alter block 0, re-derive both constants from
//! the failure message and say why in the change description.

use std::sync::Arc;

use fabric_common::{
    ConcurrencyMode, CostModel, Key, OrgId, PeerId, SignerRegistry, SigningKey, Value,
};
use fabric_peer::peer::genesis_block;
use fabric_peer::{ChaincodeRegistry, EndorsementPolicy, Peer};
use fabric_statedb::MemStateDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Header hash of block 0 (the ledger's tip right after genesis).
const TIP_HASH: &str = "996ff1d6479eb261bb08ec72cfaf576a72c6945ee9ffd5a833872753ae1de7a5";
/// `StateStore::state_digest` right after genesis.
const STATE_DIGEST: &str = "9b2f5b039cb2cf513314834ee471d23e4cda4075139c04d303de3efebe28e9b4";

/// Smallbank's genesis for `users` users at `seed`, then `checking:7`
/// again with a different balance.
fn smallbank_genesis_with_duplicate(users: u64, seed: u64) -> Vec<(Key, Value)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1A);
    let mut out = Vec::with_capacity(2 * users as usize + 1);
    for u in 0..users {
        out.push((Key::composite("checking", u), Value::from_i64(rng.random_range(1_000..10_000))));
        out.push((Key::composite("savings", u), Value::from_i64(rng.random_range(1_000..10_000))));
    }
    out.push((Key::composite("checking", 7), Value::from_i64(424_242)));
    out
}

fn peer(id: u64) -> Peer {
    let registry = SignerRegistry::new();
    let key = SigningKey::for_peer(PeerId(id), 1);
    registry.register(PeerId(id), key.clone());
    Peer::new(
        PeerId(id),
        OrgId(1),
        key,
        Arc::new(MemStateDb::new()),
        ChaincodeRegistry::new(),
        registry,
        EndorsementPolicy::require_orgs(vec![OrgId(1)]),
        ConcurrencyMode::FineGrained,
        true,
        CostModel::raw(),
    )
}

#[test]
fn install_genesis_matches_the_pinned_block_and_state() {
    let initial = smallbank_genesis_with_duplicate(1_000, 1);
    let p = peer(1);
    p.install_genesis(&initial).unwrap();
    let tip = p.ledger().tip_hash().to_hex();
    let state = p.store().state_digest().unwrap().to_hex();
    assert_eq!((tip.as_str(), state.as_str()), (TIP_HASH, STATE_DIGEST));
    let dup = p.store().get(&Key::composite("checking", 7)).unwrap().unwrap();
    assert_eq!(dup.value.as_i64(), Some(424_242), "the later duplicate wins");
}

#[test]
fn one_shared_genesis_block_installs_identically_on_every_peer() {
    let block = genesis_block(&smallbank_genesis_with_duplicate(1_000, 1));
    for id in 1..=3 {
        let p = peer(id);
        p.install_genesis_block(Arc::clone(&block)).unwrap();
        assert!(Arc::ptr_eq(&p.ledger().get(0).unwrap(), &block), "shared, not copied");
        assert_eq!(p.ledger().tip_hash().to_hex(), TIP_HASH);
        assert_eq!(p.store().state_digest().unwrap().to_hex(), STATE_DIGEST);
    }
}
