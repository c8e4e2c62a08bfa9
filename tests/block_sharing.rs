//! A sealed block exists once. The orderer's archive, every broadcast link
//! and every peer's ledger hold the same transaction list, so four peers
//! cost one chain, not four — including a peer that crashed, missed blocks
//! and caught them up from the archive after a restart.

use std::time::{Duration, Instant};

use fabric_common::{CostModel, Key, PipelineConfig, Value};
use fabric_ledger::BlockTxs;
use fabric_net::LatencyModel;
use fabricpp::{chaincode_fn, FabricNetwork, NetworkBuilder};

/// Polls until peer 0 of channel 0 reaches `height`.
fn wait_for_height(net: &FabricNetwork, height: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.channel_peers(0)[0].ledger().height() < height {
        assert!(
            Instant::now() < deadline,
            "peer 0 never reached height {height}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn every_peer_shares_one_allocation_per_block() {
    let count = chaincode_fn("count", |ctx, args| {
        let k = Key::new(args.to_vec());
        let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(k, v + 1);
        Ok(())
    });
    let net = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(2)
        .pipeline(PipelineConfig::fabric_pp().with_block_size(4))
        .cost(CostModel::raw())
        .latency(LatencyModel::zero())
        .deploy(count)
        .genesis([(Key::from("c"), Value::from_i64(0))])
        .build()
        .unwrap();
    let client = net.client(0);
    // Disjoint keys, four per block: every submission commits and each
    // round of four cuts a block (two if the 1 s batch timeout splits it).
    let mut submitted = 0u64;
    let mut submit_round = || {
        for _ in 0..4 {
            client.submit("count", Key::composite("k", submitted).as_bytes().to_vec());
            submitted += 1;
        }
        submitted / 4 + 1 // genesis + one block per round
    };

    for _ in 0..3 {
        wait_for_height(&net, submit_round());
    }
    // Peer 1 dies and misses the next blocks entirely.
    net.crash_peer(0, 1);
    for _ in 0..3 {
        wait_for_height(&net, submit_round());
    }
    let caught_up = net.restart_peer(0, 1).unwrap();
    assert!(
        caught_up >= 3,
        "the restarted peer must catch blocks up from the archive"
    );
    for _ in 0..2 {
        wait_for_height(&net, submit_round());
    }
    drop(client);

    let peers = net.channel_peers(0);
    let report = net.finish();
    assert_eq!(report.stats.valid, submitted);
    let height = peers[0].ledger().height();
    assert!(height > 8, "at least one block per round of four");
    for peer in &peers {
        assert_eq!(peer.ledger().height(), height);
    }
    for k in 1..height {
        let reference = peers[0].ledger().get(k).unwrap();
        for (i, peer) in peers.iter().enumerate() {
            let cb = peer.ledger().get(k).unwrap();
            assert_eq!(cb.block.header, reference.block.header);
            assert!(
                BlockTxs::ptr_eq(&cb.block.txs, &reference.block.txs),
                "peer {i} holds its own copy of block {k}"
            );
        }
    }
}
