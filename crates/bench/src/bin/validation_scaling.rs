//! **Validation scaling** — throughput of the full Fabric++ pipeline as
//! the VSCC worker-pool size grows (workers ∈ {1, 2, 4, 8}).
//!
//! Real Fabric shards endorsement-signature validation across a
//! `validatorPoolSize` worker pool (paper §2.2.3); this sweep runs the
//! Figure 10 configuration (BS = 1024, custom workload) with the
//! signature-verification cost turned up so the VSCC phase dominates, and
//! reports valid tps per worker count. On a multi-core box throughput
//! should grow monotonically up to the available parallelism; rows also
//! carry the per-phase latency tables so the VSCC speedup is visible
//! directly.
//!
//! `--smoke` (used by CI) first runs a differential check — the threaded
//! pool must produce bit-for-bit the endorsement bits and validation codes
//! of the sequential path on a block mixing good / stale / tampered /
//! unendorsed transactions — then two sub-second runs (workers 1 and 2)
//! to exercise the pipelined peer loop end to end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_bench::{
    point_duration, run_experiment,
    runner::{print_phase_table, print_row},
    RunSpec, WorkloadKind,
};
use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{
    available_parallelism, ChannelId, ClientId, CostModel, Digest, Endorsement, Key, OrgId,
    PeerId, PipelineConfig, SignerRegistry, SigningKey, Transaction, TxId, Value, Version,
};
use fabric_ledger::Block;
use fabric_net::LatencyModel;
use fabric_peer::validator::{check_endorsements, mvcc_validate, EndorsementPolicy};
use fabric_peer::ValidationPool;
use fabric_statedb::MemStateDb;
use fabric_workloads::CustomConfig;

/// A correctly endorsed transaction over `rwset` (two orgs sign).
fn endorsed_tx(rwset: ReadWriteSet) -> Transaction {
    let id = TxId::next();
    let payload = Transaction::signing_payload(id, ChannelId(0), "cc", &rwset);
    let endorsements = [(PeerId(1), OrgId(1)), (PeerId(3), OrgId(2))]
        .iter()
        .map(|&(peer, org)| Endorsement {
            peer,
            org,
            signature: SigningKey::for_peer(peer, 9).sign_iterated(&[&payload], 1),
        })
        .collect();
    Transaction {
        id,
        channel: ChannelId(0),
        client: ClientId(0),
        chaincode: "cc".into(),
        rwset,
        endorsements,
        created_at: Instant::now(),
    }
}

/// Differential check: for a block mixing every validation outcome, the
/// threaded pool at several widths must reproduce the sequential path's
/// endorsement bits and final validation codes exactly.
fn differential_check() {
    let registry = SignerRegistry::new();
    for p in 1..=4u64 {
        registry.register(PeerId(p), SigningKey::for_peer(PeerId(p), 9));
    }
    let policy = EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)]);
    let bal = Key::from("balA");

    let mut txs = Vec::new();
    for i in 0..24u64 {
        let out = Key::composite("out", i);
        let fresh = rwset_from_keys(
            std::slice::from_ref(&bal),
            Version::GENESIS,
            std::slice::from_ref(&out),
            &Value::from_i64(1),
        );
        let tx = match i % 4 {
            0 => endorsed_tx(fresh), // valid
            1 => endorsed_tx(rwset_from_keys(
                // stale read: MVCC conflict
                std::slice::from_ref(&bal),
                Version::new(7, 0),
                &[out],
                &Value::from_i64(1),
            )),
            2 => {
                // rwset swapped after endorsement: signature mismatch
                let mut tx = endorsed_tx(fresh);
                tx.rwset = rwset_from_keys(
                    std::slice::from_ref(&bal),
                    Version::GENESIS,
                    std::slice::from_ref(&bal),
                    &Value::from_i64(1_000_000),
                );
                tx
            }
            _ => {
                let mut tx = endorsed_tx(fresh);
                tx.endorsements.clear();
                tx
            }
        };
        txs.push(tx);
    }
    let block = Arc::new(Block::build(1, Digest::ZERO, txs));
    let store = MemStateDb::with_genesis([(bal, Value::from_i64(100))]);

    let sequential = check_endorsements(&block, &registry, &policy, CostModel::raw());
    let seq_codes = mvcc_validate(&block, &store, &sequential).expect("mvcc");
    for workers in [1usize, 2, 4, 8] {
        let pool = ValidationPool::threaded(workers);
        let parallel = pool.check_endorsements(&block, &registry, &policy, CostModel::raw()).wait();
        assert_eq!(parallel, sequential, "endorsement bits diverge at {workers} workers");
        let par_codes = mvcc_validate(&block, &store, &parallel).expect("mvcc");
        assert_eq!(par_codes, seq_codes, "validation codes diverge at {workers} workers");
    }
    fabric_bench::smoke::record(
        "validation_scaling",
        "threaded-vscc-vs-sequential",
        true,
        "endorsement bits and validation codes bit-identical at 1/2/4/8 workers",
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    differential_check();

    let (duration, sweep): (Duration, &[usize]) = if smoke {
        (Duration::from_millis(600), &[1, 2])
    } else {
        (point_duration(), &[1, 2, 4, 8])
    };

    // Crank signature cost so VSCC dominates the validation phase — the
    // knob under test. Sign and verify iterations must match: the
    // iterated-HMAC stand-in bakes the count into the signature bytes.
    let mut cost = fabric_bench::cost_model();
    let iters = cost.verify_iterations.max(256);
    cost.sign_iterations = iters;
    cost.verify_iterations = iters;

    let mut header = false;
    let mut phase_tables = Vec::new();
    for &workers in sweep {
        let spec = RunSpec {
            cost,
            latency: LatencyModel::zero(),
            ..RunSpec::paper_default(
                format!("workers={workers}"),
                PipelineConfig::fabric_pp()
                    .with_block_size(1024)
                    .with_validation_workers(workers),
                WorkloadKind::Custom(CustomConfig::default()),
                duration,
            )
        };
        let r = run_experiment(&spec);
        let s = r.report.stats;
        let vscc = r.report.phases.validate_vscc;
        print_row(
            &mut header,
            &[
                ("validation_workers", workers.to_string()),
                ("valid_tps", format!("{:.1}", r.valid_tps())),
                ("aborted_tps", format!("{:.1}", r.aborted_tps())),
                ("submitted_tps", format!("{:.1}", r.submitted_tps())),
                ("blocks", r.report.orderer.blocks.to_string()),
                ("vscc_avg_us", format!("{:.1}", vscc.avg.as_secs_f64() * 1e6)),
                ("mvcc_aborts", s.mvcc_conflict.to_string()),
            ],
        );
        phase_tables.push((format!("workers={workers}"), r.report.phases));
        if smoke {
            assert_eq!(s.finished(), s.submitted, "every proposal reaches an outcome");
            assert!(s.valid > 0, "pipelined run commits transactions");
        }
    }
    for (label, phases) in &phase_tables {
        print_phase_table(label, phases);
    }
    println!("# available parallelism on this host: {}", available_parallelism());
}
