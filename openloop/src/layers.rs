//! Part B of the stage trace: the layer calls on one thread.
//!
//! The same generated proposals run through the same public functions the
//! threaded runtime calls — `Peer::endorse`, `assemble_transaction`,
//! `BatchCutter::push`, `BatchPrep::prepare_with`, `OrderingService::seal`,
//! `check_endorsements`, `mvcc_validate_into`, `commit_block` — on the same
//! 2 × 2 topology and configuration, with one validation worker, one
//! reorder worker and one commit lane (all non-semantic knobs). A span
//! around each call, plus delegating `Chaincode` and `StateStore` wrappers,
//! give every layer's self time: its span minus the spans it caused.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_common::{
    BlockNum, ChannelId, ClientId, Digest, Key, LanePool, OrgId, PeerId, Result, SignerRegistry,
    SigningKey, StoreCounters, Transaction, TransactionProposal, ValidationCode, Version,
};
use fabric_ordering::{BatchCutter, OrderingService, PrepScratch};
use fabric_peer::chaincode::{Chaincode, ChaincodeRegistry, SimulationError, TxContext};
use fabric_peer::committer::commit_block;
use fabric_peer::peer::Peer;
use fabric_peer::validator::{
    check_endorsements, mvcc_validate_into, EndorsementPolicy, MvccScratch,
};
use fabric_reorder::{reorder_with, ReorderOutput, ReorderScratch};
use fabric_statedb::{
    MemStateDb, SnapshotGet, StateSnapshot, StateStore, VersionedValue, WriteBatch,
};
use fabricpp::client::assemble_transaction;

use crate::workload::{cost_model, Inputs, Spec};

/// The spans Part B records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Endorse,
    Chaincode,
    Assemble,
    Cut,
    Prepare,
    /// `reorder_with` re-run on the batch's survivors. It repeats work
    /// already inside `Prepare`, so it is excluded from the self-time sum
    /// and subtracted from `Prepare` instead.
    Reorder,
    Seal,
    Vscc,
    Mvcc,
    Commit,
    SnapshotRead,
    Pin,
    PointGet,
    Prefetch,
    Apply,
    StoreOther,
}

const SPANS: usize = Span::StoreOther as usize + 1;

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total: Duration,
    pub self_time: Duration,
    /// Work items the calls carried (keys read, writes applied, ...).
    pub items: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<(Span, Instant, Duration)>,
    agg: [Agg; SPANS],
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Runs `f` inside a span named `name` carrying `items` work items.
pub fn span<R>(name: Span, items: usize, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| {
        t.borrow_mut()
            .stack
            .push((name, Instant::now(), Duration::ZERO))
    });
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (name, start, children) = t.stack.pop().expect("span stack");
        let dur = start.elapsed();
        let a = &mut t.agg[name as usize];
        a.calls += 1;
        a.total += dur;
        a.self_time += dur.saturating_sub(children);
        a.items += items as u64;
        if let Some(parent) = t.stack.last_mut() {
            parent.2 += dur;
        }
    });
    r
}

fn take_aggregates() -> [Agg; SPANS] {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().agg))
}

/// Delegating chaincode: forwards every trait method inside a span.
struct TracedChaincode(Arc<dyn Chaincode>);

impl Chaincode for TracedChaincode {
    fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> std::result::Result<(), String> {
        span(Span::Chaincode, 0, || self.0.invoke(ctx, args))
    }
    fn declared_reads(&self, args: &[u8]) -> Option<Vec<Key>> {
        span(Span::Chaincode, 0, || self.0.declared_reads(args))
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Delegating state store: forwards every trait method, defaulted ones
/// included, and records a span around each data-path call.
struct TracedStore(MemStateDb);

impl StateStore for TracedStore {
    fn get(&self, key: &Key) -> Result<Option<VersionedValue>> {
        span(Span::PointGet, 1, || self.0.get(key))
    }
    fn apply_write_batch(&self, batch: &WriteBatch<'_>) -> Result<()> {
        span(Span::Apply, batch.len(), || self.0.apply_write_batch(batch))
    }
    fn apply_block(&self, block: BlockNum, writes: &[fabric_statedb::CommitWrite]) -> Result<()> {
        span(Span::Apply, writes.len(), || {
            self.0.apply_block(block, writes)
        })
    }
    fn apply_write_batch_lanes(&self, batch: &WriteBatch<'_>, pool: &LanePool) -> Result<()> {
        span(Span::Apply, batch.len(), || {
            self.0.apply_write_batch_lanes(batch, pool)
        })
    }
    fn multi_get_versions(&self, keys: &[Key]) -> Result<Vec<Option<Version>>> {
        span(Span::Prefetch, keys.len(), || {
            self.0.multi_get_versions(keys)
        })
    }
    fn multi_get_versions_into(&self, keys: &[Key], out: &mut Vec<Option<Version>>) -> Result<()> {
        span(Span::Prefetch, keys.len(), || {
            self.0.multi_get_versions_into(keys, out)
        })
    }
    fn counters(&self) -> StoreCounters {
        self.0.counters()
    }
    fn retained_versions(&self) -> usize {
        self.0.retained_versions()
    }
    fn pin_snapshot(&self) -> StateSnapshot {
        span(Span::Pin, 0, || self.0.pin_snapshot())
    }
    fn pin_snapshot_at(&self, height: BlockNum) -> StateSnapshot {
        span(Span::Pin, 0, || self.0.pin_snapshot_at(height))
    }
    fn get_at(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        span(Span::SnapshotRead, 1, || self.0.get_at(key, height))
    }
    fn multi_get_at_into(
        &self,
        keys: &[Key],
        height: BlockNum,
        out: &mut Vec<SnapshotGet>,
    ) -> Result<()> {
        span(Span::SnapshotRead, keys.len(), || {
            self.0.multi_get_at_into(keys, height, out)
        })
    }
    fn scan_range_at(
        &self,
        start: &Key,
        end: &Key,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        span(Span::SnapshotRead, 0, || {
            self.0.scan_range_at(start, end, height)
        })
    }
    fn collect_garbage(&self) -> Result<usize> {
        span(Span::StoreOther, 0, || self.0.collect_garbage())
    }
    fn last_committed_block(&self) -> BlockNum {
        self.0.last_committed_block()
    }
    fn approximate_len(&self) -> usize {
        self.0.approximate_len()
    }
    fn scan_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, VersionedValue)>> {
        span(Span::StoreOther, 0, || self.0.scan_range(start, end))
    }
    fn scan_all(&self) -> Result<Vec<(Key, VersionedValue)>> {
        self.0.scan_all()
    }
    fn state_digest(&self) -> Result<Digest> {
        self.0.state_digest()
    }
}

/// What Part B measured.
#[derive(Default)]
pub struct LayerOutput {
    pub agg: [Agg; SPANS],
    pub proposals: u64,
    pub endorsements: u64,
    pub submitted: u64,
    pub batches: u64,
    pub blocks: u64,
    /// Transactions in sealed blocks (each validated on all four peers).
    pub block_txs: u64,
    pub valid: u64,
    pub sign_us: f64,
    pub verify_us: f64,
    pub failures: Vec<String>,
}

impl LayerOutput {
    pub fn get(&self, s: Span) -> Agg {
        self.agg[s as usize]
    }

    /// Sum of every layer's self time: the CPU the layers themselves need,
    /// without threads, channels or queues.
    pub fn self_time_sum(&self) -> Duration {
        self.agg
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != Span::Reorder as usize)
            .map(|(_, a)| a.self_time)
            .sum()
    }
}

/// Signing-key seed the network builder uses by default.
const KEY_SEED: u64 = 42;
/// Signing payloads kept for the timed sign / verify calls.
const CRYPTO_SAMPLES: usize = 2_000;

struct Driver {
    peers: Vec<Peer>,
    scratch: Vec<MvccScratch>,
    registry: SignerRegistry,
    policy: EndorsementPolicy,
    cost: fabric_common::CostModel,
    service: OrderingService,
    prep: fabric_ordering::BatchPrep,
    prep_scratch: PrepScratch,
    reorder_scratch: ReorderScratch,
    reorder_out: ReorderOutput,
    out: LayerOutput,
    payloads: Vec<(PeerId, Vec<u8>, fabric_common::Signature)>,
}

/// Runs the measured proposals of `inputs` through the layers on this
/// thread and returns the aggregated spans.
pub fn run(spec: &Spec, seed: u64, inputs: &Inputs) -> std::result::Result<LayerOutput, String> {
    let cfg = spec
        .pipeline()
        .with_validation_workers(1)
        .with_reorder_workers(1)
        .with_commit_lanes(1);
    let registry = SignerRegistry::new();
    let policy = EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)]);
    let mut chaincodes = ChaincodeRegistry::new();
    let cc = spec.chaincode();
    chaincodes.deploy(cc.name().to_owned(), Arc::new(TracedChaincode(cc)));

    let genesis = spec.genesis(seed);
    let mut peers = Vec::new();
    for n in 1..=4u64 {
        let pid = PeerId(n);
        let key = SigningKey::for_peer(pid, KEY_SEED);
        registry.register(pid, key.clone());
        let peer = Peer::new(
            pid,
            OrgId(n.div_ceil(2)),
            key,
            Arc::new(TracedStore(MemStateDb::new())),
            chaincodes.clone(),
            registry.clone(),
            policy.clone(),
            cfg.concurrency,
            cfg.early_abort_simulation,
            cost_model(),
        );
        peer.install_genesis(&genesis)
            .map_err(|e| format!("genesis: {e}"))?;
        peers.push(peer);
    }
    let tip = peers[0].ledger().tip_hash();
    let service = OrderingService::new(&cfg).resume_at(1, tip);
    let prep = service.batch_prep();
    let mut cutter = BatchCutter::new(cfg.cutting.clone());
    take_aggregates();

    let mut d = Driver {
        scratch: (0..peers.len()).map(|_| MvccScratch::new()).collect(),
        peers,
        registry,
        policy,
        cost: cost_model(),
        service,
        prep,
        prep_scratch: PrepScratch::default(),
        reorder_scratch: ReorderScratch::default(),
        reorder_out: ReorderOutput::default(),
        out: LayerOutput::default(),
        payloads: Vec::new(),
    };
    // Endorsement goes to the first peer of each organization, as the
    // runtime's clients do.
    let endorsers = [0usize, 2];
    for args in &inputs.args[..inputs.measured] {
        d.out.proposals += 1;
        let proposal =
            TransactionProposal::new(ChannelId(0), ClientId(0), inputs.chaincode, args.clone());
        let mut responses = Vec::with_capacity(endorsers.len());
        let mut doomed = false;
        for &e in &endorsers {
            d.out.endorsements += 1;
            match span(Span::Endorse, 0, || d.peers[e].endorse(&proposal)) {
                Ok(r) => responses.push(r),
                Err(SimulationError::StaleRead { .. }) => doomed = true,
                Err(other) => {
                    d.out
                        .failures
                        .push(format!("endorsement rejected: {other}"));
                    doomed = true;
                }
            }
        }
        if doomed {
            continue;
        }
        let tx = match span(Span::Assemble, 0, || {
            assemble_transaction(&proposal, responses)
        }) {
            Ok(tx) => tx,
            Err(e) => {
                d.out.failures.push(format!("assembly failed: {e}"));
                continue;
            }
        };
        d.out.submitted += 1;
        let cuts = span(Span::Cut, 1, || cutter.push(tx, Instant::now()));
        for (batch, _) in cuts {
            d.order_and_commit(batch)?;
        }
    }
    if let Some((batch, _)) = cutter.flush() {
        d.order_and_commit(batch)?;
    }
    d.time_crypto();
    d.check_replicas();
    d.out.agg = take_aggregates();
    Ok(d.out)
}

impl Driver {
    fn order_and_commit(&mut self, batch: Vec<Transaction>) -> std::result::Result<(), String> {
        self.out.batches += 1;
        let n = batch.len();
        let arrival = batch.clone();
        let plan = span(Span::Prepare, n, || {
            self.prep.prepare_with(batch, &mut self.prep_scratch)
        });

        // Re-run Algorithm 1 on the same survivors to split it out of the
        // prepare span.
        let version_aborted: HashSet<u64> = plan
            .early_aborted
            .iter()
            .filter(|(_, c)| *c == ValidationCode::EarlyAbortVersionMismatch)
            .map(|(t, _)| t.id.raw())
            .collect();
        let survivors: Vec<&fabric_common::ReadWriteSet> = arrival
            .iter()
            .filter(|t| !version_aborted.contains(&t.id.raw()))
            .map(|t| &t.rwset)
            .collect();
        let cfg = self.prep.reorder_config().clone();
        span(Span::Reorder, survivors.len(), || {
            reorder_with(
                &survivors,
                &cfg,
                &mut self.reorder_scratch,
                &mut self.reorder_out,
            )
        });
        if self.reorder_out.schedule.len() != plan.ordered.len()
            || self.reorder_out.stats != plan.stats
        {
            return Err("reorder re-run disagrees with the prepared plan".into());
        }

        let Some(ob) = span(Span::Seal, n, || self.service.seal(plan)) else {
            return Ok(());
        };
        self.out.blocks += 1;
        let block = ob.block;
        let txs = block.txs.len();
        self.out.block_txs += txs as u64;
        if self.payloads.len() < CRYPTO_SAMPLES {
            for tx in &block.txs {
                let payload =
                    Transaction::signing_payload(tx.id, tx.channel, &tx.chaincode, &tx.rwset);
                for e in &tx.endorsements {
                    self.payloads.push((e.peer, payload.clone(), e.signature));
                }
            }
        }
        for p in 0..self.peers.len() {
            let peer = &self.peers[p];
            let block = block.clone();
            let ok = span(Span::Vscc, txs, || {
                check_endorsements(&block, &self.registry, &self.policy, self.cost)
            });
            let mut codes = Vec::with_capacity(txs);
            span(Span::Mvcc, txs, || {
                mvcc_validate_into(
                    &block,
                    peer.store().as_ref(),
                    &ok,
                    &mut self.scratch[p],
                    &mut codes,
                )
            })
            .map_err(|e| format!("mvcc: {e}"))?;
            if p == 0 {
                self.out.valid += codes.iter().filter(|c| c.is_valid()).count() as u64;
            }
            span(Span::Commit, txs, || {
                commit_block(block, codes, peer.store().as_ref(), peer.ledger())
            })
            .map_err(|e| format!("commit: {e}"))?;
        }
        Ok(())
    }

    /// Times `SigningKey` sign and verify calls under the workload's cost
    /// model, on real endorsement payloads.
    fn time_crypto(&mut self) {
        let n = self.payloads.len().max(1) as f64;
        let keys: Vec<SigningKey> = (1..=4)
            .map(|n| self.registry.key_of(PeerId(n)).expect("registered key"))
            .collect();
        let t = Instant::now();
        for (peer, payload, _) in &self.payloads {
            std::hint::black_box(
                keys[peer.raw() as usize - 1].sign_iterated(&[payload], self.cost.sign_iterations),
            );
        }
        self.out.sign_us = t.elapsed().as_secs_f64() * 1e6 / n;
        let t = Instant::now();
        let mut ok = true;
        for (peer, payload, sig) in &self.payloads {
            ok &= keys[peer.raw() as usize - 1].verify_iterated(
                &[payload],
                sig,
                self.cost.verify_iterations,
            );
        }
        self.out.verify_us = t.elapsed().as_secs_f64() * 1e6 / n;
        if !ok {
            self.out
                .failures
                .push("an endorsement signature failed to verify".into());
        }
    }

    fn check_replicas(&mut self) {
        let probe = |p: &Peer| {
            let digest = p
                .store()
                .state_digest()
                .map(|d| d.to_hex())
                .unwrap_or_default();
            (p.ledger().height(), p.ledger().tip_hash(), digest)
        };
        let first = probe(&self.peers[0]);
        if first.0 != self.out.blocks + 1 {
            self.out.failures.push(format!(
                "height {} after {} blocks",
                first.0, self.out.blocks
            ));
        }
        for p in &self.peers[1..] {
            if probe(p) != first {
                self.out
                    .failures
                    .push(format!("layer driver: peer {} disagrees", p.id()));
            }
        }
    }
}
