//! The two-stage ordering pipeline: cut batches flow through a pool of
//! reorder workers while the cutter keeps cutting, and prepared plans are
//! re-serialized into cut order before the sequential sealing step.
//!
//! The paper's Algorithm 1 sits on the orderer's critical path: while a
//! batch is being reordered, the next batch cannot be cut into a block.
//! But the per-batch stage ([`BatchPrep::prepare`]) is a pure function of
//! the batch — only numbering and hash chaining need the chain state. So
//! the pipeline runs `prepare` on worker threads and hands plans back to
//! the caller strictly in submission order; sealing them in that order
//! reproduces the sequential block stream byte for byte (the differential
//! tests below and the `reorder_scaling --smoke` CI gate assert exactly
//! this).
//!
//! Determinism contract: prepared plans are a pure function of the
//! submitted batch and come back strictly in submission order, so worker
//! count is a non-semantic knob. [`ReorderPipeline::sequential`] (and any
//! `workers <= 1` pipeline) prepares inline on the caller's thread with
//! zero scheduling freedom. The chaos harness drives its single-orderer
//! path through a pipeline sized from `reorder_workers`, and the
//! conformance harness asserts runs are byte-identical across worker
//! counts — chaos schedule digests are unchanged by this subsystem.

use std::collections::BTreeMap;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use fabric_common::{available_parallelism, Transaction};

use crate::cutter::CutReason;
use crate::orderer::{BatchPlan, BatchPrep, PrepScratch};
#[cfg(doc)]
use crate::orderer::OrderingService;

/// One cut batch after the per-batch stage, carrying everything the
/// sequential sealing step and the stats recorders need.
#[derive(Debug)]
pub struct PreparedBatch {
    /// The prepared plan, ready for [`OrderingService::seal`].
    pub plan: BatchPlan,
    /// Why the cutter cut this batch.
    pub reason: CutReason,
    /// Batch size at cut time (before early aborts), for fill stats.
    pub batch_len: usize,
}

type Job = (u64, Vec<Transaction>, CutReason);

enum Mode {
    /// Prepare inline on the caller's thread, eagerly. Zero scheduling
    /// freedom: used when `reorder_workers <= 1` and by deterministic
    /// harness configurations.
    Sequential { prep: BatchPrep, scratch: Box<PrepScratch> },
    Threaded {
        jobs: Option<Sender<Job>>,
        done: Receiver<(u64, PreparedBatch)>,
        workers: usize,
        handles: Vec<JoinHandle<()>>,
    },
}

/// A pool of reorder workers plus the in-order reassembly buffer.
///
/// Usage: [`submit`](Self::submit) each cut batch as soon as the cutter
/// produces it, then [`try_collect`](Self::try_collect) (non-blocking) or
/// [`drain`](Self::drain) (blocking, for shutdown) to receive
/// [`PreparedBatch`]es **strictly in submission order** — a batch whose
/// reordering outlasts several later cuts is held until its turn.
///
/// Dropping the pipeline disconnects the job channel and joins the
/// workers; in-flight plans are discarded.
pub struct ReorderPipeline {
    mode: Mode,
    next_submit: u64,
    next_emit: u64,
    ready: BTreeMap<u64, PreparedBatch>,
}

impl ReorderPipeline {
    /// A pipeline that prepares on the calling thread (deterministic
    /// mode). Submission order trivially equals emission order.
    pub fn sequential(prep: BatchPrep) -> Self {
        ReorderPipeline {
            mode: Mode::Sequential { prep, scratch: Box::default() },
            next_submit: 0,
            next_emit: 0,
            ready: BTreeMap::new(),
        }
    }

    /// A pipeline with `workers` persistent reorder threads (`0` =
    /// available parallelism, matching
    /// [`PipelineConfig::reorder_workers`](fabric_common::PipelineConfig)'s
    /// default). `workers <= 1` degenerates to
    /// [`sequential`](Self::sequential): one worker buys no overlap, so
    /// the inline mode's determinism is preferable.
    pub fn new(prep: BatchPrep, workers: usize) -> Self {
        let workers = if workers == 0 { available_parallelism() } else { workers };
        if workers <= 1 {
            return Self::sequential(prep);
        }
        let (job_tx, job_rx) = unbounded::<Job>();
        let (done_tx, done_rx) = unbounded::<(u64, PreparedBatch)>();
        let handles = (0..workers)
            .map(|i| {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let prep = prep.clone();
                std::thread::Builder::new()
                    .name(format!("reorder-{i}"))
                    .spawn(move || {
                        let mut scratch = PrepScratch::default();
                        while let Ok((seq, batch, reason)) = job_rx.recv() {
                            let batch_len = batch.len();
                            let plan = prep.prepare_with(batch, &mut scratch);
                            // The collector may already be gone (pipeline
                            // dropped mid-flight) — fine.
                            let _ = done_tx.send((seq, PreparedBatch { plan, reason, batch_len }));
                        }
                    })
                    .expect("spawn reorder worker")
            })
            .collect();
        ReorderPipeline {
            mode: Mode::Threaded { jobs: Some(job_tx), done: done_rx, workers, handles },
            next_submit: 0,
            next_emit: 0,
            ready: BTreeMap::new(),
        }
    }

    /// Number of worker threads (1 for the sequential mode).
    pub fn workers(&self) -> usize {
        match &self.mode {
            Mode::Sequential { .. } => 1,
            Mode::Threaded { workers, .. } => *workers,
        }
    }

    /// Batches submitted but not yet emitted (0 in sequential mode right
    /// after any collect).
    pub fn in_flight(&self) -> usize {
        (self.next_submit - self.next_emit) as usize
    }

    /// Hands one cut batch to the workers (or prepares it inline in
    /// sequential mode). Returns immediately in threaded mode.
    pub fn submit(&mut self, batch: Vec<Transaction>, reason: CutReason) {
        let seq = self.next_submit;
        self.next_submit += 1;
        match &mut self.mode {
            Mode::Sequential { prep, scratch } => {
                let batch_len = batch.len();
                let plan = prep.prepare_with(batch, scratch);
                self.ready.insert(seq, PreparedBatch { plan, reason, batch_len });
            }
            Mode::Threaded { jobs, .. } => {
                let jobs = jobs.as_ref().expect("job channel lives until drop");
                jobs.send((seq, batch, reason)).expect("workers outlive the pipeline handle");
            }
        }
    }

    /// Collects every plan that is ready **and** next in submission order,
    /// without blocking. A finished batch behind an unfinished earlier one
    /// is buffered, not returned.
    pub fn try_collect(&mut self) -> Vec<PreparedBatch> {
        if let Mode::Threaded { done, .. } = &self.mode {
            loop {
                match done.try_recv() {
                    Ok((seq, prepared)) => {
                        self.ready.insert(seq, prepared);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        }
        self.pop_contiguous()
    }

    /// Blocks until every submitted batch is prepared, then returns all
    /// remaining plans in submission order (shutdown path).
    pub fn drain(&mut self) -> Vec<PreparedBatch> {
        if let Mode::Threaded { done, .. } = &self.mode {
            while self.ready.len() < self.in_flight() {
                let (seq, prepared) =
                    done.recv().expect("reorder worker died with jobs in flight");
                self.ready.insert(seq, prepared);
            }
        }
        let out = self.pop_contiguous();
        debug_assert_eq!(self.next_emit, self.next_submit, "drain leaves nothing in flight");
        out
    }

    fn pop_contiguous(&mut self) -> Vec<PreparedBatch> {
        let mut out = Vec::new();
        while let Some(prepared) = self.ready.remove(&self.next_emit) {
            self.next_emit += 1;
            out.push(prepared);
        }
        out
    }
}

impl Drop for ReorderPipeline {
    fn drop(&mut self) {
        if let Mode::Threaded { jobs, handles, .. } = &mut self.mode {
            drop(jobs.take()); // disconnect → workers drain and exit
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderer::OrderingService;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{
        ChannelId, ClientId, Digest, Key, OrderingPolicy, PipelineConfig, TxId, Value, Version,
    };
    use std::time::Instant;

    fn mk_tx(reads: &[(u64, u64)], writes: &[u64]) -> Transaction {
        let mut b = RwSetBuilder::new();
        for &(k, ver) in reads {
            b.record_read(Key::composite("K", k), Some(Version::new(ver, 0)));
        }
        for &k in writes {
            b.record_write(Key::composite("K", k), Some(Value::from_i64(1)));
        }
        Transaction {
            id: TxId::next(),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: b.build(),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::fabric_pp()
    }

    /// Conflict-heavy batches exercising early abort, cycles, and
    /// reordering; deterministic content so both runs see identical input.
    fn batches(count: u64, size: u64) -> Vec<Vec<Transaction>> {
        (0..count)
            .map(|b| {
                (0..size)
                    .map(|i| {
                        let k = b * 7 + i;
                        mk_tx(
                            &[(k % 11, 1 + (i + b) % 3)],
                            &[(k + 1) % 11, 100 + k % 5],
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs batches through `order_batch` (the sequential reference) and
    /// through a pipeline + `seal`, and asserts byte-identical blocks.
    fn assert_differential(workers: usize, count: u64, size: u64) {
        let config = cfg();
        let input = batches(count, size);

        let mut seq_service = OrderingService::new(&config);
        let seq_blocks: Vec<_> =
            input.clone().into_iter().filter_map(|b| seq_service.order_batch(b)).collect();

        let mut pipe_service = OrderingService::new(&config);
        let mut pipeline = ReorderPipeline::new(pipe_service.batch_prep(), workers);
        for batch in input {
            pipeline.submit(batch, CutReason::TxCount);
        }
        let mut pipe_blocks = Vec::new();
        for prepared in pipeline.drain() {
            if let Some(ob) = pipe_service.seal(prepared.plan) {
                pipe_blocks.push(ob);
            }
        }

        assert_eq!(seq_blocks.len(), pipe_blocks.len());
        for (s, p) in seq_blocks.iter().zip(&pipe_blocks) {
            assert_eq!(s.block.header.number, p.block.header.number);
            assert_eq!(s.block.header.hash(), p.block.header.hash(), "hash chain must match");
            assert_eq!(
                s.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(),
                p.block.txs.iter().map(|t| t.id).collect::<Vec<_>>()
            );
            assert_eq!(
                s.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>(),
                p.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sequential_pipeline_matches_order_batch() {
        assert_differential(1, 12, 16);
    }

    #[test]
    fn threaded_pipeline_matches_order_batch() {
        for workers in [2, 4, 8] {
            assert_differential(workers, 16, 24);
        }
    }

    #[test]
    fn zero_workers_uses_available_parallelism() {
        let pipeline = ReorderPipeline::new(BatchPrep::new(&cfg()), 0);
        assert_eq!(pipeline.workers(), available_parallelism().max(1));
    }

    #[test]
    fn one_worker_degenerates_to_sequential() {
        let mut pipeline = ReorderPipeline::new(BatchPrep::new(&cfg()), 1);
        assert_eq!(pipeline.workers(), 1);
        pipeline.submit(batches(1, 4).remove(0), CutReason::Timeout);
        let got = pipeline.try_collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].reason, CutReason::Timeout);
        assert_eq!(got[0].batch_len, 4);
        assert_eq!(pipeline.in_flight(), 0);
    }

    #[test]
    fn slow_batch_holds_later_finished_batches() {
        // Regression for the emission-order contract: batch 0's reorder
        // outlasts the cuts of batches 1 and 2 (it is much larger), yet
        // plans must come out 0, 1, 2 and the sealed chain must match the
        // sequential service. With 4 workers the small batches certainly
        // finish first; the reassembly buffer must hold them.
        let config = cfg();
        let big: Vec<Transaction> = batches(1, 120).remove(0);
        let small1 = batches(2, 3).remove(1);
        let small2 = batches(3, 2).remove(2);
        let input = vec![big, small1, small2];

        let mut seq_service = OrderingService::new(&config);
        let seq_nums: Vec<_> = input
            .clone()
            .into_iter()
            .filter_map(|b| seq_service.order_batch(b))
            .map(|ob| (ob.block.header.number, ob.block.header.hash()))
            .collect();

        let mut service = OrderingService::new(&config);
        let mut pipeline = ReorderPipeline::new(service.batch_prep(), 4);
        let reasons = [CutReason::TxCount, CutReason::Bytes, CutReason::Flush];
        for (batch, reason) in input.into_iter().zip(reasons) {
            pipeline.submit(batch, reason);
        }
        let prepared = pipeline.drain();
        assert_eq!(
            prepared.iter().map(|p| p.reason).collect::<Vec<_>>(),
            reasons.to_vec(),
            "plans emitted in cut order, not completion order"
        );
        let got: Vec<_> = prepared
            .into_iter()
            .filter_map(|p| service.seal(p.plan))
            .map(|ob| (ob.block.header.number, ob.block.header.hash()))
            .collect();
        assert_eq!(got, seq_nums);
    }

    #[test]
    fn try_collect_is_nonblocking_and_eventually_complete() {
        let service = OrderingService::new(&cfg());
        let mut pipeline = ReorderPipeline::new(service.batch_prep(), 2);
        for batch in batches(6, 8) {
            pipeline.submit(batch, CutReason::TxCount);
        }
        let mut collected = 0;
        while collected < 6 {
            collected += pipeline.try_collect().len();
            std::thread::yield_now();
        }
        assert_eq!(pipeline.in_flight(), 0);
        assert!(pipeline.try_collect().is_empty());
    }

    #[test]
    fn arrival_policy_passes_through_unreordered() {
        let mut config = cfg();
        config.ordering = OrderingPolicy::Arrival;
        config.early_abort_ordering = false;
        let input = batches(4, 6);
        let mut service = OrderingService::new(&config).resume_at(5, Digest::ZERO);
        let mut pipeline = ReorderPipeline::new(service.batch_prep(), 3);
        for batch in input.clone() {
            pipeline.submit(batch, CutReason::TxCount);
        }
        for (prepared, original) in pipeline.drain().into_iter().zip(input) {
            let ob = service.seal(prepared.plan).expect("non-empty");
            assert_eq!(
                ob.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(),
                original.iter().map(|t| t.id).collect::<Vec<_>>()
            );
        }
        assert_eq!(service.next_block_num(), 9);
    }
}
