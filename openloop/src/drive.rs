//! Open-loop driver of the threaded runtime, observed from outside.
//!
//! One generator thread fires the pre-generated proposals at their due
//! times through [`ClientHandle::submit`] and, between sends, polls the
//! reporting peer's ledger (at most 1 ms apart) to see which transactions
//! committed and how. Latency is timed from each proposal's due time.
//!
//! The traced variant (Part A of the stage trace) adds two observations:
//! the return time of every `submit`, and a deliver-only [`FaultHook`]
//! that stamps each orderer → reporting-peer send. From these, each
//! valid transaction's latency splits into five intervals that add up to
//! it exactly: generator wait, endorsement, cut wait, ordering, commit.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fabric_common::ValidationCode;
use fabric_ledger::Ledger;
use fabric_net::{FaultHook, LatencyModel, LinkId, SendFault};
use fabricpp::{FabricNetwork, NetworkBuilder, RunReport, StateEngine, SubmitOutcome};

use crate::measure::{ms, quantile, ratio, sorted, us, Cpu};
use crate::workload::{cost_model, Inputs, Spec};

/// Generator health bound: every measured proposal must be fired within
/// this share of the window after its due time, so the realised firing
/// rate stays within ~10% of the nominal rate. A run outside it (or with a
/// growing backlog) is reported invalid, not as a number.
pub const MAX_LATENESS_SHARE: f64 = 0.1;
/// Backlog bound: unresolved proposals at the end of the window may exceed
/// those at its first quarter by at most this many blocks' worth.
pub const MAX_BACKLOG_GROWTH_BLOCKS: usize = 3;
/// How long the generator waits for the measured proposals to resolve
/// after the filler proposals run out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// The measured window is cut into this many equal segments; latency
/// quantiles and CPU per transaction are reported as the median over
/// segments, so a transient stall from outside the process (another
/// tenant of the host) moves at most one or two of them.
pub const SEGMENTS: usize = 5;
/// Upper bound on the gap between two ledger polls while waiting.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// The five stage intervals must add up to each commit latency; they are
/// differences of one monotone chain of stamps, so only float rounding
/// may separate them.
const MAX_STAGE_SUM_ERROR_MS: f64 = 1e-6;

/// Peer id of the channel's reporting peer (the builder numbers peers
/// from 1, and the first peer reports).
const REPORTING_PEER: u32 = 1;

/// Deliver-only fault hook that stamps every orderer → reporting-peer
/// send. Sends on a link are FIFO, so stamp `k - 1` belongs to block `k`.
#[derive(Default)]
pub struct BroadcastStamps {
    times: Mutex<Vec<Instant>>,
}

impl FaultHook for BroadcastStamps {
    fn on_send(&self, link: LinkId, _size: usize) -> SendFault {
        if link.to == REPORTING_PEER {
            self.times.lock().expect("stamp lock").push(Instant::now());
        }
        SendFault::Deliver
    }
}

/// Builds the measured network: genesis generation plus
/// `NetworkBuilder::build`, which installs genesis on all four peers.
/// Returns the network and its set-up time.
pub fn build_network(
    spec: &Spec,
    seed: u64,
    hook: Option<Arc<BroadcastStamps>>,
) -> Result<(FabricNetwork, Duration), String> {
    let t = Instant::now();
    let mut builder = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(2)
        .channels(1)
        .pipeline(spec.pipeline())
        .latency(LatencyModel::zero())
        .cost(cost_model())
        .engine(StateEngine::Memory)
        .deploy(spec.chaincode())
        .genesis(spec.genesis(seed));
    if let Some(hook) = hook {
        builder = builder.fault_hook(hook);
    }
    let net = builder
        .build()
        .map_err(|e| format!("network build failed: {e}"))?;
    Ok((net, t.elapsed()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    /// Fabric++ simulation-phase early abort, reported by `submit`.
    SimAbort,
    /// Chaincode rejection or endorser disagreement, reported by `submit`.
    Rejected,
    /// Submitted, then dropped by the orderer (version or cycle abort):
    /// its batch's block appeared without it.
    OrderAbort,
    Committed(ValidationCode),
}

/// Per-run generator health.
#[derive(Debug, Clone, Default)]
pub struct Health {
    pub lateness_ms: [f64; 3],
    /// Batches the orderer cut by its batch timeout: the generator stalled
    /// inside a batch for longer than the timeout minus the batch's fill
    /// time, so blocks no longer match count-cut runs of submits.
    pub timeout_cuts: u64,
    /// Gaps between consecutive ledger polls: p50, p99, max.
    pub poll_gap_ms: [f64; 3],
    /// Fired, unresolved measured proposals at each quarter of the window.
    pub unresolved: [usize; 4],
    /// Firing time beyond the window until every measured proposal resolved.
    pub drain_ms: f64,
}

impl Health {
    /// Why the run is invalid, if it is.
    pub fn violation(&self, block_size: usize, window: Duration) -> Option<String> {
        if self.timeout_cuts > 0 {
            return Some(format!(
                "the orderer cut {} batches by timeout: the generator stalled inside a batch",
                self.timeout_cuts
            ));
        }
        let bound = ms(window) * MAX_LATENESS_SHARE;
        if self.lateness_ms[2] > bound {
            return Some(format!(
                "generator lateness max {:.3} ms exceeds {bound:.0} ms",
                self.lateness_ms[2]
            ));
        }
        let limit = self.unresolved[0] + MAX_BACKLOG_GROWTH_BLOCKS * block_size;
        if self.unresolved[3] > limit {
            return Some(format!(
                "backlog grew: unresolved per quarter {:?} (limit {limit})",
                self.unresolved
            ));
        }
        None
    }
}

/// Part A: the five intervals of every measured valid transaction, ms.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub intervals: Vec<[f64; 5]>,
    /// Largest |sum of intervals - commit latency| over all transactions.
    pub max_sum_error_ms: f64,
    /// Blocks whose broadcast stamp preceded the return of their batch's
    /// last `submit` (the orderer cut and sent before the client call
    /// returned); their ordering interval is clamped to zero.
    pub order_clamped: usize,
}

pub struct RunOutput {
    pub setup: Duration,
    pub fired: usize,
    pub measured: usize,
    pub measured_valid: usize,
    /// Measured proposals the system lost: left without an outcome, or
    /// committed with a code no Fabric++ validation step assigns. Either
    /// also fails an output check, so a run that prints numbers has none.
    pub measured_lost: usize,
    /// Fired proposals `submit` rejected; the runtime counts them nowhere.
    pub rejected: u64,
    /// Commit latency of every measured valid transaction, ms.
    pub latency_ms: Vec<f64>,
    pub window: Duration,
    /// Process CPU from the first due time to the end of the drain.
    pub cpu: Cpu,
    /// Per segment of the window: process CPU and proposals fired in it.
    pub segment_cpu: Vec<(Cpu, usize)>,
    /// Per segment of the window (by due time): commit latency of its
    /// measured valid transactions, ms.
    pub segment_latency_ms: Vec<Vec<f64>>,
    pub health: Health,
    pub stages: Option<Stages>,
    pub report: RunReport,
    /// Output-check failures; empty when every check passed.
    pub failures: Vec<String>,
}

impl RunOutput {
    /// Process CPU per proposal fired, per segment, µs.
    pub fn segment_cpu_us_per_fired(&self) -> Vec<f64> {
        self.segment_cpu
            .iter()
            .map(|(c, n)| ratio(us(c.total()), *n as f64))
            .collect()
    }
}

/// Outside-in bookkeeping of every fired proposal.
struct Tracker {
    t0: Instant,
    block_size: usize,
    measured: usize,
    outcome: Vec<Outcome>,
    /// Submit ordinal of each proposal (`u32::MAX` if never submitted).
    sub_ord: Vec<u32>,
    /// Proposal index of each submit ordinal.
    submitted: Vec<u32>,
    seen_ns: Vec<u64>,
    block_of: Vec<u64>,
    ids: HashMap<u64, u32>,
    next_block: u64,
    unresolved_measured: usize,
    /// Proposals `submit` rejected (endorsers returned mismatching
    /// read/write sets: they simulated at different heights).
    rejected: u64,
    /// Observations that contradict count-cut batches: a block holding a
    /// submit outside its batch's range, or a transaction committed after
    /// its batch's block was read without it.
    misattributed: usize,
    /// Submit ordinals below this have had their order aborts inferred.
    inferred_upto: usize,
    last_poll: Option<Instant>,
    poll_gaps_ms: Vec<f64>,
    failures: Vec<String>,
}

impl Tracker {
    fn new(t0: Instant, block_size: usize, measured: usize, total: usize) -> Tracker {
        Tracker {
            t0,
            block_size,
            measured,
            outcome: vec![Outcome::Pending; total],
            sub_ord: vec![u32::MAX; total],
            submitted: Vec::with_capacity(total),
            seen_ns: vec![0; total],
            block_of: vec![0; total],
            ids: HashMap::with_capacity(total),
            next_block: 1,
            unresolved_measured: 0,
            rejected: 0,
            misattributed: 0,
            inferred_upto: 0,
            last_poll: None,
            poll_gaps_ms: Vec::with_capacity(total * 2),
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    fn fired(&mut self, idx: usize, out: SubmitOutcome) {
        if idx < self.measured {
            self.unresolved_measured += 1;
        }
        match out {
            SubmitOutcome::Submitted(id) => {
                self.sub_ord[idx] = self.submitted.len() as u32;
                self.submitted.push(idx as u32);
                self.ids.insert(id.raw(), idx as u32);
            }
            SubmitOutcome::EarlyAborted(_) => self.resolve(idx, Outcome::SimAbort),
            SubmitOutcome::Rejected(_) => self.resolve(idx, Outcome::Rejected),
        }
    }

    fn resolve(&mut self, idx: usize, outcome: Outcome) {
        if let (Outcome::OrderAbort, Outcome::Committed(_)) = (self.outcome[idx], outcome) {
            // The order abort was inferred from a block that was not this
            // transaction's batch: correct it.
            self.misattributed += 1;
            self.outcome[idx] = outcome;
            return;
        }
        if self.outcome[idx] != Outcome::Pending {
            self.fail(format!(
                "proposal {idx} has a second outcome {outcome:?} after {:?}",
                self.outcome[idx]
            ));
            return;
        }
        self.outcome[idx] = outcome;
        if idx < self.measured {
            self.unresolved_measured -= 1;
        }
    }

    /// Reads every block the reporting peer appended since the last poll.
    fn poll(&mut self, ledger: &Ledger) {
        let now = Instant::now();
        if let Some(prev) = self.last_poll {
            self.poll_gaps_ms.push(ms(now - prev));
        }
        self.last_poll = Some(now);
        let now_ns = (now - self.t0).as_nanos() as u64;
        while self.next_block < ledger.height() {
            let k = self.next_block;
            let cb = ledger.get(k).expect("block below height");
            // Block k holds the survivors of the k-th batch: with one
            // generator, batches are contiguous runs of submits, cut by
            // count.
            let batch = (k - 1) as usize;
            let range = batch * self.block_size..(batch + 1) * self.block_size;
            for (tx, code) in cb.iter() {
                let Some(&idx) = self.ids.get(&tx.id.raw()) else {
                    self.fail(format!("block {k} holds unknown tx {}", tx.id.raw()));
                    continue;
                };
                let idx = idx as usize;
                if !range.contains(&(self.sub_ord[idx] as usize)) {
                    self.misattributed += 1;
                }
                self.seen_ns[idx] = now_ns;
                self.block_of[idx] = k;
                self.resolve(idx, Outcome::Committed(code));
            }
            // Every submit of the batch missing from its block was dropped
            // by the orderer. Starting from the last inferred submit rather
            // than the range's start also covers, after a timeout cut,
            // submits that had not yet been made when an earlier block was
            // read.
            let end = range.end.min(self.submitted.len());
            for ord in self.inferred_upto..end {
                let idx = self.submitted[ord] as usize;
                if self.outcome[idx] == Outcome::Pending {
                    self.resolve(idx, Outcome::OrderAbort);
                }
            }
            self.inferred_upto = self.inferred_upto.max(end);
            self.next_block += 1;
        }
    }
}

/// One open-loop run on a freshly built network.
pub fn run(spec: &Spec, seed: u64, inputs: &Inputs, traced: bool) -> Result<RunOutput, String> {
    let hook = traced.then(|| Arc::new(BroadcastStamps::default()));
    let (net, setup) = build_network(spec, seed, hook.clone())?;
    run_on(net, setup, spec, inputs, hook)
}

/// Fires `inputs` into `net` open loop, then shuts it down and checks it.
pub fn run_on(
    net: FabricNetwork,
    setup: Duration,
    spec: &Spec,
    inputs: &Inputs,
    hook: Option<Arc<BroadcastStamps>>,
) -> Result<RunOutput, String> {
    let traced = hook.is_some();
    let peers = net.channel_peers(0);
    if peers[0].id().raw() != REPORTING_PEER as u64 {
        return Err(format!(
            "reporting peer is {}, expected {REPORTING_PEER}",
            peers[0].id()
        ));
    }
    let ledger = Arc::clone(peers[0].ledger());
    let client = net.client(0);

    let total = inputs.args.len();
    let measured = inputs.measured;
    let period_ns = 1e9 / spec.rate;
    let due_ns = |i: usize| (i as f64 * period_ns) as u64;
    let window = Duration::from_nanos(due_ns(measured));
    let mut start_ns = vec![0u64; total];
    let mut end_ns = if traced {
        vec![0u64; total]
    } else {
        Vec::new()
    };
    let mut unresolved = [0usize; 4];
    let mut quarter = 0;
    let mut cpu_marks = Vec::with_capacity(SEGMENTS + 1);

    let t0 = Instant::now();
    let cpu0 = Cpu::now();
    cpu_marks.push(cpu0);
    let mut tr = Tracker::new(t0, spec.block_size, measured, total);
    let mut i = 0;
    let mut stalled_since: Option<Instant> = None;
    loop {
        tr.poll(&ledger);
        while quarter < 4 && t0.elapsed() >= window * (quarter as u32 + 1) / 4 {
            unresolved[quarter] = tr.unresolved_measured;
            quarter += 1;
        }
        while cpu_marks.len() <= SEGMENTS
            && t0.elapsed() >= window * (cpu_marks.len() as u32) / SEGMENTS as u32
        {
            cpu_marks.push(Cpu::now());
        }
        if i >= measured && tr.unresolved_measured == 0 {
            break;
        }
        let now = Instant::now();
        if i < total {
            let due = t0 + Duration::from_nanos(due_ns(i));
            if now < due {
                std::thread::sleep((due - now).min(POLL_EVERY));
                continue;
            }
            let args = inputs.args[i].clone();
            let start = Instant::now();
            start_ns[i] = (start - t0).as_nanos() as u64;
            let out = client.submit(inputs.chaincode, args);
            if traced {
                end_ns[i] = (Instant::now() - t0).as_nanos() as u64;
            }
            tr.fired(i, out);
            i += 1;
        } else {
            let since = *stalled_since.get_or_insert(now);
            if now - since > DRAIN_TIMEOUT {
                return Err(format!(
                    "{} measured proposals still unresolved {DRAIN_TIMEOUT:?} after the last \
                     filler proposal",
                    tr.unresolved_measured
                ));
            }
            std::thread::sleep(POLL_EVERY);
        }
    }
    let drained = t0.elapsed();
    let cpu = Cpu::now().since(cpu0);
    let fired = i;

    drop(client);
    let report = net.finish();
    // The filler tail is flushed at shutdown: account for it too, so the
    // every-proposal-has-one-outcome check covers all fired proposals.
    // This read is not part of the observation, so it records no gap.
    tr.last_poll = None;
    tr.poll(&ledger);
    for ord in 0..tr.submitted.len() {
        let idx = tr.submitted[ord] as usize;
        if tr.outcome[idx] == Outcome::Pending {
            tr.resolve(idx, Outcome::OrderAbort);
        }
    }
    check_outcomes(&mut tr, fired, &report);
    check_replicas(&mut tr, &peers, &report);
    // A timeout cut breaks the attribution of blocks to count-cut batches:
    // the run is invalid (see `Health::violation`), not wrong. Without
    // one, blocks that do not match their batches are an output error.
    let timeout_cuts = report.orderer.cut_timeout;
    if tr.misattributed > 0 && timeout_cuts == 0 {
        tr.fail(format!(
            "{} transactions are not in their count-cut batch's block, yet the orderer cut \
             no batch by timeout",
            tr.misattributed
        ));
    }
    let attributed = tr.misattributed == 0 && timeout_cuts == 0;

    let lateness = sorted(
        (0..measured)
            .map(|i| (start_ns[i] - due_ns(i)) as f64 / 1e6)
            .collect(),
    );
    let gaps = sorted(std::mem::take(&mut tr.poll_gaps_ms));
    let health = Health {
        lateness_ms: [
            quantile(&lateness, 0.5),
            quantile(&lateness, 0.99),
            lateness[measured - 1],
        ],
        timeout_cuts,
        poll_gap_ms: [
            quantile(&gaps, 0.5),
            quantile(&gaps, 0.99),
            gaps[gaps.len() - 1],
        ],
        unresolved,
        drain_ms: ms(drained.saturating_sub(window)),
    };

    // Segment k covers [k, k + 1) * window / SEGMENTS, by firing time for
    // CPU and by due time for latency.
    let segment_of = |t_ns: u64| {
        ((t_ns as u128 * SEGMENTS as u128 / window.as_nanos().max(1)) as usize).min(SEGMENTS - 1)
    };
    let mut fired_in = vec![0usize; SEGMENTS];
    for &t in &start_ns[..fired] {
        if (t as u128) < window.as_nanos() {
            fired_in[segment_of(t)] += 1;
        }
    }
    let segment_cpu: Vec<(Cpu, usize)> = cpu_marks
        .windows(2)
        .zip(&fired_in)
        .map(|(w, &n)| (w[1].since(w[0]), n))
        .collect();
    if segment_cpu.len() != SEGMENTS {
        tr.fail(format!(
            "CPU sampled for {} of {SEGMENTS} segments",
            segment_cpu.len()
        ));
    }

    let valid: Vec<usize> = (0..measured)
        .filter(|&i| matches!(tr.outcome[i], Outcome::Committed(c) if c.is_valid()))
        .collect();
    let latency_ms: Vec<f64> = valid
        .iter()
        .map(|&i| (tr.seen_ns[i] - due_ns(i)) as f64 / 1e6)
        .collect();
    let mut segment_latency_ms = vec![Vec::new(); SEGMENTS];
    for (&i, &l) in valid.iter().zip(&latency_ms) {
        segment_latency_ms[segment_of(due_ns(i))].push(l);
    }

    // The stage split needs each block's batch, so only count cuts.
    let stages = hook.filter(|_| attributed).map(|hook| {
        let stamps: Vec<u64> = hook
            .times
            .lock()
            .expect("stamp lock")
            .iter()
            .map(|t| t.saturating_duration_since(t0).as_nanos() as u64)
            .collect();
        stage_split(&tr, &valid, &start_ns, &end_ns, &stamps, due_ns)
    });
    if let Some(s) = &stages {
        if s.max_sum_error_ms > MAX_STAGE_SUM_ERROR_MS {
            tr.fail(format!(
                "stage intervals miss a commit latency by {} ms",
                s.max_sum_error_ms
            ));
        }
        if s.intervals.len() != valid.len() {
            tr.fail(format!(
                "stage split covers {} of {} valid transactions",
                s.intervals.len(),
                valid.len()
            ));
        }
    }

    Ok(RunOutput {
        setup,
        fired,
        measured,
        measured_valid: valid.len(),
        measured_lost: tr.outcome[..measured]
            .iter()
            .filter(|o| match o {
                Outcome::Pending => true,
                Outcome::Committed(c) => !matches!(
                    c,
                    ValidationCode::Valid
                        | ValidationCode::MvccConflict
                        | ValidationCode::EndorsementFailure
                ),
                _ => false,
            })
            .count(),
        rejected: tr.rejected,
        latency_ms,
        window,
        cpu,
        segment_cpu,
        segment_latency_ms,
        health,
        stages,
        report,
        failures: tr.failures,
    })
}

/// Every fired proposal has exactly one outcome, and the outside-in tally
/// agrees with the runtime's own counters.
fn check_outcomes(tr: &mut Tracker, fired: usize, report: &RunReport) {
    let mut valid = 0u64;
    let (mut sim, mut rejected, mut order, mut mvcc, mut endorse) = (0u64, 0, 0, 0, 0);
    for (idx, o) in tr.outcome[..fired].iter().enumerate() {
        match o {
            Outcome::Pending => {
                tr.failures.push(format!("proposal {idx} has no outcome"));
                return;
            }
            Outcome::SimAbort => sim += 1,
            Outcome::Rejected => rejected += 1,
            Outcome::OrderAbort => order += 1,
            Outcome::Committed(ValidationCode::Valid) => valid += 1,
            Outcome::Committed(ValidationCode::MvccConflict) => mvcc += 1,
            Outcome::Committed(ValidationCode::EndorsementFailure) => endorse += 1,
            Outcome::Committed(other) => {
                tr.failures
                    .push(format!("proposal {idx} committed with code {other:?}"));
            }
        }
    }
    tr.rejected = rejected;
    let s = &report.stats;
    let pairs = [
        ("submitted", fired as u64, s.submitted),
        ("valid", valid, s.valid),
        ("simulation early aborts", sim, s.early_abort_simulation),
        (
            "order-phase aborts",
            order,
            s.early_abort_cycle + s.early_abort_version_mismatch,
        ),
        ("mvcc conflicts", mvcc, s.mvcc_conflict),
        ("endorsement failures", endorse, s.endorsement_failure),
    ];
    for (what, ours, theirs) in pairs {
        if ours != theirs {
            tr.fail(format!(
                "{what}: benchmark saw {ours}, runtime counted {theirs}"
            ));
        }
    }
}

/// All peers agree on height, tip hash and state digest.
fn check_replicas(tr: &mut Tracker, peers: &[Arc<fabric_peer::peer::Peer>], report: &RunReport) {
    let probe = |p: &fabric_peer::peer::Peer| {
        let digest = p
            .store()
            .state_digest()
            .map(|d| d.to_hex())
            .unwrap_or_default();
        (p.ledger().height(), p.ledger().tip_hash(), digest)
    };
    let first = probe(&peers[0]);
    if Some(&first.0) != report.block_heights.first() {
        tr.fail(format!(
            "reporting peer height {} != report {:?}",
            first.0, report.block_heights
        ));
    }
    for p in &peers[1..] {
        let other = probe(p);
        if other != first {
            tr.fail(format!(
                "peer {} disagrees: height {} vs {}, tip/state digest differ",
                p.id(),
                other.0,
                first.0
            ));
        }
    }
}

/// Splits each valid transaction's latency into five intervals:
/// due → submit call → submit return → batch cut (the return of the
/// batch's last submit) → broadcast to the reporting peer → seen in its
/// ledger. The broadcast stamp is clamped into `[cut, seen]`, so the
/// intervals are non-negative and telescope to the latency exactly.
fn stage_split(
    tr: &Tracker,
    valid: &[usize],
    start_ns: &[u64],
    end_ns: &[u64],
    stamps: &[u64],
    due_ns: impl Fn(usize) -> u64,
) -> Stages {
    let mut out = Stages::default();
    let mut clamped_blocks = std::collections::HashSet::new();
    for &i in valid {
        let k = tr.block_of[i] as usize;
        let Some(&bcast) = stamps.get(k - 1) else {
            continue;
        };
        let batch_end = (k * tr.block_size).min(tr.submitted.len());
        let cut = end_ns[tr.submitted[batch_end - 1] as usize];
        let seen = tr.seen_ns[i];
        if bcast < cut {
            clamped_blocks.insert(k);
        }
        let bcast = bcast.clamp(cut, seen);
        let due = due_ns(i);
        let t = [due, start_ns[i], end_ns[i], cut, bcast, seen];
        let iv: [f64; 5] = std::array::from_fn(|j| (t[j + 1] as f64 - t[j] as f64) / 1e6);
        let latency = (seen - due) as f64 / 1e6;
        let err = (iv.iter().sum::<f64>() - latency).abs();
        out.max_sum_error_ms = out.max_sum_error_ms.max(err);
        out.intervals.push(iv);
    }
    out.order_clamped = clamped_blocks.len();
    out
}
