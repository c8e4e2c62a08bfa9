//! The workloads and the seeded proposal stream each run fires.
//!
//! Everything the system under test receives is generated here, up front,
//! from the workload seed: the genesis key/values and the argument bytes
//! of every proposal. The generator thread only replays this list, so the
//! untraced run, the traced run and the single-threaded layer driver all
//! see byte-identical inputs (checked through [`Inputs::digest`]).

use std::sync::Arc;

use fabric_common::hash::Sha256;
use fabric_common::{CostModel, Key, PipelineConfig, Value};
use fabric_peer::chaincode::Chaincode;
use fabric_workloads::smallbank::SmallbankChaincode;
use fabric_workloads::{SmallbankConfig, SmallbankWorkload, WorkloadGen};

/// Names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["zipf-hot", "uniform-mix"];

/// Proposals generated beyond the measured window, in seconds of firing:
/// the generator keeps firing them until every measured proposal's batch
/// has been cut by count and committed, so the measured tail never waits
/// for the batch timeout.
const FILLER_SECONDS: f64 = 5.0;

/// Label of [`cost_model`] for result records.
pub const COST_LABEL: &str = "raw (1 HMAC iteration, no chaincode delay)";

/// The crypto and chaincode cost every workload runs under.
pub fn cost_model() -> CostModel {
    CostModel::raw()
}

/// One Smallbank workload: inputs, firing rate and block size.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub users: u64,
    /// Zipf skew of account selection (0 = uniform).
    pub s: f64,
    /// Share of write transactions.
    pub p_write: f64,
    /// Proposals fired per second.
    pub rate: f64,
    pub block_size: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "zipf-hot" => Spec {
                name: "zipf-hot",
                users: 1_000,
                s: 0.9,
                p_write: 0.9,
                rate: 3_000.0,
                block_size: 1024,
            },
            "uniform-mix" => Spec {
                name: "uniform-mix",
                users: 20_000,
                s: 0.0,
                p_write: 0.5,
                rate: 2_500.0,
                block_size: 1024,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Full Fabric++ with this workload's block size; the worker, reorder
    /// and lane counts keep their host-derived defaults.
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::fabric_pp().with_block_size(self.block_size)
    }

    pub fn chaincode(&self) -> Arc<dyn Chaincode> {
        SmallbankChaincode::deployable()
    }

    fn generator(&self, seed: u64) -> SmallbankWorkload {
        SmallbankWorkload::new(SmallbankConfig {
            users: self.users,
            p_write: self.p_write,
            s_value: self.s,
            seed,
        })
    }

    /// The genesis state for `seed`. Called inside every timed set-up:
    /// generating it is part of what `setup_s` measures.
    pub fn genesis(&self, seed: u64) -> Vec<(Key, Value)> {
        self.generator(seed).genesis()
    }

    /// Human-readable input description for result records.
    pub fn describe(&self) -> String {
        format!(
            "smallbank users={} zipf_s={} p_write={}",
            self.users, self.s, self.p_write
        )
    }
}

/// The generated proposal stream of one run.
pub struct Inputs {
    pub chaincode: &'static str,
    /// Argument bytes of every proposal, in firing order.
    pub args: Vec<Vec<u8>>,
    /// The first `measured` proposals are due inside the measured window.
    pub measured: usize,
    /// SHA-256 over the genesis state and every proposal, hex-encoded.
    pub digest: String,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
        let measured = (spec.rate * seconds).round() as usize;
        let total = measured + (spec.rate * FILLER_SECONDS).round() as usize;
        let mut gen = spec.generator(seed);
        let chaincode = gen.chaincode();
        let args: Vec<Vec<u8>> = (0..total).map(|_| gen.next_args()).collect();

        let mut h = Sha256::new();
        h.update(chaincode.as_bytes());
        for (k, v) in gen.genesis() {
            h.update(&(k.as_bytes().len() as u64).to_le_bytes());
            h.update(k.as_bytes());
            h.update(&(v.as_bytes().len() as u64).to_le_bytes());
            h.update(v.as_bytes());
        }
        for a in &args {
            h.update(&(a.len() as u64).to_le_bytes());
            h.update(a);
        }
        Inputs {
            chaincode,
            args,
            measured,
            digest: h.finalize().to_hex(),
        }
    }
}
