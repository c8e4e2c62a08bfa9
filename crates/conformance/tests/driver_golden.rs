//! Driver golden: the SHA-256 of every replicated artifact the baseline
//! replica produces on each quiescent fixture, pinned byte-for-byte.
//!
//! The conformance matrix proves that replicas agree with *each other*;
//! this test proves the deterministic driver itself has not drifted. A
//! change to `ChaosNet`, the orderer, the peers or the block encoding
//! that alters any committed byte fails here even when every replica
//! still agrees. The digests were cross-checked against the former
//! standalone scripted driver, which produced the identical block
//! stream, state digest, chain fingerprint and outcome counters on these
//! fixtures (with explicit transaction ids).
//!
//! If a change is *meant* to alter committed bytes, re-derive the table
//! from the failure message and say why in the change description.

use fabric_common::sha256;
use fabric_conformance::{
    run_replica, Fixture, PlanKind, ReplicaSpec, BLOCK_STREAM, CHAIN_FINGERPRINT,
    SCHEDULE_DIGEST, STATE_DIGEST, TX_STATS,
};

/// SHA-256 of the fault-free plan's schedule digest, shared by every
/// quiescent fixture.
const EMPTY_SCHEDULE: &str = "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456";

/// `(fixture, artifact, sha256 hex, artifact length)`.
const GOLDEN: &[(&str, &str, &str, usize)] = &[
    (
        "small",
        BLOCK_STREAM,
        "8de3998dfd6664125f07d4e94818cc2ae2134c561007b98607686d2df2b2aaf6",
        3102,
    ),
    ("small", STATE_DIGEST, "1c6edd13dc307f3ac8c4e8eeddb81cf1a1ed1b88aadf21a829f665ab3ba398c2", 32),
    (
        "small",
        CHAIN_FINGERPRINT,
        "7bb6de4091767d01acfaca1929d372f04128b214e34d87652e4812bbefc9b2c9",
        44,
    ),
    ("small", SCHEDULE_DIGEST, EMPTY_SCHEDULE, 32),
    ("small", TX_STATS, "5e98a7317ff55a33dc252e3943b617d257cc54b7c894a3b473258f60350e4421", 56),
    (
        "medium",
        BLOCK_STREAM,
        "e25c8a530604e3646a1d5a9096f7d9230cf7fb74e1191946f959ec6c78d40f06",
        21222,
    ),
    (
        "medium",
        STATE_DIGEST,
        "0ca4f8585bc2011ccf72e886568e6e9a0706884c2e9022ddba0c15ca42407942",
        32,
    ),
    (
        "medium",
        CHAIN_FINGERPRINT,
        "f39689699a197e39ca282742f232d35fed65ea7863befc91e2e76e95a80d72bc",
        44,
    ),
    ("medium", SCHEDULE_DIGEST, EMPTY_SCHEDULE, 32),
    ("medium", TX_STATS, "711c3fd750dbf973a11f99616338c9f64de63efc2a31bb524597057f206e242f", 56),
    (
        "adversarial-conflict",
        BLOCK_STREAM,
        "58e2de4456e38091559fbb91fdea4263b4975fd4c04753fb21fbdfecd3de2e01",
        3138,
    ),
    (
        "adversarial-conflict",
        STATE_DIGEST,
        "021581b2d536e2bd929631f57dbd8fc488fe1776611902b5cad102eae041b514",
        32,
    ),
    (
        "adversarial-conflict",
        CHAIN_FINGERPRINT,
        "ad30e9745ee04a89128d48125d5d23923a222dcccac7b871c985ac14de12b590",
        44,
    ),
    ("adversarial-conflict", SCHEDULE_DIGEST, EMPTY_SCHEDULE, 32),
    (
        "adversarial-conflict",
        TX_STATS,
        "23ef6956e85bb414396727f7b5e24e4691a6754f7b803172a9be676dfe356471",
        56,
    ),
];

#[test]
fn baseline_artifacts_match_the_pinned_digests() {
    let quiescent: Vec<Fixture> =
        Fixture::all().into_iter().filter(|f| f.plan == PlanKind::Quiescent).collect();
    assert_eq!(quiescent.len() * 5, GOLDEN.len(), "one row per quiescent fixture artifact");
    let mut drift = Vec::new();
    for fixture in &quiescent {
        let replica = run_replica(fixture, &ReplicaSpec::baseline()).unwrap();
        for &(name, artifact, digest, len) in GOLDEN.iter().filter(|g| g.0 == fixture.name) {
            let bytes = &replica.artifact(artifact).expect("artifact collected").bytes;
            let got = sha256(bytes).to_hex();
            if got != digest || bytes.len() != len {
                drift.push(format!(
                    "{name}/{artifact}: sha256 {got} ({} bytes), pinned {digest} ({len} bytes)",
                    bytes.len()
                ));
            }
        }
    }
    assert!(drift.is_empty(), "driver output drifted:\n{}", drift.join("\n"));
}
