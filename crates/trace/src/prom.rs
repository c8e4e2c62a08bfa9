//! Prometheus-style text exposition (version 0.0.4) of the run's
//! aggregate metrics: transaction outcomes, state-store access counters,
//! per-phase latency summaries, and the flight recorder's own accounting.
//!
//! This is a *snapshot* renderer — hand the end-of-run `TxStats`,
//! `StoreStats`, and `PhaseSummary` (all already part of `RunReport`) to
//! [`render`] and write the result wherever a scraper or a human expects
//! it. No server, no background thread: the reproduction's runs are
//! finite, so exposition-at-exit is the honest equivalent of a scrape.

use std::fmt::Write as _;

use fabric_common::escape_label_value;
use fabric_common::metrics::{LatencySummary, PhaseSummary, StoreStats, TxStats};

use crate::TraceSink;

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn labeled_counter(out: &mut String, name: &str, help: &str, rows: &[(&str, u64)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (label, value) in rows {
        let _ =
            writeln!(out, "{name}{{outcome=\"{}\"}} {value}", escape_label_value(label));
    }
}

fn phase_rows(out: &mut String, phase: &str, s: &LatencySummary) {
    let rows: [(&str, u64); 6] = [
        ("min", s.min.as_micros() as u64),
        ("max", s.max.as_micros() as u64),
        ("avg", s.avg.as_micros() as u64),
        ("p50", s.p50.as_micros() as u64),
        ("p95", s.p95.as_micros() as u64),
        ("p99", s.p99.as_micros() as u64),
    ];
    let phase = escape_label_value(phase);
    let _ = writeln!(out, "fabric_phase_samples_total{{phase=\"{phase}\"}} {}", s.count);
    for (stat, v) in rows {
        let _ = writeln!(
            out,
            "fabric_phase_latency_microseconds{{phase=\"{phase}\",stat=\"{stat}\"}} {v}"
        );
    }
}

/// Renders one text exposition from the end-of-run snapshots. `sink` may
/// be disabled; its emitted/dropped/capacity gauges then read zero.
pub fn render(
    tx: &TxStats,
    store: &StoreStats,
    phases: &PhaseSummary,
    sink: &TraceSink,
) -> String {
    let mut out = String::with_capacity(4096);

    counter(&mut out, "fabric_tx_submitted_total", "Proposals fired by clients", tx.submitted);
    labeled_counter(
        &mut out,
        "fabric_tx_outcomes_total",
        "Transactions by final outcome",
        &[
            ("valid", tx.valid),
            ("mvcc_conflict", tx.mvcc_conflict),
            ("endorsement_failure", tx.endorsement_failure),
            ("early_abort_simulation", tx.early_abort_simulation),
            ("early_abort_cycle", tx.early_abort_cycle),
            ("early_abort_version_mismatch", tx.early_abort_version_mismatch),
        ],
    );

    counter(
        &mut out,
        "fabric_store_multi_get_batches_total",
        "Batched version prefetches",
        store.multi_get_batches,
    );
    counter(
        &mut out,
        "fabric_store_multi_get_keys_total",
        "Keys probed across batched prefetches",
        store.multi_get_keys,
    );
    counter(&mut out, "fabric_store_point_gets_total", "Single-key point lookups", store.point_gets);
    counter(
        &mut out,
        "fabric_store_blocks_applied_total",
        "Blocks installed via the batched commit path",
        store.blocks_applied,
    );
    counter(
        &mut out,
        "fabric_store_shard_lock_acquisitions_total",
        "Shard write-lock acquisitions across committed blocks",
        store.shard_lock_acquisitions,
    );
    counter(
        &mut out,
        "fabric_store_wal_records_total",
        "Group-commit WAL records written",
        store.wal_records,
    );
    counter(&mut out, "fabric_store_wal_fsyncs_total", "WAL records fsynced", store.wal_fsyncs);

    let _ = writeln!(
        out,
        "# HELP fabric_phase_samples_total Samples recorded per pipeline phase"
    );
    let _ = writeln!(out, "# TYPE fabric_phase_samples_total counter");
    let _ = writeln!(
        out,
        "# HELP fabric_phase_latency_microseconds Per-phase latency summary statistics"
    );
    let _ = writeln!(out, "# TYPE fabric_phase_latency_microseconds gauge");
    for (label, summary) in phases.rows() {
        phase_rows(&mut out, label, &summary);
    }

    counter(
        &mut out,
        "fabric_trace_events_emitted_total",
        "Flight-recorder events emitted (including dropped)",
        sink.emitted(),
    );
    counter(
        &mut out,
        "fabric_trace_events_dropped_total",
        "Flight-recorder events lost to drop-oldest",
        sink.dropped(),
    );
    counter(
        &mut out,
        "fabric_trace_spans_dropped_total",
        "Per-block span events among the dropped (holes in block phase timelines)",
        sink.dropped_spans(),
    );
    let _ = writeln!(out, "# HELP fabric_trace_ring_capacity Flight-recorder ring capacity");
    let _ = writeln!(out, "# TYPE fabric_trace_ring_capacity gauge");
    let _ = writeln!(out, "fabric_trace_ring_capacity {}", sink.capacity());
    let _ = writeln!(
        out,
        "# HELP fabric_trace_events_retained Events currently held in the ring"
    );
    let _ = writeln!(out, "# TYPE fabric_trace_events_retained gauge");
    let _ = writeln!(out, "fabric_trace_events_retained {}", sink.retained());

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use fabric_common::TxId;

    #[test]
    fn renders_all_metric_families() {
        let tx = TxStats { submitted: 10, valid: 6, mvcc_conflict: 4, ..Default::default() };
        let store = StoreStats { multi_get_batches: 3, wal_records: 2, ..Default::default() };
        let phases = PhaseSummary::default();
        let sink = TraceSink::bounded(8);
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(1) });
        let text = render(&tx, &store, &phases, &sink);

        assert!(text.contains("fabric_tx_submitted_total 10"));
        assert!(text.contains("fabric_tx_outcomes_total{outcome=\"valid\"} 6"));
        assert!(text.contains("fabric_tx_outcomes_total{outcome=\"mvcc_conflict\"} 4"));
        assert!(text.contains("fabric_store_multi_get_batches_total 3"));
        assert!(text.contains("fabric_store_wal_records_total 2"));
        assert!(text.contains("fabric_phase_latency_microseconds{phase=\"endorse\",stat=\"p99\"} 0"));
        assert!(text.contains("fabric_trace_events_emitted_total 1"));
        assert!(text.contains("fabric_trace_events_dropped_total 0"));
        assert!(text.contains("fabric_trace_spans_dropped_total 0"));
        assert!(text.contains("fabric_trace_ring_capacity 8"));
        assert!(text.contains("fabric_trace_events_retained 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad exposition line: {line}");
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn hostile_labels_render_golden_bytes() {
        // A label holding a backslash, a double quote and a newline stays
        // on one line and inside its quotes, in both labeled families.
        let mut out = String::new();
        labeled_counter(&mut out, "m", "h", &[("ke\"y\\na\nme", 7)]);
        assert_eq!(
            out,
            "# HELP m h\n# TYPE m counter\nm{outcome=\"ke\\\"y\\\\na\\nme\"} 7\n"
        );
        let mut out = String::new();
        phase_rows(&mut out, "a\\b\"c\nd", &LatencySummary::default());
        let p = "phase=\"a\\\\b\\\"c\\nd\"";
        let expected = format!(
            "fabric_phase_samples_total{{{p}}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"min\"}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"max\"}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"avg\"}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"p50\"}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"p95\"}} 0\n\
             fabric_phase_latency_microseconds{{{p},stat=\"p99\"}} 0\n"
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn span_drops_are_counted_separately() {
        let sink = TraceSink::bounded(2);
        // Fill the ring with spans, then push tx instants over them:
        // every eviction is a span. Then push more instants: evictions
        // are instants, so the span counter stays put.
        sink.emit(EventKind::BlockCut { reason: crate::CutKind::TxCount, txs: 1 });
        sink.emit(EventKind::BlockCut { reason: crate::CutKind::TxCount, txs: 1 });
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(1) });
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(2) });
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.dropped_spans(), 2);
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(3) });
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.dropped_spans(), 2);
        assert_eq!(sink.retained(), 2);
        let text = render(
            &TxStats::default(),
            &StoreStats::default(),
            &PhaseSummary::default(),
            &sink,
        );
        assert!(text.contains("fabric_trace_events_dropped_total 3"));
        assert!(text.contains("fabric_trace_spans_dropped_total 2"));
    }

    #[test]
    fn disabled_sink_reads_zero() {
        let text = render(
            &TxStats::default(),
            &StoreStats::default(),
            &PhaseSummary::default(),
            &TraceSink::disabled(),
        );
        assert!(text.contains("fabric_trace_ring_capacity 0"));
        assert!(text.contains("fabric_trace_events_emitted_total 0"));
    }
}
