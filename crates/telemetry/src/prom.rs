//! Prometheus text-format (0.0.4) export of a [`TelemetrySeries`].
//!
//! Mirrors the conventions of `fabric-trace`'s exporter: `# HELP` /
//! `# TYPE` headers per family, `fabric_` metric prefix, one sample per
//! window keyed by a `window="N"` label. Windows are logical time
//! (block/tx counts), so the series is reproducible run-to-run — there
//! are no wall-clock timestamps on the samples.

use std::fmt::Write as _;

use fabric_common::escape_label_value;

use crate::TelemetrySeries;

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn windowed(out: &mut String, name: &str, series: &TelemetrySeries, f: impl Fn(usize) -> u64) {
    for (i, w) in series.windows.iter().enumerate() {
        let _ = writeln!(out, "{name}{{window=\"{}\"}} {}", w.index, f(i));
    }
}

fn aborted_sample(out: &mut String, window: u64, reason: &str, n: u64) {
    let _ = writeln!(
        out,
        "fabric_window_aborted{{window=\"{window}\",reason=\"{}\"}} {n}",
        escape_label_value(reason)
    );
}

/// Renders the whole series as Prometheus text.
pub fn render(series: &TelemetrySeries) -> String {
    let mut out = String::with_capacity(series.windows.len() * 1024 + 512);
    let w = &series.windows;

    family(
        &mut out,
        "fabric_telemetry_dropped_windows",
        "counter",
        "Windows discarded because the ring was full",
    );
    let _ = writeln!(out, "fabric_telemetry_dropped_windows {}", series.dropped_windows);

    family(
        &mut out,
        "fabric_window_end_block",
        "gauge",
        "Logical-time watermark (total committed blocks) at window close",
    );
    windowed(&mut out, "fabric_window_end_block", series, |i| w[i].end_logical_block);

    family(&mut out, "fabric_window_blocks", "gauge", "Blocks committed in the window");
    windowed(&mut out, "fabric_window_blocks", series, |i| w[i].blocks);

    family(&mut out, "fabric_window_submitted", "gauge", "Transactions submitted in the window");
    windowed(&mut out, "fabric_window_submitted", series, |i| w[i].stats.submitted);

    family(&mut out, "fabric_window_valid", "gauge", "Transactions committed VALID in the window");
    windowed(&mut out, "fabric_window_valid", series, |i| w[i].stats.valid);

    family(
        &mut out,
        "fabric_window_aborted",
        "gauge",
        "Aborted transactions in the window by reason",
    );
    for rec in w {
        let pairs = [
            ("mvcc_conflict", rec.stats.mvcc_conflict),
            ("endorsement_failure", rec.stats.endorsement_failure),
            ("early_abort_simulation", rec.stats.early_abort_simulation),
            ("early_abort_cycle", rec.stats.early_abort_cycle),
            ("early_abort_version_mismatch", rec.stats.early_abort_version_mismatch),
        ];
        for (reason, n) in pairs {
            aborted_sample(&mut out, rec.index, reason, n);
        }
    }

    for (name, help, pick) in [
        (
            "fabric_window_latency_p50_us",
            "p50 commit latency (us) over the window",
            0usize,
        ),
        (
            "fabric_window_latency_p90_us",
            "p90 commit latency (us) over the window",
            1,
        ),
        (
            "fabric_window_latency_p99_us",
            "p99 commit latency (us) over the window",
            2,
        ),
    ] {
        family(&mut out, name, "gauge", help);
        windowed(&mut out, name, series, |i| match pick {
            0 => w[i].latency.p50_us,
            1 => w[i].latency.p90_us,
            _ => w[i].latency.p99_us,
        });
    }

    family(&mut out, "fabric_window_cutter_queue_txs", "gauge", "Cutter queue depth at window close");
    windowed(&mut out, "fabric_window_cutter_queue_txs", series, |i| w[i].gauges.cutter_queue_txs);

    family(&mut out, "fabric_window_consensus_msgs", "gauge", "Consensus wire messages in the window");
    windowed(&mut out, "fabric_window_consensus_msgs", series, |i| w[i].gauges.consensus_msgs);

    family(
        &mut out,
        "fabric_window_view_changes",
        "gauge",
        "Consensus view changes observed in the window",
    );
    windowed(&mut out, "fabric_window_view_changes", series, |i| {
        w[i].gauges.consensus_view_changes
    });

    family(&mut out, "fabric_window_wal_fsyncs", "gauge", "WAL fsyncs in the window");
    windowed(&mut out, "fabric_window_wal_fsyncs", series, |i| w[i].store.wal_fsyncs);

    family(&mut out, "fabric_window_memtable_bytes", "gauge", "Memtable bytes at window close");
    windowed(&mut out, "fabric_window_memtable_bytes", series, |i| w[i].memtable_bytes);

    family(
        &mut out,
        "fabric_window_gc_floor_lag",
        "gauge",
        "Blocks between chain tip and snapshot GC floor at window close",
    );
    windowed(&mut out, "fabric_window_gc_floor_lag", series, |i| w[i].gc_floor_lag);

    family(&mut out, "fabric_window_live_pins", "gauge", "Live snapshot pins at window close");
    windowed(&mut out, "fabric_window_live_pins", series, |i| w[i].live_pins);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowRecord;
    use fabric_common::TxStats;

    #[test]
    fn hostile_label_renders_golden_bytes() {
        let mut out = String::new();
        aborted_sample(&mut out, 3, "a\\b\"c\nd", 5);
        assert_eq!(out, "fabric_window_aborted{window=\"3\",reason=\"a\\\\b\\\"c\\nd\"} 5\n");
    }

    #[test]
    fn render_emits_one_sample_per_window() {
        let series = TelemetrySeries {
            windows: vec![
                WindowRecord {
                    index: 0,
                    end_logical_block: 4,
                    blocks: 4,
                    stats: TxStats { submitted: 9, valid: 7, mvcc_conflict: 2, ..Default::default() },
                    ..Default::default()
                },
                WindowRecord { index: 1, end_logical_block: 8, blocks: 4, ..Default::default() },
            ],
            dropped_windows: 0,
            total: TxStats::default(),
        };
        let text = render(&series);
        assert!(text.contains("# TYPE fabric_window_valid gauge"));
        assert!(text.contains("fabric_window_valid{window=\"0\"} 7"));
        assert!(text.contains("fabric_window_valid{window=\"1\"} 0"));
        assert!(text.contains("fabric_window_aborted{window=\"0\",reason=\"mvcc_conflict\"} 2"));
        assert!(text.contains("fabric_telemetry_dropped_windows 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad sample line: {line}");
        }
    }
}
