//! Open-loop Fabric++ benchmark.
//!
//! ```text
//! openloop --workload <zipf-hot|uniform-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` builds the network at least twice, fires the workload open
//! loop for `--seconds` into the last build, builds it at least once more
//! (set-up time is the median build), checks the outputs and prints the
//! end-to-end metrics. `--trace 1` runs
//! the same workload and seed three ways — untraced, traced through the
//! threaded runtime (Part A: stage split) and through the layer calls on
//! one thread (Part B: self times) — and prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! or an unhealthy generator exits non-zero without it.

mod drive;
mod layers;
mod measure;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use drive::RunOutput;
use fabricpp::FabricNetwork;
use layers::{LayerOutput, Span};
use measure::{median, ms, peak_rss_mb, quantile, ratio, sorted, us};
use workload::{Inputs, Spec};

/// An untraced run times network builds on both sides of the measured
/// firing, and `setup_s` is the median build: the host's speed shifts in
/// phases of a second or more, and builds spread over the whole run sample
/// more of them. Before the firing it builds at least twice (the last build
/// is the measured network), after it at least once; each side keeps
/// building until `SETUP_MIN_TOTAL` of set-up has been measured, with at
/// most `SETUP_MAX_REPS` builds. Cheap set-ups thus get many samples and
/// expensive ones three.
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(2);

/// Times network builds into `setups` until at least `min_reps` builds and
/// `SETUP_MIN_TOTAL` of set-up (or `SETUP_MAX_REPS` builds) are reached.
/// Returns the last network and its set-up time.
fn time_builds(
    spec: &Spec,
    seed: u64,
    min_reps: usize,
    setups: &mut Vec<Duration>,
) -> Result<(FabricNetwork, Duration), String> {
    let mut total = Duration::ZERO;
    let mut n = 0;
    loop {
        let (net, took) = drive::build_network(spec, seed, None)?;
        setups.push(took);
        total += took;
        n += 1;
        if n >= SETUP_MAX_REPS || (n >= min_reps && total >= SETUP_MIN_TOTAL) {
            return Ok((net, took));
        }
        drop(net.finish());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    Ok(args)
}

/// One named metric with its unit and sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("openloop: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!(
            "openloop: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("openloop: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything the record line reports besides the metrics.
struct Record {
    digest: String,
    runs: Vec<(&'static str, RunOutput)>,
    layers: Option<LayerOutput>,
    setups: Vec<Duration>,
    /// Peak RSS at the end of the untraced run, MiB.
    peak_rss_mb: f64,
}

fn run(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let inputs = Inputs::generate(spec, args.seed, args.seconds);
    let digest = inputs.digest.clone();
    // Each run regenerates its inputs from the seed; the digests must agree.
    let inputs_for = |what: &str| -> Result<Inputs, String> {
        let again = Inputs::generate(spec, args.seed, args.seconds);
        if again.digest != digest {
            return Err(format!(
                "{what}: generated-input digest differs from the first run's"
            ));
        }
        Ok(again)
    };

    let mut rec = Record {
        digest: digest.clone(),
        runs: Vec::new(),
        layers: None,
        setups: Vec::new(),
        peak_rss_mb: 0.0,
    };
    if args.trace {
        rec.runs
            .push(("untraced", drive::run(spec, args.seed, &inputs, false)?));
        rec.peak_rss_mb = peak_rss_mb();
        rec.runs.push((
            "traced",
            drive::run(spec, args.seed, &inputs_for("traced run")?, true)?,
        ));
        rec.layers = Some(layers::run(spec, args.seed, &inputs_for("layer driver")?)?);
    } else {
        let (net, took) = time_builds(spec, args.seed, 2, &mut rec.setups)?;
        rec.runs
            .push(("untraced", drive::run_on(net, took, spec, &inputs, None)?));
        rec.peak_rss_mb = peak_rss_mb();
        let (net, _) = time_builds(spec, args.seed, 1, &mut rec.setups)?;
        drop(net.finish());
    }

    let mut failures: Vec<String> = Vec::new();
    for (what, r) in &rec.runs {
        failures.extend(r.failures.iter().map(|f| format!("{what} run: {f}")));
    }
    if let Some(l) = &rec.layers {
        failures.extend(l.failures.iter().map(|f| format!("layer driver: {f}")));
    }
    let invalid: Vec<String> = rec
        .runs
        .iter()
        .filter_map(|(what, r)| {
            r.health
                .violation(spec.block_size, r.window)
                .map(|v| format!("{what} run: {v}"))
        })
        .collect();

    // A failed or invalid run prints no numbers on standard output: its
    // record goes to standard error, for diagnosis.
    let record = record_line(spec, args, &rec, &failures, &invalid);
    if failures.is_empty() && invalid.is_empty() {
        println!("{record}");
    } else {
        eprintln!("{record}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("openloop: output check failed: {f}");
        }
        return Ok(ExitCode::from(1));
    }
    if !invalid.is_empty() {
        for v in &invalid {
            eprintln!("openloop: run invalid: {v}");
        }
        return Ok(ExitCode::from(3));
    }

    let metrics = if args.trace {
        layer_metrics(&rec)
    } else {
        end_to_end(&rec)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("openloop: metric {} is not finite", m.name);
            return Ok(ExitCode::from(1));
        }
        println!(
            "{:<40} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let (_, main_run) = rec.runs.last().expect("at least one run");
    // An abort is the system's answer to a conflict, not a failed
    // operation: how many there are is what `abort_pct` measures, and it
    // depends on timing. Failed operations are the ones the system lost.
    let attempted = main_run.measured;
    let failed = main_run.measured_lost;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// Process CPU per valid commit: the median over segments of CPU per
/// proposal fired, scaled by the run's fired-to-valid ratio.
fn cpu_us_per_valid(r: &RunOutput) -> f64 {
    median(&r.segment_cpu_us_per_fired()) * ratio(r.measured as f64, r.measured_valid as f64)
}

/// Median over segments of latency quantile `q`.
fn segment_latency(r: &RunOutput, q: f64) -> f64 {
    let per: Vec<f64> = r
        .segment_latency_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| quantile(&sorted(v.clone()), q))
        .collect();
    median(&per)
}

fn end_to_end(rec: &Record) -> Vec<Metric> {
    let (_, r) = &rec.runs[0];
    let n = r.latency_ms.len();
    let setups: Vec<f64> = rec.setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        metric(
            "goodput_tps",
            r.measured_valid as f64 / r.window.as_secs_f64(),
            "1/s",
            r.measured,
        ),
        metric(
            "abort_pct",
            100.0 * (r.measured - r.measured_valid) as f64 / r.measured as f64,
            "%",
            r.measured,
        ),
        metric("commit_p50_ms", segment_latency(r, 0.5), "ms", n),
        metric("commit_p99_ms", segment_latency(r, 0.99), "ms", n),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("peak_rss_mb", rec.peak_rss_mb, "MiB", 1),
    ]
}

fn layer_metrics(rec: &Record) -> Vec<Metric> {
    let (_, u) = &rec.runs[0];
    let (_, a) = &rec.runs[1];
    let b = rec.layers.as_ref().expect("layer driver ran");
    let mut out = Vec::new();

    // Part A: the stage split of every valid measured transaction.
    let stages = a.stages.as_ref().expect("traced run has stages");
    let names: [[&'static str; 2]; 5] = [
        ["stage.gen_wait_ms_p50", "stage.gen_wait_ms_p99"],
        ["stage.endorse_ms_p50", "stage.endorse_ms_p99"],
        ["stage.cut_wait_ms_p50", "stage.cut_wait_ms_p99"],
        ["stage.order_ms_p50", "stage.order_ms_p99"],
        ["stage.commit_ms_p50", "stage.commit_ms_p99"],
    ];
    let n = stages.intervals.len();
    for (j, [p50, p99]) in names.into_iter().enumerate() {
        let v = sorted(stages.intervals.iter().map(|iv| iv[j]).collect());
        out.push(metric(p50, quantile(&v, 0.5), "ms", n));
        out.push(metric(p99, quantile(&v, 0.99), "ms", n));
    }

    // Process CPU per valid commit of the untraced run, the runtime's cost
    // beyond the layers' own work, and tracing overhead.
    let base = cpu_us_per_valid(u);
    let layer_us = ratio(us(b.self_time_sum()), b.valid as f64);
    out.push(metric("cpu_us_per_valid_tx", base, "us", u.measured_valid));
    out.push(metric(
        "runtime.overhead_us_per_valid_tx",
        base - layer_us,
        "us",
        u.measured_valid,
    ));
    out.push(metric(
        "runtime.layer_us_per_valid_tx",
        layer_us,
        "us",
        b.valid as usize,
    ));
    let sys_share: Vec<f64> = u
        .segment_cpu
        .iter()
        .map(|(c, _)| 100.0 * ratio(us(c.sys), us(c.total())))
        .collect();
    out.push(metric(
        "process.sys_cpu_pct",
        median(&sys_share),
        "%",
        sys_share.len(),
    ));
    out.push(metric(
        "trace.overhead_pct",
        100.0 * ratio(cpu_us_per_valid(a) - base, base),
        "%",
        2,
    ));

    // Part B: self time per unit of work.
    let per = |s: Span, den: u64| us(b.get(s).self_time) / den.max(1) as f64;
    let items = |s: Span| b.get(s).items.max(1) as f64;
    out.push(metric(
        "peer.endorse_us_per_tx",
        per(Span::Endorse, b.proposals),
        "us",
        b.proposals as usize,
    ));
    out.push(metric(
        "peer.chaincode_us_per_tx",
        per(Span::Chaincode, b.proposals),
        "us",
        b.proposals as usize,
    ));
    out.push(metric("crypto.sign_us", b.sign_us, "us", 1));
    out.push(metric("crypto.verify_us", b.verify_us, "us", 1));
    out.push(metric(
        "ordering.cut_us_per_tx",
        per(Span::Cut, b.submitted),
        "us",
        b.submitted as usize,
    ));
    let prepare = b
        .get(Span::Prepare)
        .total
        .saturating_sub(b.get(Span::Reorder).total);
    out.push(metric(
        "ordering.prepare_ms_per_block",
        ms(prepare) / b.batches.max(1) as f64,
        "ms",
        b.batches as usize,
    ));
    out.push(metric(
        "ordering.seal_ms_per_block",
        ms(b.get(Span::Seal).self_time) / b.batches.max(1) as f64,
        "ms",
        b.batches as usize,
    ));
    out.push(metric(
        "reorder.ms_per_block",
        ms(b.get(Span::Reorder).total) / b.batches.max(1) as f64,
        "ms",
        b.batches as usize,
    ));
    out.push(metric(
        "peer.vscc_us_per_tx",
        per(Span::Vscc, b.block_txs),
        "us",
        b.block_txs as usize,
    ));
    out.push(metric(
        "peer.mvcc_us_per_tx",
        per(Span::Mvcc, b.block_txs),
        "us",
        b.block_txs as usize,
    ));
    out.push(metric(
        "peer.commit_us_per_tx",
        per(Span::Commit, b.block_txs),
        "us",
        b.block_txs as usize,
    ));
    out.push(metric(
        "statedb.snapshot_read_batches_per_tx",
        b.get(Span::SnapshotRead).calls as f64 / b.endorsements.max(1) as f64,
        "count",
        b.endorsements as usize,
    ));
    out.push(metric(
        "statedb.snapshot_read_us_per_key",
        us(b.get(Span::SnapshotRead).self_time) / items(Span::SnapshotRead),
        "us",
        b.get(Span::SnapshotRead).items as usize,
    ));
    out.push(metric(
        "statedb.prefetch_us_per_key",
        us(b.get(Span::Prefetch).self_time) / items(Span::Prefetch),
        "us",
        b.get(Span::Prefetch).items as usize,
    ));
    out.push(metric(
        "statedb.apply_us_per_write",
        us(b.get(Span::Apply).self_time) / items(Span::Apply),
        "us",
        b.get(Span::Apply).items as usize,
    ));

    // Outcome shares and reorder counts from the traced runtime run.
    let s = &a.report.stats;
    let pct = |x: u64| 100.0 * ratio(x as f64, s.submitted as f64);
    let fired = s.submitted as usize;
    out.push(metric(
        "peer.sim_abort_pct",
        pct(s.early_abort_simulation),
        "%",
        fired,
    ));
    out.push(metric(
        "ordering.version_abort_pct",
        pct(s.early_abort_version_mismatch),
        "%",
        fired,
    ));
    out.push(metric(
        "reorder.cycle_abort_pct",
        pct(s.early_abort_cycle),
        "%",
        fired,
    ));
    out.push(metric(
        "peer.mvcc_conflict_pct",
        pct(s.mvcc_conflict),
        "%",
        fired,
    ));
    out.push(metric(
        "peer.endorsement_fail_pct",
        pct(s.endorsement_failure + a.rejected),
        "%",
        fired,
    ));
    let o = &a.report.orderer;
    let blocks = o.blocks as usize;
    out.push(metric(
        "reorder.fallback_pct",
        100.0 * ratio(o.fallbacks as f64, o.blocks as f64),
        "%",
        blocks,
    ));
    out.push(metric(
        "reorder.sccs_per_block",
        ratio(o.nontrivial_sccs as f64, o.blocks as f64),
        "count",
        blocks,
    ));
    let st = &a.report.store;
    out.push(metric(
        "statedb.gc_trimmed_per_block",
        ratio(st.gc_trimmed_versions as f64, st.blocks_applied as f64),
        "count",
        st.blocks_applied as usize,
    ));

    // Generator health of the traced run.
    out.push(metric(
        "gen.lateness_ms_p99",
        a.health.lateness_ms[1],
        "ms",
        a.measured,
    ));
    out.push(metric(
        "gen.poll_gap_ms_max",
        a.health.poll_gap_ms[2],
        "ms",
        1,
    ));
    out
}

fn record_line(
    spec: &Spec,
    args: &Args,
    rec: &Record,
    failures: &[String],
    invalid: &[String],
) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let runs: Vec<String> =
        rec.runs
            .iter()
            .map(|(what, r)| {
                let h = &r.health;
                format!(
                "{{\"run\": {}, \"setup_s\": {}, \"fired\": {}, \"measured\": {}, \"valid\": {}, \
                 \"lateness_ms\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}}, \
                 \"poll_gap_ms\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}}, \
                 \"unresolved_at_quarters\": {:?}, \"drain_ms\": {}, \"timeout_cuts\": {}, \"cpu_user_s\": {}, \
                 \"cpu_sys_s\": {}, \"segment_cpu_us_per_fired\": {:?}, \
                 \"blocks\": {}, \
                 \"stage_sum_error_ms_max\": {}, \
                 \"order_clamped_blocks\": {}}}",
                json_str(what),
                r.setup.as_secs_f64(),
                r.fired,
                r.measured,
                r.measured_valid,
                h.lateness_ms[0],
                h.lateness_ms[1],
                h.lateness_ms[2],
                h.poll_gap_ms[0],
                h.poll_gap_ms[1],
                h.poll_gap_ms[2],
                h.unresolved,
                h.drain_ms,
                h.timeout_cuts,
                r.cpu.user.as_secs_f64(),
                r.cpu.sys.as_secs_f64(),
                r.segment_cpu_us_per_fired(),
                r.report.orderer.blocks,
                r.stages.as_ref().map_or("null".into(), |s| s.max_sum_error_ms.to_string()),
                r.stages.as_ref().map_or("null".into(), |s| s.order_clamped.to_string()),
            )
            })
            .collect();
    let setups: Vec<String> = rec
        .setups
        .iter()
        .map(|d| d.as_secs_f64().to_string())
        .collect();
    let strs = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"record\": \"openloop\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"git_commit\": {}, \"rustc\": {}, \"rate_per_s\": {}, \
         \"block_size\": {}, \"cost_model\": {}, \"engine\": \"memory\", \
         \"pipeline\": \"fabric_pp, 2 orgs x 2 peers, 1 channel, zero network latency\", \
         \"inputs\": {}, \"input_digest\": {}, \"setups_s\": [{}], \
         \"runs\": [{}], \
         \"failures\": [{}], \"invalid\": [{}]}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&env("OPENLOOP_GIT_COMMIT")),
        json_str(&env("OPENLOOP_RUSTC")),
        spec.rate,
        spec.block_size,
        json_str(workload::COST_LABEL),
        json_str(&spec.describe()),
        json_str(&rec.digest),
        setups.join(", "),
        runs.join(", "),
        strs(failures),
        strs(invalid),
    )
}
