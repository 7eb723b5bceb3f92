//! The per-layer metric catalogue and the traced run's artefacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use obs::SpanProfile;

use crate::harness::KindCounts;

/// One per-layer metric: its unit, whether it is an exact work counter
/// (deterministic per seed) or a host timing, the workloads that exercise
/// it, and the end-to-end figure it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
    pub workloads: &'static [&'static str],
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    exact: bool,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact,
        workloads,
        moves,
    }
}

const C: &[&str] = &["collect"];
const SIM: &[&str] = &["collect", "control"];
const T: &[&str] = &["train"];
const K: &[&str] = &["control"];
const F: &[&str] = &["fleet"];
const ALL: &[&str] = &["collect", "train", "control", "fleet"];

const RATE: &str = "work_per_s (sim_msgs_per_s on collect, control_msgs_per_s on control)";
const SIM_RATE: &str = "work_per_s (sim_msgs_per_s) on collect";
const TRAIN_RATE: &str = "work_per_s (train_samples_per_s) on train";
const DECIDE: &str = "work_per_s (control_msgs_per_s) on control, via decide_us_p50";
const DECIDE_TAIL: &str = "work_per_s (control_msgs_per_s) on control, via decide_us_p99";
const FLEET_RATE: &str = "work_per_s (fleet_flow_msgs_per_s_t1) on fleet";
const FLEET_T2: &str = "fleet_flow_msgs_per_s_t2 (printed, unbounded) on fleet";

/// Every per-layer metric a traced run reports, on every workload. A
/// workload that does not exercise a metric's layer reports 0 for it.
pub const CATALOGUE: &[LayerMetric] = &[
    m("desim.events_per_msg", "count/msg", true, SIM, RATE),
    m("desim.events_per_s", "1/s", false, SIM, RATE),
    m(
        "desim.run_slice_self_ns_per_msg",
        "ns/msg",
        false,
        SIM,
        SIM_RATE,
    ),
    m("netsim.segments_per_msg", "count/msg", true, SIM, SIM_RATE),
    m("netsim.retransmit_frac", "ratio", true, SIM, SIM_RATE),
    m("netsim.rto_per_kmsg", "count/kmsg", true, SIM, SIM_RATE),
    m("netsim.link_drop_frac", "ratio", true, SIM, SIM_RATE),
    m(
        "kafkasim.requests_per_msg",
        "count/msg",
        true,
        SIM,
        SIM_RATE,
    ),
    m(
        "kafkasim.retries_per_kmsg",
        "count/kmsg",
        true,
        SIM,
        SIM_RATE,
    ),
    m(
        "kafkasim.resets_per_kmsg",
        "count/kmsg",
        true,
        SIM,
        SIM_RATE,
    ),
    m("kafkasim.append_efficiency", "ratio", true, SIM, SIM_RATE),
    m("kafkasim.setup_ns_per_run", "ns/run", false, SIM, SIM_RATE),
    m("kafkasim.audit_ns_per_msg", "ns/msg", false, SIM, SIM_RATE),
    m(
        "kafkasim.trace_events_per_msg",
        "count/msg",
        true,
        SIM,
        SIM_RATE,
    ),
    m("kafkasim.allocs_per_msg", "count/msg", true, C, SIM_RATE),
    m(
        "kafkasim.steady_allocs_per_msg",
        "count/msg",
        true,
        C,
        SIM_RATE,
    ),
    m("testbed.sweep_speedup_2w", "ratio", false, C, SIM_RATE),
    m("testbed.chunk_imbalance", "ratio", false, C, SIM_RATE),
    m(
        "annet.train_ns_per_sample",
        "ns/sample",
        false,
        T,
        TRAIN_RATE,
    ),
    m("annet.backward_frac", "ratio", false, T, TRAIN_RATE),
    m("annet.flops_per_sample", "flop/sample", true, T, TRAIN_RATE),
    m("annet.gflops", "GFLOP/s", false, T, TRAIN_RATE),
    m(
        "annet.allocs_per_sample",
        "count/sample",
        true,
        T,
        TRAIN_RATE,
    ),
    m("annet.test_mae", "ratio", true, T, TRAIN_RATE),
    m("annet.forward_ns_per_row", "ns/row", false, K, DECIDE),
    m("core.decide_us_p50", "us", false, K, DECIDE),
    m("core.decide_us_p99", "us", false, K, DECIDE_TAIL),
    m("core.decide_us_p50.frozen", "us", false, K, DECIDE),
    m("core.decide_us_p50.online-adaptive", "us", false, K, DECIDE),
    m("core.decide_us_p50.bandit", "us", false, K, DECIDE),
    m("core.decides", "count", true, K, DECIDE),
    m(
        "core.predictions_per_decide",
        "count/decide",
        true,
        K,
        DECIDE,
    ),
    m(
        "core.model_rows_per_decide",
        "count/decide",
        true,
        K,
        DECIDE,
    ),
    m("core.cache_hit_rate", "ratio", true, K, DECIDE),
    m("core.replan_self_us", "us/decide", false, K, DECIDE),
    m("core.refits", "count", true, K, DECIDE_TAIL),
    m("core.refit_ms", "ms", false, K, DECIDE_TAIL),
    m("core.cold_decide_ms", "ms", false, K, DECIDE_TAIL),
    m("core.gamma_obs", "ratio", true, K, DECIDE),
    m("core.allocs_per_decide", "count/decide", true, K, DECIDE),
    m("fleet.flow_msgs_per_s_t1", "1/s", false, F, FLEET_RATE),
    m("fleet.events_per_s_t1", "1/s", false, F, FLEET_RATE),
    m("fleet.events_per_s_t2", "1/s", false, F, FLEET_T2),
    m("fleet.speedup_t2", "ratio", false, F, FLEET_T2),
    m("fleet.partition_skew", "ratio", true, F, FLEET_RATE),
    m("fleet.events_fired", "count", true, F, FLEET_RATE),
    m(
        "fleet.allocs_per_flow_msg",
        "count/msg",
        true,
        F,
        FLEET_RATE,
    ),
    m(
        "obs.trace_overhead",
        "ratio",
        false,
        ALL,
        "none: end-to-end metrics are untraced",
    ),
    m("spec.load_validate_ms", "ms", false, ALL, "setup_s"),
];

/// Layer figures no public interface exposes; the table lists them with
/// the reason instead of leaving them out.
const UNMEASURED: &[(&str, &str)] = &[
    (
        "netsim.self_ns_per_msg",
        "netsim has no span of its own; its time is inside desim.run_slice_self_ns_per_msg",
    ),
    (
        "fleet.barriers_per_run",
        "desim::shard barrier counts are not public (ROADMAP 4(a))",
    ),
    (
        "fleet.mailbox_msgs_per_run",
        "desim::shard mailbox counts are not public (ROADMAP 4(a))",
    ),
    (
        "annet.forward_ns_per_row (train)",
        "training forward passes are timed only as annet.forward spans, per batch",
    ),
];

/// Span self time summed per layer (the span name's prefix before the
/// first `.`), in milliseconds.
pub fn self_ms_by_layer(profile: &SpanProfile) -> BTreeMap<&str, f64> {
    let mut by_layer = BTreeMap::new();
    for s in &profile.spans {
        let layer = s.name.split('.').next().unwrap_or(&s.name);
        *by_layer.entry(layer).or_insert(0.0) += s.self_ns as f64 / 1e6;
    }
    by_layer
}

/// Writes the traced run's artefacts into `dir`: the per-layer table
/// (`layers.md`), the spans as a Chrome trace (`trace.json`, first
/// `CHROME_EVENTS` spans) and as folded stacks (`folded.txt`), and the
/// trace-event counts by kind (`trace_kinds.json`).
pub fn write_artefacts(
    dir: &Path,
    workload: &str,
    host_json: &str,
    values: &BTreeMap<&'static str, f64>,
    profile: &SpanProfile,
    kinds: &KindCounts,
) -> std::io::Result<()> {
    const CHROME_EVENTS: usize = 20_000;
    std::fs::create_dir_all(dir)?;

    let mut table = String::new();
    let _ = writeln!(table, "# Per-layer metrics: workload `{workload}`\n");
    let _ = writeln!(table, "Host: `{host_json}`\n");
    let _ = writeln!(
        table,
        "| metric | value | unit | kind | moves | status |\n|---|---|---|---|---|---|"
    );
    for metric in CATALOGUE {
        let exercised = metric.workloads.contains(&workload);
        let status = if exercised {
            "measured"
        } else {
            "bypassed: this workload does not exercise the layer (0)"
        };
        let _ = writeln!(
            table,
            "| {} | {} | {} | {} | {} | {} |",
            metric.name,
            values.get(metric.name).copied().unwrap_or(0.0),
            metric.unit,
            if metric.exact {
                "exact count"
            } else {
                "host timing"
            },
            metric.moves,
            status
        );
    }
    for (name, why) in UNMEASURED {
        let _ = writeln!(
            table,
            "| {name} | n/a | | | | not measurable from outside: {why} |"
        );
    }
    let _ = writeln!(table, "\n## Span self time per layer\n");
    for (layer, ms) in self_ms_by_layer(profile) {
        let _ = writeln!(table, "- {layer}: {ms:.3} ms");
    }
    let _ = writeln!(table, "\n## Trace events by kind\n");
    for (kind, n) in kinds {
        let _ = writeln!(table, "- {kind}: {n}");
    }
    std::fs::write(dir.join("layers.md"), table)?;

    let mut chrome = profile.clone();
    let dropped = chrome.events.len().saturating_sub(CHROME_EVENTS);
    chrome.events.truncate(CHROME_EVENTS);
    std::fs::write(dir.join("trace.json"), chrome.to_chrome_trace())?;
    std::fs::write(dir.join("folded.txt"), profile.to_folded())?;
    std::fs::write(
        dir.join("trace_kinds.json"),
        serde_json::to_string(kinds).expect("counts serialise") + "\n",
    )?;
    if dropped > 0 || profile.dropped > 0 {
        println!(
            "trace.json keeps the first {CHROME_EVENTS} spans ({} more omitted); \
             folded.txt and the table use exact aggregates",
            dropped as u64 + profile.dropped
        );
    }
    Ok(())
}
