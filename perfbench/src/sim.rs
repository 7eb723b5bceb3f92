//! Pieces shared by the workloads that drive the simulator: scenario
//! loading, the audit conservation check and the simulator-layer counters.

use std::collections::BTreeMap;

use kafkasim::audit::DeliveryReport;
use kafkasim::runtime::RunOutcome;
use obs::SpanProfile;
use spec::Spec;

use crate::harness::{ratio, span_sum, timed, KindCounts};

/// Renders the built-in scenario `name` to TOML, then parses and
/// validates that text the way a scenario file is loaded. Returns the
/// spec and the host milliseconds the load took.
pub fn load_spec(name: &str) -> (Spec, f64) {
    let text = spec::io::to_toml_string(&Spec::builtin(name).expect("built-in scenario exists"));
    let (spec, secs) = timed(|| spec::io::from_toml_str(&text).expect("built-in scenario loads"));
    (spec, secs * 1e3)
}

/// Audit conservation: every source message resolves to exactly one of
/// delivered-once, lost or duplicated; every message has one delivery
/// case; every loss has one reason.
pub fn audit_conserved(r: &DeliveryReport) -> Result<(), String> {
    let resolved = r.delivered_once + r.lost + r.duplicated;
    if resolved != r.n_source {
        return Err(format!(
            "audit: {resolved} resolved of {} source messages",
            r.n_source
        ));
    }
    let cases: u64 = r.case_counts.iter().sum();
    if cases != r.n_source {
        return Err(format!(
            "audit: {cases} delivery cases for {} messages",
            r.n_source
        ));
    }
    let reasons: u64 = r.loss_reasons.values().sum();
    if reasons != r.lost {
        return Err(format!(
            "audit: {reasons} loss reasons for {} losses",
            r.lost
        ));
    }
    Ok(())
}

/// Exact work counters summed over simulator runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub runs: u64,
    pub msgs: u64,
    pub events: u64,
    segments: u64,
    retransmits: u64,
    rtos: u64,
    link_offered: u64,
    link_dropped: u64,
    requests: u64,
    retries: u64,
    resets: u64,
    delivered_once: u64,
    appended: u64,
}

impl SimTotals {
    pub fn add(&mut self, o: &RunOutcome) {
        self.runs += 1;
        self.msgs += o.report.n_source;
        self.events += o.events_fired;
        for t in &o.tcp {
            self.segments += t.segments_sent;
            self.retransmits += t.retransmits;
            self.rtos += t.timeouts;
        }
        for l in &o.links {
            self.link_offered += l.delivered + l.lost + l.dropped;
            self.link_dropped += l.lost + l.dropped;
        }
        self.requests += o.producer.requests_sent;
        self.retries += o.producer.retries;
        self.resets += o.producer.connection_resets;
        self.delivered_once += o.report.delivered_once;
        self.appended += o.records_appended;
    }

    /// Writes the desim / netsim / kafkasim rows. `untraced_wall_s` is the
    /// host time of the same runs without tracing.
    pub fn fill(
        &self,
        layers: &mut BTreeMap<&'static str, f64>,
        profile: &SpanProfile,
        kinds: &KindCounts,
        untraced_wall_s: f64,
    ) {
        let msgs = self.msgs as f64;
        let kmsgs = msgs / 1e3;
        layers.insert("desim.events_per_msg", ratio(self.events as f64, msgs));
        layers.insert(
            "desim.events_per_s",
            ratio(self.events as f64, untraced_wall_s),
        );
        layers.insert(
            "desim.run_slice_self_ns_per_msg",
            ratio(span_sum(profile, "desim.run-slice").self_ns as f64, msgs),
        );
        layers.insert("netsim.segments_per_msg", ratio(self.segments as f64, msgs));
        layers.insert(
            "netsim.retransmit_frac",
            ratio(self.retransmits as f64, self.segments as f64),
        );
        layers.insert("netsim.rto_per_kmsg", ratio(self.rtos as f64, kmsgs));
        layers.insert(
            "netsim.link_drop_frac",
            ratio(self.link_dropped as f64, self.link_offered as f64),
        );
        layers.insert(
            "kafkasim.requests_per_msg",
            ratio(self.requests as f64, msgs),
        );
        layers.insert(
            "kafkasim.retries_per_kmsg",
            ratio(self.retries as f64, kmsgs),
        );
        layers.insert("kafkasim.resets_per_kmsg", ratio(self.resets as f64, kmsgs));
        layers.insert(
            "kafkasim.append_efficiency",
            ratio(self.delivered_once as f64, self.appended as f64),
        );
        layers.insert(
            "kafkasim.setup_ns_per_run",
            ratio(
                span_sum(profile, "kafkasim.setup").total_ns as f64,
                self.runs as f64,
            ),
        );
        layers.insert(
            "kafkasim.audit_ns_per_msg",
            ratio(span_sum(profile, "kafkasim.audit").total_ns as f64, msgs),
        );
        layers.insert(
            "kafkasim.trace_events_per_msg",
            ratio(kinds.values().sum::<u64>() as f64, msgs),
        );
    }
}
