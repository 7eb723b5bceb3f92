//! `control`: closed-loop online control. The Table II application
//! scenarios over a per-seed Fig. 9 trace and the regime-shift scenario
//! over its spliced trace, each steered by the frozen, online-adaptive and
//! bandit policies over a paper-topology model built during set-up.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use desim::{SimDuration, SimRng, SimTime};
use kafka_predict::online::OnlineModelController;
use kafka_predict::recommend::SearchSpace;
use kafka_predict::{
    train_model, AdaptiveConfig, BanditConfig, BanditPolicy, FrozenPolicy, OnlineAdaptivePolicy,
    Policy, PolicyController, Predictor, ReliabilityModel, TrainOptions,
};
use kafkasim::config::DeliverySemantics;
use kafkasim::runtime::{KafkaRun, OnlineController, OnlineSpec, RunOutcome, RunSpec};
use netsim::trace::{generate_regime_shift, generate_trace};
use netsim::ConditionTimeline;
use obs::{MetricsRegistry, NoopSink, Profiler, TraceSink};
use spec::{ExperimentSpec, PolicyKind};
use testbed::dynamic::default_static_config;
use testbed::scenarios::ApplicationScenario;
use testbed::sweep::{derive_seed, run_sweep};
use testbed::Calibration;

use crate::harness::{
    digest_json, fastest, guarded, median, nested_ns, quantile, ratio, repeat_for, span_sum, timed,
    Fnv, KindCounts, Metric, SetupSampler, Tally,
};
use crate::probes::{CountingSink, Decide, Metered, Timed};
use crate::sim::{audit_conserved, load_spec, SimTotals};
use crate::{Config, Traced};

/// Source messages per collected point of the set-up dataset.
const MODEL_MSGS: u64 = 30;
/// Every `MODEL_STRIDE`-th collection-design point feeds the model.
const MODEL_STRIDE: usize = 6;
/// SGD epochs of the set-up model.
const MODEL_EPOCHS: usize = 40;
/// Seed of the set-up model's data and training. The model is fixed, as
/// a deployed model would be; `--seed` varies the networks it faces.
/// Trained this way, the online-adaptive policy refits once after the
/// regime shift on most seeds, so the refit path is part of the pass.
const MODEL_SEED: u64 = 1;

/// Network traces per scenario, each from its own seed derived from
/// `--seed`: how much planner work a trace causes (search length, cold
/// decides, whether the drift detector fires) varies from trace to trace,
/// and a pass over several traces averages that out. Two keep a pass
/// short (about 1 s), so each closed-loop run gets some twenty chances at
/// its fastest repetition in a 25 s run.
const NETWORKS: u64 = 2;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Frozen,
    PolicyKind::OnlineAdaptive,
    PolicyKind::Bandit,
];

/// One application scenario over one network trace.
struct Case {
    scenario: ApplicationScenario,
    trace: ConditionTimeline,
    space: SearchSpace,
    interval: SimDuration,
    messages: u64,
    adaptive: AdaptiveConfig,
    bandit: BanditConfig,
    /// Seed of the network trace and of the simulator run.
    seed: u64,
}

pub struct Control {
    cal: Calibration,
    model: ReliabilityModel,
    cases: Vec<Case>,
    pub spec_ms: f64,
}

/// Messages needed to span the trace at the scenario's mean rate.
fn messages_for(scenario: &ApplicationScenario, trace: &ConditionTimeline) -> u64 {
    let horizon = trace.last_change().saturating_since(SimTime::ZERO);
    let mean_rate = scenario.rate_timeline.iter().map(|(_, r)| *r).sum::<f64>()
        / scenario.rate_timeline.len().max(1) as f64;
    ((horizon.as_secs_f64() * mean_rate) as u64).max(100)
}

pub fn setup(cfg: &Config) -> Control {
    let (shift_spec, shift_ms) = load_spec("regime-shift");
    let (table2_spec, table2_ms) = load_spec("table2");
    let (ann_spec, ann_ms) = load_spec("ann");
    let (
        ExperimentSpec::RegimeShift(shift),
        ExperimentSpec::Table2(table2),
        ExperimentSpec::Train(ann),
    ) = (
        &shift_spec.experiment,
        &table2_spec.experiment,
        &ann_spec.experiment,
    )
    else {
        panic!("built-in control scenarios have their expected shapes");
    };
    let policy_cfg = |kind| shift.policies.iter().find(|p| p.kind == kind);
    let adaptive = policy_cfg(PolicyKind::OnlineAdaptive)
        .and_then(|p| p.adaptive)
        .map_or_else(AdaptiveConfig::default, |a| AdaptiveConfig {
            drift_window: a.drift_window,
            drift_threshold: a.drift_threshold,
            refit_steps: a.refit_steps,
            learning_rate: a.learning_rate,
            replay_capacity: a.replay_capacity,
        });
    let bandit = policy_cfg(PolicyKind::Bandit)
        .and_then(|p| p.bandit)
        .map_or_else(BanditConfig::default, |b| BanditConfig {
            exploration: b.exploration,
        });
    let interval = SimDuration::from_secs(shift.online_interval_s);

    let table2_space = SearchSpace::try_from(&table2.grid).expect("usable planner grid");
    let shift_space = SearchSpace::try_from(&shift.grid).expect("usable planner grid");
    let mut cases = Vec::new();
    for k in 0..NETWORKS {
        let seed = derive_seed(cfg.seed, k);
        let fig9 = generate_trace(&table2.trace, &mut SimRng::seed_from_u64(seed))
            .expect("the Fig. 9 generator is valid")
            .timeline;
        let spliced = generate_regime_shift(
            &shift.trace,
            &shift.shifted,
            SimDuration::from_secs(shift.shift_at_s),
            &mut SimRng::seed_from_u64(seed),
        )
        .expect("the regime-shift generators splice")
        .timeline;
        let case =
            |scenario: &ApplicationScenario, trace: &ConditionTimeline, space: &SearchSpace| Case {
                messages: messages_for(scenario, trace),
                scenario: scenario.clone(),
                trace: trace.clone(),
                space: space.clone(),
                interval,
                adaptive,
                bandit,
                seed,
            };
        cases.extend(
            table2
                .scenarios
                .iter()
                .map(|s| case(s, &fig9, &table2_space)),
        );
        cases.push(case(&shift.scenario, &spliced, &shift_space));
    }

    // A paper-topology model, briefly trained on a thinned collection.
    let cal = Calibration::paper();
    let points: Vec<_> = ann
        .collection
        .all_points()
        .into_iter()
        .filter(|p| p.semantics != DeliverySemantics::All)
        .step_by(MODEL_STRIDE)
        .collect();
    // One worker, as in `train`'s set-up.
    let data = run_sweep(&points, &cal, MODEL_MSGS, MODEL_SEED, 1);
    let mut options = TrainOptions::paper();
    options.sgd.epochs = MODEL_EPOCHS;
    let model = train_model(&data, &options, MODEL_SEED)
        .expect("the set-up dataset trains")
        .model;

    Control {
        cal,
        model,
        cases,
        spec_ms: shift_ms + table2_ms + ann_ms,
    }
}

impl Control {
    /// Digest of the generated inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(digest_json(&self.model));
        for c in &self.cases {
            h.u64(digest_json(&c.trace));
            h.u64(c.messages);
            h.u64(c.seed);
        }
        h.finish()
    }
}

/// What one closed-loop run left behind.
struct Loop {
    policy: &'static str,
    outcome: RunOutcome,
    wall_s: f64,
    decides: Vec<Decide>,
    gamma_obs: Vec<f64>,
    /// Planner memo-cache hits and misses (model-based policies).
    cache: (u64, u64),
    refits: u64,
}

impl Loop {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for d in &self.decides {
            h.u64(d.config);
        }
        h.u64(digest_json(&self.outcome.report));
        h.finish()
    }

    fn check(&self) -> Result<(), String> {
        audit_conserved(&self.outcome.report)?;
        if self.decides.is_empty() {
            return Err(format!(
                "{}: the controller was never consulted",
                self.policy
            ));
        }
        if !self.gamma_obs.iter().all(|g| g.is_finite()) {
            return Err(format!("{}: non-finite observed gamma", self.policy));
        }
        Ok(())
    }
}

/// How a round instruments its runs.
struct Probe<'a> {
    prof: Profiler,
    kinds: Option<&'a Rc<RefCell<KindCounts>>>,
}

impl Probe<'_> {
    fn sink(&self) -> Box<dyn TraceSink> {
        match self.kinds {
            Some(k) => Box::new(CountingSink(Rc::clone(k))),
            None => Box::new(NoopSink),
        }
    }
}

fn closed_loop<P: Policy + 'static>(
    c: &Control,
    case: &Case,
    policy: P,
    refits: fn(&PolicyController<P>) -> u64,
    probe: &Probe,
) -> Loop {
    let timed_ctl = Arc::new(Timed::new(
        PolicyController::new(policy),
        probe.prof.clone(),
        refits,
    ));
    let horizon = case.trace.last_change();
    let spec = RunSpec {
        producer: default_static_config(&c.cal),
        cluster: c.cal.cluster.clone(),
        source: case.scenario.source(case.messages),
        network: case.trace.clone(),
        channel: c.cal.channel.clone(),
        wire: c.cal.wire,
        config_schedule: Vec::new(),
        max_duration: horizon.saturating_since(SimTime::ZERO) + SimDuration::from_secs(600),
        outages: Vec::new(),
        faults: Vec::new(),
        failover_after: None,
        online: Some(OnlineSpec {
            interval: case.interval,
            controller: Arc::clone(&timed_ctl) as Arc<dyn OnlineController>,
        }),
    };
    let (outcome, wall_s) = timed(|| {
        KafkaRun::new(spec, case.seed)
            .execute_profiled(probe.sink(), probe.prof.clone())
            .0
    });
    let mut registry = MetricsRegistry::new();
    timed_ctl.export_metrics(&mut registry);
    let policy = timed_ctl.inner.policy();
    Loop {
        policy: policy.kind(),
        outcome,
        wall_s,
        decides: timed_ctl.decides(),
        gamma_obs: policy.gamma_trace().iter().map(|g| g.gamma_obs).collect(),
        cache: (
            registry.counter("planner-cache-hit"),
            registry.counter("planner-cache-miss"),
        ),
        refits: refits(&timed_ctl.inner),
    }
}

fn frozen_loop<P: Predictor + Send + Sync + 'static>(
    c: &Control,
    case: &Case,
    predictor: P,
    probe: &Probe,
) -> Loop {
    let s = &case.scenario;
    let controller = OnlineModelController::new(
        predictor,
        &c.cal,
        case.space.clone(),
        s.weights,
        s.gamma_requirement,
        s.mean_size(),
        s.timeliness.as_secs_f64() * 1e3,
    )
    .with_profiler(probe.prof.clone());
    let policy = FrozenPolicy::new(controller, &c.cal, s.weights);
    closed_loop(c, case, policy, |_| 0, probe)
}

/// One closed-loop run of `kind` on `case`. With `metered`, the frozen
/// policy's model is wrapped in a [`Metered`] predictor whose totals are
/// added to it.
fn run_policy(
    c: &Control,
    case: &Case,
    kind: PolicyKind,
    probe: &Probe,
    metered: Option<&mut (u64, u64)>,
) -> Loop {
    let s = &case.scenario;
    let timeliness_ms = s.timeliness.as_secs_f64() * 1e3;
    match kind {
        PolicyKind::Frozen => match metered {
            None => frozen_loop(c, case, c.model.clone(), probe),
            Some(totals) => {
                let model = Metered::new(c.model.clone());
                let meter = model.meter();
                let run = frozen_loop(c, case, model, probe);
                let (rows, ns) = meter.totals();
                totals.0 += rows;
                totals.1 += ns;
                run
            }
        },
        PolicyKind::OnlineAdaptive => closed_loop(
            c,
            case,
            OnlineAdaptivePolicy::new(
                c.model.clone(),
                &c.cal,
                case.space.clone(),
                s.weights,
                s.gamma_requirement,
                s.mean_size(),
                timeliness_ms,
                case.adaptive,
            ),
            |p| p.policy().refits(),
            probe,
        ),
        PolicyKind::Bandit => closed_loop(
            c,
            case,
            BanditPolicy::new(
                &c.cal,
                &case.space,
                s.weights,
                s.mean_size(),
                timeliness_ms,
                case.bandit,
            ),
            |_| 0,
            probe,
        ),
    }
}

/// Every case under every policy once. Checks each run against the
/// first round's digest for the same case and policy (`reference`,
/// filled as runs first complete).
fn round(
    c: &Control,
    probe: &Probe,
    mut metered: Option<&mut (u64, u64)>,
    reference: &mut Vec<Option<u64>>,
    tally: &mut Tally,
) -> Vec<Loop> {
    reference.resize(c.cases.len() * POLICIES.len(), None);
    let mut loops = Vec::new();
    let runs = c
        .cases
        .iter()
        .flat_map(|case| POLICIES.map(|kind| (case, kind)));
    for ((case, kind), expected) in runs.zip(reference.iter_mut()) {
        let Some(run) = guarded(|| run_policy(c, case, kind, probe, metered.as_deref_mut())) else {
            tally.ops(1, Some(format!("{}: closed loop panicked", kind.slug())));
            continue;
        };
        let digest = run.digest();
        let verdict = run.check().and_then(|()| {
            if *expected.get_or_insert(digest) == digest {
                Ok(())
            } else {
                Err(format!(
                    "{} on {}: decisions differ between repetitions",
                    run.policy, case.scenario.name
                ))
            }
        });
        // At least one operation per run, so a run that never consulted
        // the controller still counts as failed.
        tally.ops(run.decides.len().max(1) as u64, verdict.err());
        loops.push(run);
    }
    loops
}

/// Source messages of one pass per host second, each closed-loop run
/// timed by its fastest repetition over `rounds`.
fn msgs_per_s(rounds: &[Vec<Loop>]) -> f64 {
    let msgs: u64 = rounds[0].iter().map(|l| l.outcome.report.n_source).sum();
    let wall: f64 = (0..rounds[0].len())
        .map(|i| {
            let walls: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.get(i))
                .map(|l| l.wall_s)
                .collect();
            fastest(&walls)
        })
        .sum();
    msgs as f64 / wall
}

fn gamma_obs(loops: &[Loop]) -> f64 {
    let all: Vec<f64> = loops.iter().flat_map(|l| l.gamma_obs.clone()).collect();
    ratio(all.iter().sum(), all.len() as f64)
}

fn sorted_us(decides: impl Iterator<Item = Decide>) -> Vec<f64> {
    let mut v: Vec<f64> = decides.map(|d| d.ns as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Untraced rounds for `seconds`, pacing set-up rounds between them;
/// returns every run.
fn rounds(
    c: &Control,
    seconds: f64,
    reference: &mut Vec<Option<u64>>,
    tally: &mut Tally,
    setup: &mut SetupSampler,
) -> Vec<Vec<Loop>> {
    let probe = Probe {
        prof: Profiler::disabled(),
        kinds: None,
    };
    let mut all = Vec::new();
    repeat_for(seconds, 2, |_| {
        all.push(round(c, &probe, None, reference, tally));
        setup.pace();
    });
    all
}

pub fn run(c: &Control, cfg: &Config, tally: &mut Tally, setup: &mut SetupSampler) -> Vec<Metric> {
    println!(
        "control: {} cases x {} policies, {} msgs per pass",
        c.cases.len(),
        POLICIES.len(),
        c.cases.iter().map(|k| k.messages).sum::<u64>() * POLICIES.len() as u64
    );
    let mut reference = Vec::new();
    let all = rounds(c, cfg.seconds, &mut reference, tally, setup);
    let us = sorted_us(all.iter().flatten().flat_map(|l| l.decides.iter().copied()));
    let mut h = Fnv::default();
    reference.iter().flatten().for_each(|&d| h.u64(d));
    println!(
        "control: {} rounds, {} decides, chosen-configuration digest {:016x}",
        all.len(),
        us.len(),
        h.finish()
    );
    vec![
        Metric::new("control_msgs_per_s", msgs_per_s(&all), "1/s"),
        Metric::new("decide_us_p50", quantile(&us, 0.50), "us"),
        Metric::new("decide_us_p99", quantile(&us, 0.99), "us"),
        Metric::new("decides", us.len() as f64, "count"),
        Metric::new("control_gamma_obs", gamma_obs(&all[0]), "ratio"),
    ]
}

pub fn trace(c: &Control, cfg: &Config, tally: &mut Tally) -> Traced {
    let untraced = Probe {
        prof: Profiler::disabled(),
        kinds: None,
    };
    let prof = Profiler::enabled();
    let kinds = Rc::new(RefCell::new(KindCounts::new()));
    let first_traced = Probe {
        prof: prof.clone(),
        kinds: Some(&kinds),
    };
    let mut reference = Vec::new();
    let mut meter = (0, 0);
    // Untraced and traced rounds alternate. Decide timings come from the
    // untraced rounds; spans and counters from the first traced round; the
    // overhead compares the fastest round of each kind.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_walls = Vec::new();
    repeat_for(cfg.seconds, 2, |rep| {
        plain.push(round(c, &untraced, None, &mut reference, tally));
        let loops = if rep == 0 {
            round(c, &first_traced, Some(&mut meter), &mut reference, tally)
        } else {
            let kinds = Rc::default();
            let probe = Probe {
                prof: Profiler::enabled(),
                kinds: Some(&kinds),
            };
            round(c, &probe, Some(&mut (0, 0)), &mut reference, tally)
        };
        traced_walls.push(loops.iter().map(|l| l.wall_s).sum::<f64>());
        if rep == 0 {
            traced = loops;
        }
    });
    let round_wall = fastest(
        &plain
            .iter()
            .map(|r| r.iter().map(|l| l.wall_s).sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let traced_wall = fastest(&traced_walls);

    let decides = |policy: &str| {
        sorted_us(
            plain
                .iter()
                .flatten()
                .filter(|l| l.policy == policy)
                .flat_map(|l| l.decides.iter().copied()),
        )
    };
    let all_us = sorted_us(
        plain
            .iter()
            .flatten()
            .flat_map(|l| l.decides.iter().copied()),
    );
    let pick = |keep: fn(&Decide) -> bool| -> Vec<f64> {
        plain
            .iter()
            .flatten()
            .filter(|l| l.policy != "bandit")
            .flat_map(|l| {
                l.decides
                    .iter()
                    .filter(|d| keep(d))
                    .map(|d| d.ns as f64 / 1e6)
            })
            .collect()
    };
    let cold_ms = pick(|d| d.cold);
    let refit_ms = pick(|d| d.refit);

    let profile = prof.snapshot();
    let mut totals = SimTotals::default();
    traced.iter().for_each(|l| totals.add(&l.outcome));
    let mut layers = BTreeMap::new();
    totals.fill(&mut layers, &profile, &kinds.borrow(), round_wall);
    let frozen: Vec<&Loop> = traced.iter().filter(|l| l.policy == "frozen").collect();
    let frozen_decides = frozen.iter().map(|l| l.decides.len()).sum::<usize>() as f64;
    let (hits, misses) = frozen
        .iter()
        .fold((0, 0), |(h, m), l| (h + l.cache.0, m + l.cache.1));
    let replan = span_sum(&profile, "core.replan");
    let replan_self =
        replan.total_ns as f64 - nested_ns(&profile, "core.replan", "core.predict-miss") as f64;
    let traced_decides: Vec<Decide> = traced
        .iter()
        .flat_map(|l| l.decides.iter().copied())
        .collect();

    layers.insert(
        "annet.forward_ns_per_row",
        ratio(meter.1 as f64, meter.0 as f64),
    );
    layers.insert("core.decide_us_p50", quantile(&all_us, 0.50));
    layers.insert("core.decide_us_p99", quantile(&all_us, 0.99));
    for (name, policy) in [
        ("core.decide_us_p50.frozen", "frozen"),
        ("core.decide_us_p50.online-adaptive", "online-adaptive"),
        ("core.decide_us_p50.bandit", "bandit"),
    ] {
        layers.insert(name, quantile(&decides(policy), 0.50));
    }
    layers.insert("core.decides", all_us.len() as f64);
    layers.insert(
        "core.predictions_per_decide",
        ratio((hits + misses) as f64, frozen_decides),
    );
    layers.insert(
        "core.model_rows_per_decide",
        ratio(meter.0 as f64, frozen_decides),
    );
    layers.insert(
        "core.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers.insert(
        "core.replan_self_us",
        ratio(replan_self / 1e3, replan.calls as f64),
    );
    layers.insert(
        "core.refits",
        traced.iter().map(|l| l.refits).sum::<u64>() as f64,
    );
    layers.insert(
        "core.refit_ms",
        if refit_ms.is_empty() {
            0.0
        } else {
            median(&refit_ms)
        },
    );
    layers.insert("core.cold_decide_ms", median(&cold_ms));
    layers.insert("core.gamma_obs", gamma_obs(&traced));
    layers.insert(
        "core.allocs_per_decide",
        ratio(
            traced_decides.iter().map(|d| d.allocs).sum::<u64>() as f64,
            traced_decides.len() as f64,
        ),
    );
    layers.insert("obs.trace_overhead", traced_wall / round_wall);
    println!(
        "control (traced): {} untraced and traced rounds, fastest {round_wall:.3} s untraced, \
         {traced_wall:.3} s traced; {} decides timed",
        plain.len(),
        all_us.len()
    );
    Traced {
        layers,
        profile,
        kinds: kinds.take(),
    }
}
