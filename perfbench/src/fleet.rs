//! `fleet`: the sharded fleet engine on a `scenarios/fleet.toml`-shaped
//! population (key-hash partitioner, consumer churn): a batch of fleets
//! with their own seeds, each run at one thread and at the configured
//! thread count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use desim::{SimDuration, SimTime};
use kafkasim::fleet::{
    ChurnEvent, FleetConfig, FleetOutcome, FleetRun, PartitionStrategy, Population, PopulationEntry,
};
use obs::Profiler;
use spec::ExperimentSpec;
use testbed::scenarios::ApplicationScenario;
use testbed::sweep::derive_seed;

use crate::harness::{
    digest_json, guarded, repeat_for, timed, Fnv, KindCounts, Metric, SetupSampler, Tally,
};
use crate::probes::CountingSink;
use crate::sim::load_spec;
use crate::{alloc, Config, Traced};

/// Producers (and partition capacity) of each fleet, as a share of the
/// `fleet` scenario's. A quarter-scale fleet runs in about 10 ms: short
/// units reach the host's fast phases far more often than a long one
/// (see README, Noise).
const SCALE: f64 = 0.25;
/// Fleets in a batch, each with its own seed derived from `--seed`.
const FLEETS: u64 = 8;

pub struct Fleet {
    cfg: FleetConfig,
    seeds: Vec<u64>,
    pub spec_ms: f64,
}

pub fn setup(cfg: &Config) -> Fleet {
    let (spec, spec_ms) = load_spec("fleet");
    let ExperimentSpec::Fleet(f) = &spec.experiment else {
        panic!("the fleet scenario holds a fleet spec");
    };
    let entries = f
        .population
        .iter()
        .map(|e| PopulationEntry {
            class: ApplicationScenario::by_slug(&e.class)
                .expect("validated stream-class slug")
                .stream_class(e.rate_hz),
            weight: e.weight,
        })
        .collect();
    let fleet = FleetConfig {
        producers: (f.producers as f64 * SCALE).round() as usize,
        partitions: f.partitions,
        strategy: PartitionStrategy::KeyHash,
        population: Population::new(entries).expect("validated population mix"),
        initial_consumers: f.consumers,
        assignor: f.assignor,
        churn: f
            .churn
            .iter()
            .map(|c| ChurnEvent {
                at: SimTime::ZERO + SimDuration::from_secs(c.at_s),
                action: c.action,
                member: c.member,
            })
            .collect(),
        duration: SimDuration::from_secs(f.duration_s),
        window: SimDuration::from_millis(f.window_ms),
        partition_capacity_hz: f.partition_capacity_hz * SCALE,
        base_loss: f.base_loss,
        rebalance_pause: SimDuration::from_millis(f.rebalance_pause_ms),
    };
    fleet.validate().expect("scaled fleet config is valid");
    Fleet {
        cfg: fleet,
        seeds: (0..FLEETS).map(|i| derive_seed(cfg.seed, i)).collect(),
        spec_ms,
    }
}

impl Fleet {
    /// Digest of the generated inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(digest_json(&self.cfg));
        self.seeds.iter().for_each(|&s| h.u64(s));
        h.finish()
    }
}

/// Per-tenant and fleet-level conservation.
fn conserved(o: &FleetOutcome) -> Result<(), String> {
    if let Some(t) = o
        .tenants
        .iter()
        .find(|t| t.produced != t.delivered + t.lost_network + t.lost_overload)
    {
        return Err(format!("tenant {} accounting does not sum", t.tenant));
    }
    let produced: u64 = o.tenants.iter().map(|t| t.produced).sum();
    let appended: u64 = o.partition_appends.iter().sum();
    if produced != o.totals.produced || appended != o.totals.delivered || produced == 0 {
        return Err("fleet totals do not match the tenant ledgers".into());
    }
    Ok(())
}

fn sharded(f: &Fleet, seed: u64, threads: usize) -> (FleetOutcome, f64) {
    timed(|| FleetRun::new(f.cfg.clone(), seed).execute_sharded(threads))
}

/// Sum of each fleet's fastest wall time.
fn summed(walls: &[f64]) -> f64 {
    walls.iter().sum()
}

/// Digest of a batch's outcomes, one per fleet.
fn batch_digest(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    digests.iter().for_each(|&d| h.u64(d));
    h.finish()
}

pub fn run(f: &Fleet, cfg: &Config, tally: &mut Tally, setup: &mut SetupSampler) -> Vec<Metric> {
    let n = f.seeds.len();
    println!(
        "fleet: {n} fleets of {} producers, {} partitions, {} s simulated, 1 and {} threads",
        f.cfg.producers,
        f.cfg.partitions,
        f.cfg.duration.as_secs_f64(),
        cfg.threads
    );
    // Fastest wall per fleet at 1 thread and at `threads`, as `collect`
    // takes the fastest run of each point.
    let mut best_s = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
    let mut first: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut reps = 0;
    repeat_for(cfg.seconds, 3, |_| {
        setup.pace();
        for (i, &seed) in f.seeds.iter().enumerate() {
            for (slot, threads) in [1, cfg.threads].into_iter().enumerate() {
                let Some((outcome, wall)) = guarded(|| sharded(f, seed, threads)) else {
                    tally.ops(1, Some(format!("fleet run at {threads} threads panicked")));
                    continue;
                };
                let seen = (digest_json(&outcome), outcome.totals.produced);
                let verdict = conserved(&outcome).and_then(|()| {
                    if *first[i].get_or_insert(seen) == seen {
                        Ok(())
                    } else {
                        Err(format!("fleet {i} outcome at {threads} threads differs"))
                    }
                });
                tally.ops(1, verdict.err());
                best_s[slot][i] = best_s[slot][i].min(wall);
            }
        }
        reps += 1;
    });
    let produced: u64 = first.iter().flatten().map(|&(_, p)| p).sum();
    let digests: Vec<u64> = first.iter().flatten().map(|&(d, _)| d).collect();
    let [t1, t2] = best_s.map(|w| summed(&w));
    println!(
        "fleet: {reps} repetitions, fastest runs summed over fleets {t1:.3} s at 1 thread, \
         {t2:.3} s at {} threads, outcome digest {:016x}",
        cfg.threads,
        batch_digest(&digests)
    );
    // The one-thread rate leads: a second thread competes with whatever
    // else the host runs, which makes the two-thread rate the less steady.
    vec![
        Metric::new("fleet_flow_msgs_per_s_t1", produced as f64 / t1, "1/s"),
        Metric::new("fleet_flow_msgs_per_s_t2", produced as f64 / t2, "1/s"),
    ]
}

/// The sequential engine with spans and a counting sink.
fn profiled(
    f: &Fleet,
    seed: u64,
    prof: &Profiler,
    kinds: &Rc<RefCell<KindCounts>>,
) -> (FleetOutcome, f64) {
    timed(|| {
        let _span = prof.span("fleet.execute");
        FleetRun::new(f.cfg.clone(), seed)
            .execute_profiled(Box::new(CountingSink(Rc::clone(kinds))), prof.clone())
            .0
    })
}

pub fn trace(f: &Fleet, cfg: &Config, tally: &mut Tally) -> Traced {
    // Spans, trace-event counts and allocations come from the first
    // repetition; timings are each fleet's fastest of interleaved
    // repetitions, summed over the fleets.
    let n = f.seeds.len();
    let prof = Profiler::enabled();
    let kinds = Rc::new(RefCell::new(KindCounts::new()));
    // Profiled sequential, sharded at 1 thread, untraced sequential,
    // sharded at `threads`.
    let mut walls = [(); 4].map(|()| vec![f64::INFINITY; n]);
    let mut reference = Vec::with_capacity(n);
    let (mut produced, mut events, mut skew, mut allocs) = (0, 0, 0.0, 0);
    for (i, &seed) in f.seeds.iter().enumerate() {
        let (traced, traced_wall) = profiled(f, seed, &prof, &kinds);
        let ((one, one_wall), counted) = alloc::count(|| sharded(f, seed, 1));
        let digest = digest_json(&one);
        tally.check(1, conserved(&one).is_ok(), || {
            format!("fleet {i} accounting does not sum")
        });
        tally.check(1, digest_json(&traced) == digest, || {
            format!("fleet {i}: profiled sequential run differs from the sharded run")
        });
        walls[0][i] = traced_wall;
        walls[1][i] = one_wall;
        reference.push(digest);
        produced += one.totals.produced;
        events += one.events_fired;
        skew += one.skew() / n as f64;
        allocs += counted;
    }

    let mut reps = 0;
    repeat_for(cfg.seconds, 2, |rep| {
        for (i, &seed) in f.seeds.iter().enumerate() {
            let mut same = |(outcome, wall): (FleetOutcome, f64), slot: usize, what: &str| {
                tally.check(1, digest_json(&outcome) == reference[i], || {
                    format!("fleet {i}: {what} differs from the sharded run at 1 thread")
                });
                walls[slot][i] = walls[slot][i].min(wall);
            };
            if rep > 0 {
                same(
                    profiled(f, seed, &Profiler::enabled(), &Rc::default()),
                    0,
                    "profiled sequential run",
                );
                same(sharded(f, seed, 1), 1, "sharded run at 1 thread");
            }
            same(
                timed(|| FleetRun::new(f.cfg.clone(), seed).execute()),
                2,
                "untraced sequential run",
            );
            same(
                sharded(f, seed, cfg.threads),
                3,
                &format!("sharded run at {} threads", cfg.threads),
            );
        }
        reps += 1;
    });
    let [traced_wall, t1, plain_wall, t2] = walls.map(|w| summed(&w));

    let events = events as f64;
    let mut layers = BTreeMap::new();
    layers.insert("fleet.flow_msgs_per_s_t1", produced as f64 / t1);
    layers.insert("fleet.events_per_s_t1", events / t1);
    layers.insert("fleet.events_per_s_t2", events / t2);
    layers.insert("fleet.speedup_t2", t1 / t2);
    layers.insert("fleet.partition_skew", skew);
    layers.insert("fleet.events_fired", events);
    layers.insert("fleet.allocs_per_flow_msg", allocs as f64 / produced as f64);
    layers.insert("obs.trace_overhead", traced_wall / plain_wall);
    println!(
        "fleet (traced): {reps} repetitions, fastest runs summed over {n} fleets: sequential \
         {plain_wall:.3} s untraced, {traced_wall:.3} s traced; sharded {t1:.3} s at 1 thread, \
         {t2:.3} s at {} threads; digest {:016x}",
        cfg.threads,
        batch_digest(&reference)
    );
    Traced {
        layers,
        profile: prof.snapshot(),
        kinds: kinds.take(),
    }
}
