//! Sharded-engine pins: the parallel fleet engine must be bit-identical at
//! every thread count — on the committed fleet scenario and on arbitrary
//! fleet configs — and shard-tagged trace streams must merge into one
//! well-nested stream.

use desim::{SimDuration, SimTime};
use kafkasim::fleet::{
    Assignor, ChurnAction, ChurnEvent, FleetConfig, FleetRun, PartitionStrategy, Population,
    PopulationEntry,
};
use obs::{merge_shard_streams, well_nested, RingBufferSink, TraceEvent};
use proptest::prelude::*;
use spec::{ExperimentSpec, Spec};
use testbed::scenarios::ApplicationScenario;

/// Builds the committed `scenarios/fleet.toml` experiment as one
/// [`FleetConfig`] per partitioning strategy, exactly as the `repro`
/// executor does.
fn builtin_fleet_configs() -> Vec<FleetConfig> {
    let doc = Spec::builtin("fleet").expect("fleet is a built-in scenario");
    doc.validate().expect("built-in corpus is valid");
    let ExperimentSpec::Fleet(spec) = doc.experiment else {
        panic!("fleet resolves to a fleet experiment");
    };
    let entries: Vec<PopulationEntry> = spec
        .population
        .iter()
        .map(|e| PopulationEntry {
            class: ApplicationScenario::by_slug(&e.class)
                .expect("Table II slug")
                .stream_class(e.rate_hz),
            weight: e.weight,
        })
        .collect();
    spec.partitioners
        .iter()
        .map(|&strategy| FleetConfig {
            producers: spec.producers,
            partitions: spec.partitions,
            strategy,
            population: Population::new(entries.clone()).expect("valid mix"),
            initial_consumers: spec.consumers,
            assignor: spec.assignor,
            churn: spec
                .churn
                .iter()
                .map(|c| ChurnEvent {
                    at: SimTime::ZERO + SimDuration::from_secs(c.at_s),
                    action: c.action,
                    member: c.member,
                })
                .collect(),
            duration: SimDuration::from_secs(spec.duration_s),
            window: SimDuration::from_millis(spec.window_ms),
            partition_capacity_hz: spec.partition_capacity_hz,
            base_loss: spec.base_loss,
            rebalance_pause: SimDuration::from_millis(spec.rebalance_pause_ms),
        })
        .collect()
}

/// The committed fleet scenario is bit-identical at 1/2/4/8 worker
/// threads for every partitioning strategy it sweeps, and the static
/// strategies additionally reproduce the sequential engine exactly.
#[test]
fn builtin_fleet_is_bit_identical_at_any_thread_count() {
    for cfg in builtin_fleet_configs() {
        let baseline = FleetRun::new(cfg.clone(), 42).execute_sharded(1);
        for threads in [2, 4, 8] {
            let run = FleetRun::new(cfg.clone(), 42).execute_sharded(threads);
            assert_eq!(
                run, baseline,
                "{:?} diverged at {threads} threads",
                cfg.strategy
            );
        }
        if !matches!(cfg.strategy, PartitionStrategy::RoundRobin) {
            let sequential = FleetRun::new(cfg.clone(), 42).execute();
            assert_eq!(
                baseline, sequential,
                "{:?} sharded run must equal the sequential engine",
                cfg.strategy
            );
        }
        assert!(baseline.totals.produced > 0, "the fleet produced traffic");
    }
}

/// The sharded run's consumer-group trace stream is byte-identical to the
/// sequential engine's, at any thread count.
#[test]
fn builtin_fleet_sharded_trace_matches_sequential() {
    let cfg = builtin_fleet_configs().remove(0);
    let (_, mut sink) =
        FleetRun::new(cfg.clone(), 42).execute_traced(Box::new(RingBufferSink::new(8192)));
    let sequential: Vec<TraceEvent> = sink.drain();
    for threads in [1, 4] {
        let (_, sharded) = FleetRun::new(cfg.clone(), 42).execute_sharded_traced(threads);
        assert_eq!(sharded, sequential, "trace diverged at {threads} threads");
    }
}

/// Splitting a time-ordered trace stream into per-shard streams and
/// merging them back must preserve the event population and satisfy the
/// well-nestedness invariant, for any shard count.
#[test]
fn merged_trace_streams_are_well_nested() {
    let cfg = builtin_fleet_configs().remove(0);
    let (_, events) = FleetRun::new(cfg, 42).execute_sharded_traced(4);
    assert!(!events.is_empty(), "the fleet scenario traces group events");
    for n_shards in [1usize, 2, 3, 5] {
        // Deal events round-robin onto shards: each per-shard stream is a
        // subsequence of a time-ordered stream, hence itself time-ordered
        // — exactly the contract shard-local emission provides.
        let mut streams: Vec<Vec<TraceEvent>> = vec![Vec::new(); n_shards];
        for (i, e) in events.iter().enumerate() {
            streams[i % n_shards].push(e.clone());
        }
        let merged = merge_shard_streams(streams);
        assert_eq!(merged.len(), events.len(), "merge drops nothing");
        well_nested(&merged).unwrap_or_else(|e| panic!("{n_shards} shards: {e}"));
        // Same event population, re-sorted: compare as multisets.
        let mut got: Vec<String> = merged
            .iter()
            .map(|e| serde_json::to_string(&e.event).expect("serializable event"))
            .collect();
        let mut want: Vec<String> = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("serializable event"))
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{n_shards} shards permuted the event set");
    }
}

fn arb_strategy() -> impl Strategy<Value = PartitionStrategy> {
    prop_oneof![
        Just(PartitionStrategy::RoundRobin),
        Just(PartitionStrategy::KeyHash),
        Just(PartitionStrategy::Locality),
    ]
}

fn arb_population() -> impl Strategy<Value = Population> {
    let slugs = ["social-media", "web-access-records", "game-traffic"];
    proptest::collection::vec((0usize..slugs.len(), 1u32..10, 1u32..40), 1usize..4).prop_map(
        move |picks| {
            let entries = picks
                .into_iter()
                .map(|(i, weight, rate_decihz)| PopulationEntry {
                    class: ApplicationScenario::by_slug(slugs[i])
                        .expect("Table II slug")
                        .stream_class(f64::from(rate_decihz) / 10.0),
                    weight: f64::from(weight),
                })
                .collect();
            Population::new(entries).expect("weights and rates are positive")
        },
    )
}

fn arb_fleet_config() -> impl Strategy<Value = FleetConfig> {
    (
        20usize..200,
        2u32..16,
        arb_strategy(),
        arb_population(),
        1u32..6,
        prop_oneof![Just(Assignor::Range), Just(Assignor::Sticky)],
        // Raw churn picks: (time inside the run, join?, leave target).
        proptest::collection::vec((1u64..10, proptest::bool::ANY, 0u32..4), 0usize..4),
    )
        .prop_map(
            |(producers, partitions, strategy, population, initial_consumers, assignor, raw)| {
                let churn = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (at_s, join, member))| ChurnEvent {
                        at: SimTime::ZERO + SimDuration::from_secs(at_s),
                        action: if join {
                            ChurnAction::Join
                        } else {
                            ChurnAction::Leave
                        },
                        member: if join {
                            initial_consumers + i as u32
                        } else {
                            member % initial_consumers
                        },
                    })
                    .collect();
                FleetConfig {
                    producers,
                    partitions,
                    strategy,
                    population,
                    initial_consumers,
                    assignor,
                    churn,
                    duration: SimDuration::from_secs(10),
                    window: SimDuration::from_secs(2),
                    partition_capacity_hz: 20.0,
                    base_loss: 0.01,
                    rebalance_pause: SimDuration::from_millis(1500),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs three full fleet simulations
        .. ProptestConfig::default()
    })]

    /// For *any* population mix, partitioner, assignor and churn
    /// schedule, the sharded engine's outcome is bit-identical across
    /// thread counts — and equal to the sequential engine for the static
    /// strategies.
    #[test]
    fn sharded_fleet_is_thread_invariant(cfg in arb_fleet_config(), seed in 0u64..1_000) {
        let one = FleetRun::new(cfg.clone(), seed).execute_sharded(1);
        let four = FleetRun::new(cfg.clone(), seed).execute_sharded(4);
        prop_assert_eq!(&one, &four);
        if !matches!(cfg.strategy, PartitionStrategy::RoundRobin) {
            let sequential = FleetRun::new(cfg, seed).execute();
            prop_assert_eq!(&one, &sequential);
        }
    }
}
