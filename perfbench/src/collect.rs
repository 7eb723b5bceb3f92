//! `collect`: the Fig. 3 training-data collection design through
//! `testbed::sweep::run_sweep`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use desim::SimDuration;
use kafkasim::runtime::{KafkaRun, RunArena, RunOutcome};
use obs::Profiler;
use spec::ExperimentSpec;
use testbed::experiment::{ExperimentPoint, ExperimentResult};
use testbed::sweep::{derive_seed, run_sweep};
use testbed::Calibration;

use crate::harness::{
    best, digest_json, fastest, guarded, ratio, repeat_for, timed, KindCounts, Metric,
    SetupSampler, Tally,
};
use crate::probes::CountingSink;
use crate::sim::{audit_conserved, load_spec, SimTotals};
use crate::{alloc, Config, Traced};

/// Source messages per design point. Short sweeps give the fastest-sweep
/// reading many chances to land between bursts of other work on the host.
const MSGS_PER_POINT: u64 = 250;

pub struct Collect {
    cal: Calibration,
    points: Vec<ExperimentPoint>,
    /// Normal, abnormal and broker-fault point counts.
    sizes: (usize, usize, usize),
    pub spec_ms: f64,
}

pub fn setup(_cfg: &Config) -> Collect {
    let (spec, spec_ms) = load_spec("collection");
    let ExperimentSpec::Collection(design) = &spec.experiment else {
        panic!("the collection scenario holds a collection design");
    };
    let points = design.all_points();
    let sizes = design.sizes();
    Collect {
        cal: Calibration::paper(),
        points,
        sizes,
        spec_ms,
    }
}

impl Collect {
    /// Digest of the generated inputs.
    pub fn digest(&self) -> u64 {
        digest_json(&self.points)
    }
}

/// Checks every point's audit, one operation per point.
fn check_points(results: &[ExperimentResult], tally: &mut Tally) {
    for r in results {
        let verdict = audit_conserved(&r.report);
        tally.check(1, verdict.is_ok(), || {
            format!("point {:?}: {}", r.point, verdict.unwrap_err())
        });
    }
}

fn source_msgs(results: &[ExperimentResult]) -> u64 {
    results.iter().map(|r| r.report.n_source).sum()
}

/// Each repetition runs the design point by point at 1 worker, exactly
/// as `run_sweep` does with one worker (one pooled arena, the sweep's
/// per-point seeds), timing every point, and then sweeps it through
/// `run_sweep` at `threads` workers. The bounded rate is the 1-worker one,
/// with each point timed by its fastest repetition: a 0.3 ms point often
/// runs between bursts of other work on the host where a whole sweep
/// rarely does, and a second worker competes with that work, which makes
/// the `threads`-worker rate the less steady reading (printed beside it).
pub fn run(c: &Collect, cfg: &Config, tally: &mut Tally, setup: &mut SetupSampler) -> Vec<Metric> {
    let (normal, abnormal, faults) = c.sizes;
    println!(
        "collect: {} points ({normal} normal, {abnormal} abnormal, {faults} broker-fault), \
         {MSGS_PER_POINT} msgs each, 1 and {} workers",
        c.points.len(),
        cfg.threads
    );
    let n = c.points.len() as u64;
    let reference = run_sweep(&c.points, &c.cal, MSGS_PER_POINT, cfg.seed, 1);
    check_points(&reference, tally);
    let mut point_s = vec![f64::INFINITY; c.points.len()];
    let mut sweep_rates = Vec::new();
    let mut arena = RunArena::new();
    let mut reps = 0;
    repeat_for(cfg.seconds, 3, |_| {
        setup.pace();
        let pass = guarded(|| {
            let mut results = Vec::with_capacity(c.points.len());
            for (i, (p, best_s)) in c.points.iter().zip(&mut point_s).enumerate() {
                let seed = derive_seed(cfg.seed, i as u64);
                let (r, s) = timed(|| p.run_pooled(&c.cal, MSGS_PER_POINT, seed, &mut arena));
                *best_s = best_s.min(s);
                results.push(r);
            }
            results
        });
        tally.check(n, pass.is_some_and(|r| r == reference), || {
            "1-worker pass differs from the 1-worker sweep".into()
        });
        let sweep = guarded(|| {
            timed(|| run_sweep(&c.points, &c.cal, MSGS_PER_POINT, cfg.seed, cfg.threads))
        });
        let same = sweep.is_some_and(|(results, wall)| {
            sweep_rates.push(source_msgs(&results) as f64 / wall);
            results == reference
        });
        tally.check(n, same, || {
            format!(
                "{}-worker sweep differs from the 1-worker sweep",
                cfg.threads
            )
        });
        reps += 1;
    });
    let fastest_s: f64 = point_s.iter().sum();
    println!(
        "collect: {reps} repetitions, fastest 1-worker pass {fastest_s:.3} s summed over \
         points, results digest {:016x}",
        digest_json(&reference)
    );
    vec![
        Metric::new(
            "sim_msgs_per_s",
            source_msgs(&reference) as f64 / fastest_s,
            "1/s",
        ),
        Metric::new("sim_msgs_per_s_2w", best(&sweep_rates), "1/s"),
    ]
}

/// One sequential pass over every point with spans and a counting sink:
/// the outcomes, each point's host seconds, and the pass's host seconds.
fn traced_pass(
    c: &Collect,
    seed: u64,
    prof: &Profiler,
    kinds: &Rc<RefCell<KindCounts>>,
) -> (Vec<RunOutcome>, Vec<f64>, f64) {
    let mut outcomes = Vec::with_capacity(c.points.len());
    let mut point_s = Vec::with_capacity(c.points.len());
    let ((), wall) = timed(|| {
        for (i, p) in c.points.iter().enumerate() {
            let spec = p.to_run_spec(&c.cal, MSGS_PER_POINT);
            let (outcome, s) = timed(|| {
                let _span = prof.span("testbed.sweep-point");
                KafkaRun::new(spec, derive_seed(seed, i as u64))
                    .execute_profiled(Box::new(CountingSink(Rc::clone(kinds))), prof.clone())
                    .0
            });
            outcomes.push(outcome);
            point_s.push(s);
        }
    });
    (outcomes, point_s, wall)
}

pub fn trace(c: &Collect, cfg: &Config, tally: &mut Tally) -> Traced {
    let n = c.points.len() as u64;
    let sweep = |threads| timed(|| run_sweep(&c.points, &c.cal, MSGS_PER_POINT, cfg.seed, threads));

    // Counts come from the first repetition: the traced pass, a 1-worker
    // sweep with allocations counted, and a `threads`-worker sweep.
    let prof = Profiler::enabled();
    let kinds = Rc::new(RefCell::new(KindCounts::new()));
    let (outcomes, mut point_s, traced_wall) = traced_pass(c, cfg.seed, &prof, &kinds);
    let ((one, one_wall), allocs) = alloc::count(|| sweep(1));
    let (many, many_wall) = sweep(cfg.threads);
    check_points(&one, tally);
    tally.check(n, one == many, || {
        format!("1-worker sweep differs from {}-worker sweep", cfg.threads)
    });
    let observed = one.iter().zip(&outcomes).all(|(r, o)| r.report == o.report);
    tally.check(n, observed, || {
        "traced runs differ from untraced runs".into()
    });

    // Timings are the fastest of interleaved repetitions.
    let mut walls = [vec![traced_wall], vec![one_wall], vec![many_wall]];
    repeat_for(cfg.seconds, 0, |_| {
        let (_, again, wall) = traced_pass(c, cfg.seed, &Profiler::enabled(), &Rc::default());
        walls[0].push(wall);
        for (best_s, s) in point_s.iter_mut().zip(again) {
            *best_s = best_s.min(s);
        }
        for (slot, threads) in [(1, 1), (2, cfg.threads)] {
            let (results, wall) = sweep(threads);
            walls[slot].push(wall);
            tally.check(n, results == one, || {
                format!("{threads}-worker sweep differs between repetitions")
            });
        }
    });
    let reps = walls[0].len();
    let [traced_wall, one_wall, many_wall] = walls.map(|w| fastest(&w));

    // Contiguous chunks, as run_sweep assigns them.
    let chunk = c.points.len().div_ceil(cfg.threads);
    let loads: Vec<f64> = point_s.chunks(chunk).map(|c| c.iter().sum()).collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len() as f64;
    let imbalance = loads.iter().copied().fold(0.0, f64::max) / mean_load;

    let mut totals = SimTotals::default();
    outcomes.iter().for_each(|o| totals.add(o));
    let mut layers = BTreeMap::new();
    let profile = prof.snapshot();
    totals.fill(&mut layers, &profile, &kinds.borrow(), one_wall);
    layers.insert(
        "kafkasim.allocs_per_msg",
        ratio(allocs as f64, source_msgs(&one) as f64),
    );
    layers.insert("kafkasim.steady_allocs_per_msg", steady_allocs(c, cfg.seed));
    layers.insert("testbed.sweep_speedup_2w", one_wall / many_wall);
    layers.insert("testbed.chunk_imbalance", imbalance);
    layers.insert("obs.trace_overhead", traced_wall / one_wall);
    println!(
        "collect (traced): fastest of {} repetitions: traced {traced_wall:.3} s, 1 worker \
         {one_wall:.3} s, {} workers {many_wall:.3} s; results digest {:016x}",
        reps,
        cfg.threads,
        digest_json(&one)
    );
    Traced {
        layers,
        profile,
        kinds: kinds.take(),
    }
}

/// Marginal heap allocations per extra message on a warm arena: runs one
/// lossy point at `n` and `2n` messages after a warm-up and divides the
/// difference in allocations by `n`. Zero means the per-message path
/// allocates nothing.
fn steady_allocs(c: &Collect, seed: u64) -> f64 {
    let point = ExperimentPoint {
        loss_rate: 0.05,
        delay: SimDuration::from_millis(20),
        batch_size: 4,
        ..ExperimentPoint::default()
    };
    let n = 2 * MSGS_PER_POINT;
    let mut arena = RunArena::new();
    let run = |msgs: u64, arena: &mut RunArena| {
        let spec = point.to_run_spec(&c.cal, msgs);
        alloc::count(|| KafkaRun::new(spec, seed).execute_pooled(arena)).1
    };
    run(2 * n, &mut arena);
    let small = run(n, &mut arena);
    let large = run(2 * n, &mut arena);
    (large as f64 - small as f64) / n as f64
}
