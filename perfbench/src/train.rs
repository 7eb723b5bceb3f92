//! `train`: paper-topology two-head SGD training of the reliability model
//! on a dataset collected during set-up.

use std::collections::BTreeMap;

use annet::metrics::mae;
use annet::{Dataset, Matrix};
use desim::SimRng;
use kafka_predict::model::{ReliabilityModel, Topology};
use kafka_predict::{train_model, Features, TrainOptions, TrainedModel};
use kafkasim::config::DeliverySemantics;
use obs::Profiler;
use spec::ExperimentSpec;
use testbed::sweep::run_sweep;
use testbed::{Calibration, ExperimentResult};

use crate::harness::{
    best, digest_json, fastest, guarded, ratio, repeat_for, span_sum, timed, KindCounts, Metric,
    SetupSampler, Tally,
};
use crate::sim::load_spec;
use crate::{alloc, Config, Traced};

/// Source messages per collected design point: enough that the labels'
/// sampling noise leaves both heads something to learn.
const DATA_MSGS: u64 = 300;
/// Every `DATA_STRIDE`-th point of the collection design is collected.
const DATA_STRIDE: usize = 2;
/// SGD epochs per timed training run. Short runs give the fastest-run
/// reading many chances to land between bursts of other work on the host.
const EPOCHS: usize = 2;
/// SGD epochs of the run whose model quality is checked: enough that each
/// head beats a constant predictor on its held-out split for every seed
/// tried.
const CHECK_EPOCHS: usize = 20;

/// The two heads the paper trains.
const HEADS: [DeliverySemantics; 2] = [
    DeliverySemantics::AtMostOnce,
    DeliverySemantics::AtLeastOnce,
];

pub struct Train {
    data: Vec<ExperimentResult>,
    options: TrainOptions,
    seed: u64,
    pub spec_ms: f64,
}

pub fn setup(cfg: &Config) -> Train {
    let (spec, spec_ms) = load_spec("ann");
    let ExperimentSpec::Train(train) = &spec.experiment else {
        panic!("the ann scenario holds a training spec");
    };
    let points: Vec<_> = train
        .collection
        .all_points()
        .into_iter()
        .filter(|p| HEADS.contains(&p.semantics))
        .step_by(DATA_STRIDE)
        .collect();
    // One worker, so that `setup_s` does not depend on what else runs on
    // the host's other core (sweeps are thread-invariant).
    let data = run_sweep(&points, &Calibration::paper(), DATA_MSGS, cfg.seed, 1);
    let mut options = TrainOptions::paper();
    options.sgd.epochs = EPOCHS;
    Train {
        data,
        options,
        seed: cfg.seed,
        spec_ms,
    }
}

impl Train {
    /// Digest of the generated inputs.
    pub fn digest(&self) -> u64 {
        digest_json(&self.data)
    }
}

/// Sample-epochs one training run processes, over both heads.
fn sample_epochs(t: &TrainedModel, epochs: usize) -> f64 {
    ((t.amo.train_samples + t.alo.train_samples) * epochs) as f64
}

fn check_model(t: &TrainedModel) -> Result<(), String> {
    let values = [
        t.amo.test_mae,
        t.alo.test_mae,
        t.amo.final_train_mse,
        t.alo.final_train_mse,
    ];
    if !values
        .iter()
        .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
    {
        return Err(format!("training diverged: {values:?}"));
    }
    if t.all.is_some() {
        return Err("an acks=all head was trained on a two-head dataset".into());
    }
    Ok(())
}

pub fn run(t: &Train, cfg: &Config, tally: &mut Tally, setup: &mut SetupSampler) -> Vec<Metric> {
    println!(
        "train: {} collected points, paper topology, {} epochs, lr {}, batch {}",
        t.data.len(),
        t.options.sgd.epochs,
        t.options.sgd.learning_rate,
        t.options.sgd.batch_size
    );
    let mut rates = Vec::new();
    let mut first: Option<u64> = None;
    repeat_for(cfg.seconds, 3, |_| {
        setup.pace();
        let Some((trained, wall)) = guarded(|| timed(|| train_model(&t.data, &t.options, t.seed)))
        else {
            tally.ops(1, Some("training panicked".into()));
            return;
        };
        let Ok(trained) = trained else {
            tally.ops(1, Some("too few samples to train".into()));
            return;
        };
        let digest = digest_json(&trained.model);
        let verdict = check_model(&trained).and_then(|()| {
            if *first.get_or_insert(digest) == digest {
                Ok(())
            } else {
                Err("trained weights differ between repetitions".into())
            }
        });
        tally.ops(1, verdict.err());
        rates.push(sample_epochs(&trained, t.options.sgd.epochs) / wall);
    });
    println!(
        "train: {} runs, weights digest {:016x}",
        rates.len(),
        first.unwrap_or(0)
    );
    vec![
        Metric::new("train_samples_per_s", best(&rates), "1/s"),
        Metric::new("train_test_mae", check_quality(t, tally), "ratio"),
    ]
}

/// Held-out MAE of one head beside that of a constant predictor (the
/// mean of the head's training targets) on the same split.
struct HeadCheck {
    semantics: DeliverySemantics,
    mae: f64,
    baseline: f64,
}

/// `train_model`, step for step, with `train_profiled` in place of
/// `train`: the same random stream, so the weights must be identical.
/// Also scores each head against a constant predictor on its split.
fn replay(
    t: &Train,
    options: &TrainOptions,
    prof: &Profiler,
) -> (ReliabilityModel, Vec<HeadCheck>) {
    let mut rng = SimRng::seed_from_u64(t.seed);
    let mut model = ReliabilityModel::new(options.topology, &mut rng);
    let mut checks = Vec::new();
    for semantics in HEADS {
        let (x, y): (Vec<_>, Vec<_>) = t
            .data
            .iter()
            .filter(|r| r.point.semantics == semantics)
            .map(|r| {
                let target = match semantics {
                    DeliverySemantics::AtMostOnce => vec![r.p_loss],
                    _ => vec![r.p_loss, r.p_dup],
                };
                (Features::from(&r.point).scaled_head_vector(), target)
            })
            .unzip();
        let data = Dataset::from_rows(x, y).expect("aligned rows");
        let (train, test) = data
            .train_test_split(options.test_fraction, &mut rng)
            .expect("enough rows to split");
        let head = model.head_mut(semantics);
        head.train_profiled(&train, &options.sgd, &mut rng, prof);
        let _eval = prof.span("annet.test-eval");
        let held_out = mae(&head.predict_batch(test.x()), test.y());
        checks.push(HeadCheck {
            semantics,
            mae: held_out,
            baseline: mae(&column_means(train.y(), test.len()), test.y()),
        });
    }
    (model, checks)
}

/// `rows` copies of the column means of `y`.
fn column_means(y: &Matrix, rows: usize) -> Matrix {
    let means: Vec<f64> = (0..y.cols())
        .map(|c| (0..y.rows()).map(|r| y.get(r, c)).sum::<f64>() / y.rows() as f64)
        .collect();
    Matrix::from_vec(rows, y.cols(), means.repeat(rows))
}

/// Trains for `CHECK_EPOCHS` and checks the model: its evaluation, that
/// a replay gives the same weights and held-out MAEs, and that every head
/// beats the constant predictor. Returns the worst head's held-out MAE.
fn check_quality(t: &Train, tally: &mut Tally) -> f64 {
    let mut options = t.options;
    options.sgd.epochs = CHECK_EPOCHS;
    let trained = match train_model(&t.data, &options, t.seed) {
        Ok(trained) => trained,
        Err(e) => {
            tally.ops(
                1,
                Some(format!("{CHECK_EPOCHS}-epoch training failed: {e}")),
            );
            return f64::NAN;
        }
    };
    tally.ops(1, check_model(&trained).err());
    let (model, checks) = replay(t, &options, &Profiler::disabled());
    tally.check(1, model == trained.model, || {
        "replayed training changed the weights".into()
    });
    for (h, eval) in checks.iter().zip([trained.amo, trained.alo]) {
        println!(
            "train: {:?} head after {CHECK_EPOCHS} epochs: held-out MAE {:.6} vs constant \
             predictor {:.6}",
            h.semantics, h.mae, h.baseline
        );
        tally.check(1, h.mae == eval.test_mae && h.mae < h.baseline, || {
            format!(
                "{:?} head: held-out MAE {} (reported {}) does not beat the constant \
                 predictor's {}",
                h.semantics, h.mae, eval.test_mae, h.baseline
            )
        });
    }
    trained.worst_mae()
}

pub fn trace(t: &Train, cfg: &Config, tally: &mut Tally) -> Traced {
    assert_eq!(
        t.options.topology,
        Topology::Paper,
        "FLOP counts assume one topology"
    );
    let ((trained, wall), allocs) =
        alloc::count(|| timed(|| train_model(&t.data, &t.options, t.seed)));
    let trained = trained.expect("enough samples to train");
    let verdict = check_model(&trained);
    tally.ops(1, verdict.err());

    let test_mae = check_quality(t, tally);
    let digest = digest_json(&trained.model);
    let prof = Profiler::enabled();
    let ((traced, _), traced_wall) = timed(|| replay(t, &t.options, &prof));
    let same = digest_json(&traced) == digest;
    tally.check(1, same, || "profiled training changed the weights".into());

    // Timings are the fastest of interleaved repetitions; counts and spans
    // come from the first.
    let mut walls = [vec![wall], vec![traced_wall]];
    repeat_for(cfg.seconds, 0, |_| {
        let (again, wall) = timed(|| train_model(&t.data, &t.options, t.seed));
        let same = again.is_ok_and(|m| digest_json(&m.model) == digest);
        tally.check(1, same, || {
            "trained weights differ between repetitions".into()
        });
        walls[0].push(wall);
        walls[1].push(timed(|| replay(t, &t.options, &Profiler::enabled())).1);
    });
    let reps = walls[0].len();
    let [wall, traced_wall] = walls.map(|w| fastest(&w));

    let profile = prof.snapshot();
    let forward = span_sum(&profile, "annet.forward").total_ns as f64;
    let backward = span_sum(&profile, "annet.backward").total_ns as f64;
    let samples = sample_epochs(&trained, t.options.sgd.epochs);
    // Two FLOPs per weight forward, four backward (input and weight
    // gradients), per training sample; heads weighted by their samples.
    let flops = HEADS
        .iter()
        .zip([trained.amo.train_samples, trained.alo.train_samples])
        .map(|(&s, n)| 6.0 * trained.model.head(s).parameter_count() as f64 * n as f64)
        .sum::<f64>()
        / (trained.amo.train_samples + trained.alo.train_samples) as f64;

    let mut layers = BTreeMap::new();
    layers.insert("annet.train_ns_per_sample", wall * 1e9 / samples);
    layers.insert("annet.backward_frac", ratio(backward, forward + backward));
    layers.insert("annet.flops_per_sample", flops);
    layers.insert("annet.gflops", flops * samples / wall / 1e9);
    layers.insert("annet.allocs_per_sample", allocs as f64 / samples);
    layers.insert("annet.test_mae", test_mae);
    layers.insert("obs.trace_overhead", traced_wall / wall);
    println!(
        "train (traced): fastest of {reps} repetitions: untraced {wall:.3} s, profiled \
         {traced_wall:.3} s; weights digest {digest:016x}"
    );
    Traced {
        layers,
        profile,
        kinds: KindCounts::new(),
    }
}
