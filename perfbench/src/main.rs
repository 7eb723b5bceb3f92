//! `perfbench` — the repository benchmark: a single-process, closed-loop
//! load generator over the pipeline's stages.
//!
//! ```text
//! perfbench --workload collect|train|control|fleet --seed N --seconds S
//!           --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed` during set-up, then hands
//! batches of work to the crates' public functions until `--seconds` of
//! host time have passed, checking every result. Set-up is repeated
//! between the batches for a tenth of the time; `setup_s` is the lower
//! quartile of those timings (see `harness::SetupSampler`). The parallel paths use
//! min(2, available_parallelism) threads. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` repeats the work with span profiling, counting
//! sinks and allocation counting, writes the artefacts under
//! `perfbench/out/<workload>/` and reports the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod collect;
mod control;
mod fleet;
mod harness;
mod layers;
mod probes;
mod sim;
mod train;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use harness::{guarded, peak_rss_mb, timed, Host, KindCounts, Metric, SetupSampler, Tally};
use obs::SpanProfile;
use serde_json::json;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Knobs every workload reads.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads for the parallel paths: min(2, available cores).
    pub threads: usize,
}

/// What a traced run hands back.
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub profile: SpanProfile,
    pub kinds: KindCounts,
}

struct Args {
    workload: String,
    cfg: Config,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload collect|train|control|fleet --seed N \
                     --seconds S --trace 0|1";

fn parse_args(cores: usize) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            threads: 2.min(cores),
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The measured part of one invocation.
struct Run {
    setup_s: f64,
    spec_ms: f64,
    /// End-to-end figures under the workload's own names; the first is
    /// the one reported as `work_per_s`.
    named: Vec<Metric>,
    traced: Option<Traced>,
}

fn run_workload(args: &Args, tally: &mut Tally) -> Result<Run, String> {
    let cfg = &args.cfg;
    macro_rules! drive {
        ($module:ident) => {{
            let build = || $module::setup(cfg);
            let (state, first_s) = timed(build);
            let mut sampler = SetupSampler::new(first_s, state.digest(), || {
                let (state, s) = timed(build);
                (s, state.digest())
            });
            let spec_ms = state.spec_ms;
            let (named, traced) = if args.trace {
                (Vec::new(), Some($module::trace(&state, cfg, tally)))
            } else {
                ($module::run(&state, cfg, tally, &mut sampler), None)
            };
            drop(state);
            let (setup_s, same) = sampler.finish();
            tally.check(1, same, || "set-up is not deterministic".into());
            Run {
                setup_s,
                spec_ms,
                named,
                traced,
            }
        }};
    }
    Ok(match args.workload.as_str() {
        "collect" => drive!(collect),
        "train" => drive!(train),
        "control" => drive!(control),
        "fleet" => drive!(fleet),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn metrics_json(metrics: &[Metric]) -> serde_json::Value {
    serde_json::Value::Map(
        metrics
            .iter()
            .map(|m| {
                // JSON has no NaN; a non-finite reading fails the run.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (m.name.to_string(), json!({"value": value, "unit": m.unit}))
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let host = Host::probe();
    let args = match parse_args(host.available_parallelism) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_json = serde_json::to_string(&host).expect("host facts serialise");
    println!("host: {host_json}");
    println!(
        "run: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.trace),
        args.cfg.threads
    );

    let mut tally = Tally::default();
    let run = match guarded(|| run_workload(&args, &mut tally)) {
        Some(Ok(run)) => run,
        Some(Err(e)) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {
            eprintln!("perfbench: the {} workload panicked", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut metrics = Vec::new();
    if let Some(traced) = &run.traced {
        let mut values = traced.layers.clone();
        values.insert("spec.load_validate_ms", run.spec_ms);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(&args.workload);
        if let Err(e) = layers::write_artefacts(
            &dir,
            &args.workload,
            &host_json,
            &values,
            &traced.profile,
            &traced.kinds,
        ) {
            eprintln!("perfbench: writing {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        println!(
            "per-layer table, Chrome trace and folded stacks: {}",
            dir.display()
        );
        for (layer, ms) in layers::self_ms_by_layer(&traced.profile) {
            println!("self time {layer:<12} {ms:>12.3} ms");
        }
        for lm in layers::CATALOGUE {
            let value = values.get(lm.name).copied().unwrap_or(0.0);
            let kind = if lm.exact { "exact" } else { "timing" };
            println!("layer {:<38} {value:>16.6} {:<12} {kind}", lm.name, lm.unit);
            metrics.push(Metric::new(lm.name, value, lm.unit));
        }
    } else {
        let work = run.named.first().map_or(0.0, |m| m.value);
        metrics.push(Metric::new("setup_s", run.setup_s, "s"));
        metrics.push(Metric::new("work_per_s", work, "1/s"));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        for m in run.named.iter().chain(&metrics) {
            println!("e2e {:<30} {:>18.6} {}", m.name, m.value, m.unit);
        }
    }
    let error_rate = harness::ratio(tally.failed as f64, tally.attempted as f64);
    println!(
        "e2e {:<30} {:>18.6} ratio ({} of {} operations failed)",
        "error_rate", error_rate, tally.failed, tally.attempted
    );
    for f in &tally.failures {
        println!("failure: {f}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let result = json!({
        "correct": tally.failed == 0 && finite && tally.attempted > 0,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": metrics_json(&metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result serialises")
    );
    ExitCode::SUCCESS
}
