//! `fitbench`: the FitAct reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fitbench/Cargo.toml -- \
//!     --workload cifar10 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run sets the system up, then drives three phases through the crates'
//! public API in each of five passes, checking every output:
//!
//! 1. **campaign** — statistical bit-flip sweeps (`fitact::assess_resilience`)
//!    at a sparse and a dense fault rate on a FitAct-protected AlexNet;
//! 2. **serve** — an open loop of single-row `/predict` requests against an
//!    in-process `fitact_serve::Server` serving that AlexNet as a mapped f16
//!    artifact, at a low and a high rate;
//! 3. **pipeline** — the FitAct workflow on ResNet50: train, calibrate,
//!    protect, post-train, save.
//!
//! It ends by climbing a ladder of request rates for `predict_max_rps`.
//! See `README.md` beside this crate for the metrics and the layer each one
//! belongs to.
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics of a traced run,
//! which records spans around each call and adds per-layer measurements. The
//! line before it carries the host fingerprint, quartiles, sample counts and
//! every check. Files the run writes go to `.fitbench/`.

mod campaign;
mod host;
mod inputs;
mod layers;
mod pipeline;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use host::{nproc, Host, Probe};
use inputs::{Inputs, Workload, EVAL};
use report::Report;
use serve::{Arrivals, Phase};
use setup::Prepared;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

pub type Error = Box<dyn std::error::Error>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Passes per run. Each pass runs the campaign, serving and pipeline phases
/// once, so the repetitions of each measurement are spread over the whole
/// run, and a slow spell of a shared host, which lasts seconds, slows a
/// minority of them. Sweep and pipeline stage times report the mean of
/// their repetitions: on the two-vCPU host the benchmark was tuned on, the
/// guest scheduler stacked threads forked after some serving phases on one
/// vCPU for seconds, so sweeps alternated between two speeds pass by pass,
/// and a median jumps between the two where a mean does not.
const PASSES: usize = 5;
/// Share of `--seconds` each pass spends on repeated sparse sweeps (at
/// least one); every pass runs one dense sweep.
const SPARSE_SHARE: f64 = 0.03;
/// The low-load phase: requests exactly 1/rate apart, longer than the
/// batcher's 5 ms `max_wait`, so every batch is one row.
const LOW_RATE: f64 = 150.0;
/// The high-load phase: Poisson arrivals at about half the rate where the
/// median latency leaves the limit on a quiet two-core host (~600 req/s),
/// so rows share batches and a noisy neighbour does not saturate it.
const HIGH_RATE: f64 = 300.0;
/// Requests per pass of the low and high phases: over the passes, enough
/// that p99 has ten samples beyond it.
const LOW_REQUESTS: usize = 202;
const HIGH_REQUESTS: usize = 300;
/// The ladder of fixed rates `predict_max_rps` is read from. Rungs send at
/// exact intervals, so a rung offers exactly its rate, and each rung
/// triples the last, so a rung passes or fails by a wide margin.
const LADDER: [f64; 3] = [100.0, 300.0, 900.0];
/// Share of `--seconds` each ladder rung runs for.
const RUNG_SHARE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("probe") {
        println!("{}", Probe::measure().to_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fitbench: {message}");
            eprintln!("usage: fitbench --workload <cifar10|cifar100> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fitbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), Error> {
    let host = Host::fingerprint();
    let probe = if args.trace {
        Some(Probe::in_child()?)
    } else {
        None
    };
    let dir = PathBuf::from(".fitbench");
    std::fs::create_dir_all(&dir)?;
    let inputs = Inputs::derive(args.workload, args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();

    let (prep, setup_s, identical) =
        setup::prepare_repeated(&inputs, &dir, SETUP_REPS, &mut tracer)?;
    report.check("setup.artifacts_identical", identical);
    let mut campaigns = Campaigns::new(&prep, &mut report)?;
    let mut serving = Serving::new(&inputs, &prep);
    let mut stages = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        campaigns.pass(args, &prep, &mut report)?;
        serving.pass(&mut report)?;
        let path = dir.join(format!(
            "pipeline-{}-{}-{pass}.fitact",
            args.workload.name(),
            args.seed
        ));
        let run = pipeline::run(
            &inputs,
            &prep.pipeline_x,
            &prep.pipeline_y,
            &path,
            &mut tracer,
        )?;
        report.attempted += 4;
        report.check("pipeline.constraint_satisfied", run.constraint_satisfied);
        report.check("pipeline.calibrations_agree", run.calibrations_agree);
        stages.push((run, std::fs::read(&path)?));
        std::fs::remove_file(&path)?;
    }
    let max_rps = serving.ladder(args, &mut report)?;
    report.check("campaign.repeats_identical", campaigns.repeats_identical);
    report.check("serve.outputs_bit_identical", serving.mismatches == 0);
    report.check(
        "pipeline.reports_repeat",
        stages
            .windows(2)
            .all(|w| w[0].0.fingerprint == w[1].0.fingerprint),
    );
    report.check(
        "pipeline.artifacts_repeat",
        stages.windows(2).all(|w| w[0].1 == w[1].1),
    );

    if args.trace {
        let traced = campaigns.traced(&prep, &mut tracer, &mut report)?;
        let phases = [
            ("low", Phase::merge(&serving.low)),
            ("high", Phase::merge(&serving.high)),
        ];
        traced_metrics(
            &inputs,
            &prep,
            probe.as_ref(),
            &traced,
            &phases,
            &stages[0].0,
            &mut tracer,
            &mut report,
        )?;
        let spans = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_jsonl(&spans)?;
    }
    // The sparse sweep's rate and the high phase's median latency spread by
    // up to 30% and 47% of their medians between runs on a shared two-core
    // host, so they are reported with the per-layer metrics, which carry no
    // bound; the dense rate and the low phase's latency are end to end.
    for (i, (name, _, _)) in campaign::RATES.iter().enumerate() {
        if args.trace == (*name == "sparse") {
            report.median(
                &format!("campaign_trials_per_s.{name}"),
                "trials/s",
                &campaigns.rates[i],
            );
        }
    }
    let p50s = |phases: &[Phase]| {
        phases
            .iter()
            .map(|p| p.p50_ms().unwrap_or(f64::NAN))
            .collect::<Vec<_>>()
    };
    if args.trace {
        report.median("predict_p50_ms.high", "ms", &p50s(&serving.high));
    } else {
        let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
        report.value(
            "campaign_wall_s",
            "s",
            campaigns.walls.iter().map(|w| mean(w)).sum(),
        );
        report.median("predict_p50_ms.low", "ms", &p50s(&serving.low));
        report.value("predict_max_rps", "req/s", max_rps);
        report.median("setup_s", "s", &setup_s);
        let stage = |f: fn(&pipeline::Stages) -> &[f64]| {
            stages
                .iter()
                .flat_map(|(s, _)| f(s))
                .copied()
                .collect::<Vec<_>>()
        };
        report.mean("train_s", "s", &stage(|s| &s.train_s));
        report.mean("calibrate_s", "s", &stage(|s| &s.calibrate_s));
        report.mean(
            "posttrain_s",
            "s",
            &stage(|s| std::slice::from_ref(&s.posttrain_s)),
        );
        let rss = host::peak_rss_mib().ok_or("VmHWM unavailable")?;
        report.value("peak_rss_mb", "MiB", rss);
    }
    prep.server.shutdown();
    prep.server.join();
    std::fs::remove_file(&prep.artifact_path)?;

    let bad = report.non_finite();
    if !bad.is_empty() {
        return Err(format!("metrics without a finite value: {bad:?}").into());
    }
    println!(
        "{}",
        report.detail_json(&host.to_json(args.seed, args.workload.name(), probe.as_ref()))
    );
    println!("{}", report.result_json());
    Ok(())
}

/// What the traced run needs from the campaign phase.
struct CampaignTrace {
    untraced_s: f64,
    traced_s: f64,
    counts: Vec<(&'static str, campaign::TrialCounts, usize)>,
}

/// The campaign phase's sweeps, accumulated over the passes.
struct Campaigns {
    configs: Vec<(&'static str, fitact_faults::StatCampaignConfig)>,
    walls: Vec<Vec<f64>>,
    rates: Vec<Vec<f64>>,
    first: Vec<Option<String>>,
    repeats_identical: bool,
}

impl Campaigns {
    /// Builds the sweep configurations and checks thread-count invariance.
    fn new(prep: &Prepared, report: &mut Report) -> Result<Campaigns, Error> {
        let configs: Vec<_> = campaign::RATES
            .iter()
            .map(|&(name, rate, trials)| {
                (
                    name,
                    campaign::config(rate, trials, inputs::ALEXNET_SEED, EVAL),
                )
            })
            .collect();
        report.attempted += 1;
        report.check(
            "campaign.thread_count_invariant",
            campaign::thread_count_invariant(
                &prep.protected,
                &prep.eval_x,
                &prep.eval_y,
                &configs[1].1,
                nproc(),
            )?,
        );
        let n = configs.len();
        Ok(Campaigns {
            configs,
            walls: vec![Vec::new(); n],
            rates: vec![Vec::new(); n],
            first: vec![None; n],
            repeats_identical: true,
        })
    }

    /// One pass: sparse sweeps for a share of `--seconds`, one dense sweep.
    fn pass(&mut self, args: &Args, prep: &Prepared, report: &mut Report) -> Result<(), Error> {
        let budget = Duration::from_secs_f64(args.seconds * SPARSE_SHARE);
        for i in 0..self.configs.len() {
            let start = Instant::now();
            loop {
                let (result, wall) = campaign::untraced(
                    &prep.protected,
                    &prep.eval_x,
                    &prep.eval_y,
                    &self.configs[i].1,
                )?;
                report.attempted += 1;
                let fp = campaign::fingerprint(&result);
                self.repeats_identical &= self.first[i].get_or_insert_with(|| fp.clone()) == &fp;
                self.walls[i].push(wall);
                self.rates[i].push(result.total_trials() as f64 / wall);
                if self.configs[i].0 != "sparse" || start.elapsed() >= budget {
                    break;
                }
            }
        }
        Ok(())
    }

    /// One traced sweep per rate, checked against the untraced reports.
    fn traced(
        &self,
        prep: &Prepared,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Result<CampaignTrace, Error> {
        let mut trace = CampaignTrace {
            untraced_s: self.walls.iter().map(|w| w[0]).sum(),
            traced_s: 0.0,
            counts: Vec::new(),
        };
        let mut identical = true;
        for (i, (name, config)) in self.configs.iter().enumerate() {
            let start = Instant::now();
            let (result, counts) = campaign::traced(
                &prep.protected,
                &prep.eval_x,
                &prep.eval_y,
                config,
                nproc(),
                tracer,
            )?;
            trace.traced_s += start.elapsed().as_secs_f64();
            identical &= self.first[i].as_deref() == Some(campaign::fingerprint(&result).as_str());
            trace.counts.push((name, counts, result.rounds));
        }
        report.check("campaign.traced_equals_untraced", identical);
        Ok(trace)
    }
}

/// The serving phase's open loops, accumulated over the passes.
struct Serving<'a> {
    prep: &'a Prepared,
    order: Vec<usize>,
    rows_seed: u64,
    stream: u64,
    low: Vec<Phase>,
    high: Vec<Phase>,
    mismatches: usize,
}

impl<'a> Serving<'a> {
    fn new(inputs: &Inputs, prep: &'a Prepared) -> Serving<'a> {
        Serving {
            prep,
            order: inputs.row_order(prep.rows.len()),
            rows_seed: inputs.rows,
            stream: 0,
            low: Vec::new(),
            high: Vec::new(),
            mismatches: 0,
        }
    }

    fn phase(
        &mut self,
        periodic: bool,
        rate: f64,
        requests: usize,
        report: &mut Report,
    ) -> Result<Phase, Error> {
        self.stream += 1;
        let arrivals = if periodic {
            Arrivals::Periodic
        } else {
            Arrivals::Poisson(self.rows_seed ^ self.stream)
        };
        let p = serve::run_phase(
            &self.prep.server,
            &self.prep.rows,
            &self.order,
            arrivals,
            rate,
            requests,
            (nproc() / 2).max(1),
        )?;
        report.attempted += p.requests as u64;
        report.failed += p.failed as u64;
        self.mismatches += p.mismatches;
        Ok(p)
    }

    /// One pass: the low and the high phase.
    fn pass(&mut self, report: &mut Report) -> Result<(), Error> {
        let low = self.phase(true, LOW_RATE, LOW_REQUESTS, report)?;
        self.low.push(low);
        let high = self.phase(false, HIGH_RATE, HIGH_REQUESTS, report)?;
        self.high.push(high);
        Ok(())
    }

    /// Climbs the ladder; returns the responses per second achieved at the
    /// highest rung that meets the limit, or 0 if none does.
    fn ladder(&mut self, args: &Args, report: &mut Report) -> Result<f64, Error> {
        let mut best = 0.0;
        for rate in LADDER {
            let requests = (rate * args.seconds * RUNG_SHARE).ceil() as usize;
            let rung = self.phase(true, rate, requests, report)?;
            if !rung.meets_limit() {
                eprintln!(
                    "fitbench: ladder stops at {rate} req/s: p50 {:?} ms, backlog {}, failed {}",
                    rung.p50_ms(),
                    rung.backlog(),
                    rung.failed
                );
                break;
            }
            best = rung.achieved_rps;
        }
        Ok(best)
    }
}

/// The per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    inputs: &Inputs,
    prep: &Prepared,
    probe: Option<&Probe>,
    campaign: &CampaignTrace,
    phases: &[(&'static str, Phase)],
    stages: &pipeline::Stages,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), Error> {
    let probe = probe.ok_or("the traced run needs the probe")?;
    let per = |total: f64, count: usize| total / count.max(1) as f64;

    // nn and core: top-level layers of the campaign's AlexNet and of a
    // ResNet50 (the only model with norm and residual layers).
    let mut alexnet = prep.protected.clone();
    let mut resnet = fitact_nn::models::resnet50(
        &fitact_nn::models::ModelConfig::new(inputs.workload.classes())
            .with_width(inputs::WIDTH)
            .with_seed(inputs.model),
    )?;
    const WALK_REPS: usize = 5;
    let mut alexnet_shapes = Vec::new();
    for batch in [1usize, 32] {
        let x = layers::rows(&prep.eval_x, batch.min(EVAL))?;
        let shapes = layers::walk(&mut alexnet, &x, WALK_REPS, tracer)?;
        if batch == 32 {
            alexnet_shapes = shapes;
        }
        layers::walk(&mut resnet, &x, WALK_REPS, tracer)?;
        for kind in layers::KINDS {
            let name = format!("nn.{kind}.forward.b{batch}");
            let ms = per(tracer.total_self_ms(&name), WALK_REPS);
            let metric = if kind == "activation" {
                format!("core.activation.forward_ms.b{batch}")
            } else {
                format!("nn.{kind}.forward_ms.b{batch}")
            };
            report.value(&metric, "ms", ms);
        }
    }

    // tensor: the AlexNet's GEMMs against the probe's single-core peak.
    let gemms = layers::gemms(&alexnet_shapes);
    let (flops, seconds) = layers::gemm_f32(&gemms, 20, tracer);
    report.value("tensor.gemm_f32.gflops", "GFLOP/s", flops / seconds / 1e9);
    report.value(
        "tensor.gemm_f32.frac_peak",
        "ratio",
        flops / seconds / 1e9 / probe.fma_gflops,
    );
    let (flops, seconds) = layers::gemm_f16(&gemms, 20, tracer);
    report.value("tensor.gemm_f16.gflops", "GFLOP/s", flops / seconds / 1e9);
    report.value(
        "tensor.gemm_f16.frac_peak",
        "ratio",
        flops / seconds / 1e9 / probe.fma_gflops,
    );

    // core: the paper's Table I overhead at batch 1.
    let one = layers::rows(&prep.eval_x, 1)?;
    for (scheme, pct) in layers::protection_overheads(&prep.base, &prep.profile, &one, 7)? {
        report.value(&format!("core.overhead_pct.{scheme}"), "%", pct);
    }
    report.value(
        "core.calibrate_ms",
        "ms",
        per(
            tracer.total_ms("core.calibrate"),
            tracer.count("core.calibrate"),
        ),
    );
    report.value(
        "core.post_train.epoch_ms",
        "ms",
        per(
            tracer.total_ms("core.post_train"),
            tracer.count("core.post_train") * stages.post_train_epochs,
        ),
    );

    // nn: one training step of the pipeline's ResNet50, split.
    const STEPS: usize = 2;
    let batch = layers::rows(&prep.pipeline_x, pipeline::BATCH)?;
    layers::train_steps(
        &mut resnet,
        &batch,
        &prep.pipeline_y[..pipeline::BATCH],
        STEPS,
        tracer,
    )?;
    report.value(
        "nn.backward_ms",
        "ms",
        per(tracer.total_ms("nn.backward"), STEPS),
    );
    report.value(
        "nn.sgd_step_ms",
        "ms",
        per(tracer.total_ms("nn.sgd_step"), STEPS),
    );

    // faults: the traced sweeps.
    let sweeps = campaign.counts.len();
    report.value(
        "faults.runner_setup_ms",
        "ms",
        per(tracer.total_ms("faults.runner_setup"), sweeps),
    );
    report.value(
        "faults.control_ms",
        "ms",
        per(tracer.total_ms("faults.control"), sweeps),
    );
    let units: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "faults.trials")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let mut units = units.into_iter();
    // The untraced passes record no spans, so the only `faults.trials`
    // spans are the traced sweeps'.
    for (name, counts, rounds) in &campaign.counts {
        // Spans come in sweep order: this sweep's are the next `units`.
        let unit_ms: f64 = units.by_ref().take(counts.units).sum();
        report.value(
            &format!("faults.trial_ms.{name}"),
            "ms",
            per(unit_ms, counts.trials),
        );
        report.value(
            &format!("faults.trials.{name}"),
            "count",
            counts.trials as f64,
        );
        report.value(&format!("faults.rounds.{name}"), "count", *rounds as f64);
        report.value(
            &format!("faults.faults_per_trial.{name}"),
            "faults",
            counts.faults as f64 / counts.trials.max(1) as f64,
        );
        report.value(
            &format!("faults.zero_fault_share.{name}"),
            "ratio",
            counts.zero_fault_trials as f64 / counts.trials.max(1) as f64,
        );
    }

    // io and data: the set-ups.
    let setups = tracer.count("setup");
    report.value(
        "io.mapped_instantiate_ms",
        "ms",
        per(tracer.total_ms("io.mapped_instantiate"), setups),
    );
    report.value(
        "io.artifact_save_ms",
        "ms",
        per(tracer.total_ms("io.artifact_save"), setups),
    );
    report.value("io.artifact_bytes", "bytes", prep.artifact_bytes as f64);
    report.value(
        "data.materialize_ms",
        "ms",
        per(tracer.total_ms("data.materialize"), setups),
    );

    // serve: per phase, with queue wait and worker busy time derived from
    // the mapped network's own batch forward times.
    let mut mapped = prep.mapped.clone();
    let fwd1 = fitact_tensor::matmul::serial_scope(|| layers::forward_ms(&mut mapped, &one, 50))?;
    let eight = layers::rows(&prep.eval_x, 8)?;
    let fwd8 = fitact_tensor::matmul::serial_scope(|| layers::forward_ms(&mut mapped, &eight, 20))?;
    let fwd = |rows: f64| fwd1 + (fwd8 - fwd1) * (rows - 1.0) / 7.0;
    let workers = fitact_serve::ServeConfig::default().workers as f64;
    for (name, p) in phases {
        let client_p50 = p.p50_ms().unwrap_or(f64::NAN);
        let server_p50 = p.server_p50_ms.unwrap_or(f64::NAN);
        let rows_per_batch = p.server_rows as f64 / p.server_batches.max(1) as f64;
        let mean_rows = p.batch_rows.iter().sum::<f64>() / p.batch_rows.len().max(1) as f64;
        report.value(&format!("serve.server_p50_ms.{name}"), "ms", server_p50);
        report.value(
            &format!("serve.transport_p50_ms.{name}"),
            "ms",
            client_p50 - server_p50,
        );
        report.value(&format!("serve.batch_rows_mean.{name}"), "rows", mean_rows);
        report.value(
            &format!("serve.queue_wait_ms_derived.{name}"),
            "ms",
            server_p50 - fwd(rows_per_batch),
        );
        report.value(
            &format!("serve.worker_busy_frac_derived.{name}"),
            "ratio",
            p.server_batches as f64 * fwd(rows_per_batch) / 1e3 / (workers * p.seconds),
        );
        report.value(
            &format!("serve.requests_sent.{name}"),
            "count",
            p.sent as f64,
        );
        report.value(&format!("serve.requests_ok.{name}"), "count", p.ok as f64);
        report.value(
            &format!("serve.requests_failed.{name}"),
            "count",
            p.failed as f64,
        );
        report.value(
            &format!("serve.requests_shed.{name}"),
            "count",
            p.shed as f64,
        );
        // p99 whenever the phase's 1000-odd requests succeed; with fewer,
        // the highest percentile that keeps ten samples beyond it.
        let q = stats::tail_percentile(p.latencies_ms.len(), 99, 10).unwrap_or(50);
        report.value(
            &format!("serve.client_p99_ms.{name}"),
            "ms",
            stats::percentile(&p.latencies_ms, f64::from(q)).unwrap_or(f64::NAN),
        );
        report.value(
            &format!("serve.generator_lag_ms.{name}"),
            "ms",
            stats::percentile(&p.lags_ms, 99.0).unwrap_or(f64::NAN),
        );
    }

    let overhead = (campaign.traced_s / campaign.untraced_s - 1.0) * 100.0;
    report.value("trace_overhead_pct", "%", overhead);
    Ok(())
}
