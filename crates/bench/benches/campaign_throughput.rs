//! Criterion bench for fault-injection campaign throughput.
//!
//! The Monte-Carlo campaigns behind the paper's Figs. 5–6 run thousands of
//! inject → evaluate → restore trials; this bench measures trials/second of
//! the serial path against the trial-parallel path on a small quantised MLP,
//! and — the headline case — the full-forward trial engine against the
//! checkpoint-resumed engine on the CNN demo network (a width-scaled
//! AlexNet), where resumed trials skip the convolutional prefix whenever
//! their faults land in the parameter-heavy late layers. All compared paths
//! produce bit-identical results (pinned by the `checkpoint_identity`
//! suite), so any gap is pure scheduling overhead or speedup.
//!
//! Besides the criterion timings, the bench writes a machine-readable
//! multi-case comparison to `BENCH_campaign.json` at the workspace root:
//! `campaign_throughput` (median of 5 interleaved wall-clock samples per
//! trial engine, their interquartile spread, and the measured speedup) and
//! `campaign_adaptive` (trials-to-target under equal vs Neyman allocation
//! on the briefly-trained CNN, against the same stratified half-width
//! criterion). Both cases are gated by CI via
//! `fitact bench-gate --case`. Run with `cargo bench -- --test` for the CI
//! smoke mode: every case executes once, untimed, and the JSON is still
//! emitted (flagged as a smoke run, which the gate skips).

use criterion::{BenchmarkId, Criterion};
use fitact::{FitAct, FitActConfig};
use fitact_data::{materialize, SyntheticCifar};
use fitact_faults::{
    plan_round_allocated, quantize_network, stratified_half_width, z_for_confidence,
    AllocationPolicy, Campaign, CampaignConfig, CampaignResult, MemoryMap, StatCampaignConfig,
    StratumPool, StratumSpec, TransientBitFlip, TrialEngine, TrialOutcome, UnitRunner,
};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::models::{alexnet, ModelConfig};
use fitact_nn::optim::Sgd;
use fitact_nn::Network;
use fitact_tensor::json::JsonValue;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A small trained, quantised MLP plus its evaluation set.
fn trained_setup() -> (Network, Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0);
    let root = Sequential::new()
        .with(Box::new(Linear::new(16, 64, &mut rng)))
        .with(Box::new(ActivationLayer::relu("h", &[64])))
        .with(Box::new(Linear::new(64, 4, &mut rng)));
    let mut net = Network::new("mlp", root);
    let inputs = init::uniform(&[256, 16], -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..256)
        .map(|i| {
            let row = &inputs.as_slice()[i * 16..(i + 1) * 16];
            usize::from(row[0] > row[1]) + 2 * usize::from(row[2] > row[3])
        })
        .collect();
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
    for _ in 0..20 {
        net.train_batch(&inputs, &targets, &loss, &mut opt)
            .expect("training step");
    }
    quantize_network(&mut net);
    (net, inputs, targets)
}

/// The CNN demo: a width-scaled quantised AlexNet on synthetic CIFAR-shaped
/// inputs. Most parameters sit in the late fully-connected layers, so at
/// realistic fault rates most trials resume deep in the network.
fn cnn_demo() -> (Network, Tensor, Vec<usize>) {
    let mut net = alexnet(&ModelConfig::new(10).with_width(0.0626).with_seed(7))
        .expect("alexnet builds at tiny width");
    quantize_network(&mut net);
    let mut rng = StdRng::seed_from_u64(9);
    let inputs = init::uniform(&[64, 3, 32, 32], -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..64).map(|i| i % 10).collect();
    (net, inputs, targets)
}

/// The fixed-count configuration of the engine-comparison case: a paper-scale
/// fault rate (~1.6 expected flips per trial on the tiny AlexNet), so resume
/// depth follows the parameter-mass distribution.
fn cnn_config() -> CampaignConfig {
    CampaignConfig {
        fault_rate: 1e-6,
        trials: 32,
        batch_size: 32,
        seed: 42,
    }
}

fn run_cnn_campaign(
    net: &mut Network,
    inputs: &Tensor,
    targets: &[usize],
    engine: TrialEngine,
) -> CampaignResult {
    Campaign::new(net, inputs, targets)
        .expect("campaign builds")
        .with_engine(engine)
        .run_serial(&cnn_config())
        .expect("campaign runs")
}

fn bench_campaign(c: &mut Criterion) {
    let (mut net, inputs, targets) = trained_setup();
    let config = CampaignConfig {
        fault_rate: 1e-4,
        trials: 64,
        batch_size: 64,
        seed: 42,
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("serial", config.trials), &(), |b, ()| {
        b.iter(|| {
            Campaign::new(&mut net, &inputs, &targets)
                .expect("campaign builds")
                .run_serial(&config)
                .expect("campaign runs")
        });
    });
    group.bench_with_input(
        BenchmarkId::new(format!("parallel_x{cores}"), config.trials),
        &(),
        |b, ()| {
            b.iter(|| {
                Campaign::new(&mut net, &inputs, &targets)
                    .expect("campaign builds")
                    .run_with_threads(&config, cores)
                    .expect("campaign runs")
            });
        },
    );
    // The statistical path: stratified sampling, outcome classification and
    // Wilson-interval early stopping. The comparison against the fixed-count
    // runs above shows what adaptive stopping buys — the trial budget matches,
    // but the campaign quits as soon as the critical-SDC CI is tight.
    let stat_config = StatCampaignConfig {
        fault_rate: 1e-4,
        batch_size: 64,
        seed: 42,
        epsilon: 0.05,
        round_trials: 8,
        min_trials: 16,
        max_trials: config.trials,
        strata: StratumSpec::by_bit_class(),
        ..Default::default()
    };
    group.bench_with_input(
        BenchmarkId::new(format!("run_until_x{cores}"), config.trials),
        &(),
        |b, ()| {
            b.iter(|| {
                Campaign::new(&mut net, &inputs, &targets)
                    .expect("campaign builds")
                    .run_until_with_threads(&stat_config, &TransientBitFlip, cores)
                    .expect("campaign runs")
            });
        },
    );
    group.finish();
}

/// Full-forward vs checkpoint-resumed trial engines on the CNN demo.
fn bench_cnn_engines(c: &mut Criterion) {
    let (mut net, inputs, targets) = cnn_demo();
    let mut group = c.benchmark_group("campaign_cnn");
    group.sample_size(10);
    for (label, engine) in [
        ("full_forward", TrialEngine::FullForward),
        ("checkpoint_resumed", TrialEngine::CheckpointResumed),
    ] {
        group.bench_with_input(
            BenchmarkId::new(label, cnn_config().trials),
            &(),
            |b, ()| {
                b.iter(|| run_cnn_campaign(&mut net, &inputs, &targets, engine));
            },
        );
    }
    group.finish();
}

/// The briefly-trained CNN demo of `tests/campaign_statistics.rs`: the
/// adaptive-allocation case needs a model whose fault-free accuracy is well
/// above chance, so exponent-bit flips actually produce critical SDC and the
/// per-stratum variances differ — the regime Neyman allocation exploits. (The
/// untrained `cnn_demo` sits at chance accuracy, where nothing can drop far
/// enough to classify as critical and every stratum looks alike.)
fn trained_cnn_demo() -> (Network, Tensor, Vec<usize>) {
    let train = SyntheticCifar::train(10, 160, 33);
    let test = SyntheticCifar::test(10, 80, 33);
    let (train_x, train_y) = materialize(&train).expect("train split materialises");
    let (test_x, test_y) = materialize(&test).expect("test split materialises");
    let mut net = alexnet(
        &ModelConfig::new(10)
            .with_width(0.0626)
            .with_seed(7)
            .with_dropout(0.1),
    )
    .expect("alexnet builds at tiny width");
    let fitact = FitAct::new(FitActConfig {
        batch_size: 20,
        ..Default::default()
    });
    fitact
        .train_for_accuracy(&mut net, &train_x, &train_y, 4, 0.05)
        .expect("brief training converges");
    quantize_network(&mut net);
    (net, test_x, test_y)
}

/// The statistical campaign shape of the adaptive-allocation case: a fault
/// rate lopsided enough that variance concentrates in the exponent stratum —
/// ~0.5 expected flips per trial, mostly masked with a visible critical
/// minority.
fn adaptive_config(smoke: bool, words: usize) -> StatCampaignConfig {
    StatCampaignConfig {
        fault_rate: 0.5 / (words as f64 * 15.0),
        batch_size: 40,
        seed: 2024,
        epsilon: if smoke { 0.12 } else { 0.03 },
        confidence: 0.95,
        critical_threshold: 0.1,
        round_trials: if smoke { 12 } else { 4 },
        min_trials: if smoke { 24 } else { 12 },
        max_trials: if smoke { 72 } else { 3000 },
        strata: StratumSpec::by_bit_class(),
        ..Default::default()
    }
}

/// Runs the CNN demo campaign round by round under `policy` until the
/// **stratified** critical-SDC half-width reaches the ε target, and returns
/// the trials spent. Both policies are driven against the same metric — the
/// one Neyman allocation minimises — so the comparison isolates what the
/// allocation itself buys.
fn trials_to_stratified_target(
    policy: AllocationPolicy,
    base: &StatCampaignConfig,
    net: &Network,
    inputs: &Tensor,
    targets: &[usize],
) -> usize {
    let config = StatCampaignConfig {
        allocation: policy,
        ..base.clone()
    };
    let mut runner = UnitRunner::new(net.clone(), inputs.clone(), targets.to_vec(), &config, 1)
        .expect("runner builds");
    let z = z_for_confidence(config.confidence);
    let fault_free = runner.fault_free_accuracy();
    let sampler = runner.sampler().clone();
    let num_strata = sampler.num_strata();
    let populations: Vec<u64> = (0..num_strata).map(|s| sampler.population(s)).collect();
    let total_pop: u64 = populations.iter().sum();
    let weights: Vec<f64> = populations
        .iter()
        .map(|&p| p as f64 / total_pop as f64)
        .collect();
    let mut pools = vec![StratumPool::new(); num_strata];
    let mut counts = vec![0usize; num_strata];
    loop {
        let specs = plan_round_allocated(&config, z, fault_free, &populations, &pools, &counts);
        if specs.is_empty() {
            break;
        }
        let mut per_stratum = vec![0usize; num_strata];
        for spec in &specs {
            per_stratum[spec.stratum] += 1;
        }
        for (stratum, &n) in per_stratum.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let points = runner
                .run_unit(&TransientBitFlip, stratum, counts[stratum], n)
                .expect("unit runs");
            for (offset, point) in points.into_iter().enumerate() {
                pools[stratum]
                    .insert((counts[stratum] + offset) as u64, point)
                    .expect("fresh index");
            }
            counts[stratum] += n;
        }
        let evidence: Vec<(u64, u64)> = pools
            .iter()
            .zip(&counts)
            .map(|(pool, &count)| {
                let mut critical = 0u64;
                let mut trials = 0u64;
                for (_, point) in pool.iter_below(count as u64) {
                    trials += 1;
                    if TrialOutcome::classify(fault_free, point.accuracy, config.critical_threshold)
                        == TrialOutcome::CriticalSdc
                    {
                        critical += 1;
                    }
                }
                (critical, trials)
            })
            .collect();
        let total: usize = counts.iter().sum();
        let half_width = stratified_half_width(z, &evidence, &weights);
        if (total >= config.min_trials && half_width <= config.epsilon)
            || total >= config.max_trials
        {
            break;
        }
    }
    counts.iter().sum()
}

/// The adaptive-allocation case: trials-to-target under equal vs Neyman
/// allocation, plus thread-count bit-identity of the Neyman engine itself.
/// `speedup` is the trial-budget ratio `equal / neyman` — ≥ 1.333 means the
/// adaptive policy reached the same stratified CI target in ≥25% fewer
/// trials.
fn adaptive_case(smoke: bool) -> (usize, usize, f64, bool) {
    let (net, inputs, targets) = trained_cnn_demo();
    let words = MemoryMap::of_network(&net).total_words() as usize;
    let config = adaptive_config(smoke, words);
    let equal_trials =
        trials_to_stratified_target(AllocationPolicy::Equal, &config, &net, &inputs, &targets);
    let neyman_trials =
        trials_to_stratified_target(AllocationPolicy::Neyman, &config, &net, &inputs, &targets);
    let speedup = equal_trials as f64 / neyman_trials.max(1) as f64;

    // Bit-identity of the adaptive engine across worker counts (serial vs
    // 2 and 4 threads), through the real `run_until` path.
    let neyman_run = |threads: usize| {
        let mut net = net.clone();
        Campaign::new(&mut net, &inputs, &targets)
            .expect("campaign builds")
            .run_until_with_threads(
                &StatCampaignConfig {
                    allocation: AllocationPolicy::Neyman,
                    ..config.clone()
                },
                &TransientBitFlip,
                threads,
            )
            .expect("campaign runs")
    };
    let serial = neyman_run(1);
    let bit_identical = [2, 4].iter().all(|&threads| neyman_run(threads) == serial);
    (equal_trials, neyman_trials, speedup, bit_identical)
}

/// The median and interquartile range of one leg's wall times (quantiles
/// interpolate linearly between order statistics).
fn median_and_iqr(seconds: &mut [f64]) -> (f64, f64) {
    seconds.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let quantile = |p: f64| {
        let pos = p * (seconds.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        seconds[lo] + (seconds[hi] - seconds[lo]) * (pos - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// Times serial CNN campaigns under both engines (median of `reps` per
/// engine, the repetitions interleaved full, resumed, full, … so host drift
/// hits both legs alike), checks trial bit-identity, measures the
/// adaptive-allocation trial savings, and writes the multi-case comparison
/// to `BENCH_campaign.json` at the workspace root (cases
/// `campaign_throughput` and `campaign_adaptive`, gated separately by
/// `fitact bench-gate --case`). Each leg's interquartile range is written
/// as its `spread`, so a gate margin can be read against the noise.
fn emit_campaign_json(smoke: bool) {
    let (mut net, inputs, targets) = cnn_demo();
    let reps = if smoke { 1 } else { 5 };
    let mut full_times = Vec::with_capacity(reps);
    let mut resumed_times = Vec::with_capacity(reps);
    let mut results = None;
    for _ in 0..reps {
        let mut timed = |engine: TrialEngine, times: &mut Vec<f64>| {
            let start = Instant::now();
            let result = run_cnn_campaign(&mut net, &inputs, &targets, engine);
            times.push(start.elapsed().as_secs_f64());
            result
        };
        let full = timed(TrialEngine::FullForward, &mut full_times);
        let resumed = timed(TrialEngine::CheckpointResumed, &mut resumed_times);
        results = Some((full, resumed));
    }
    let (full_result, resumed_result) = results.expect("reps >= 1");
    let (full_seconds, full_spread) = median_and_iqr(&mut full_times);
    let (resumed_seconds, resumed_spread) = median_and_iqr(&mut resumed_times);
    let bit_identical = full_result.accuracies == resumed_result.accuracies
        && full_result.fault_free_accuracy == resumed_result.fault_free_accuracy
        && full_result.total_faults == resumed_result.total_faults;
    assert!(
        bit_identical,
        "engine comparison must be bit-identical before its timing means anything"
    );
    let config = cnn_config();
    let speedup = full_seconds / resumed_seconds.max(1e-12);

    let (equal_trials, neyman_trials, trial_speedup, neyman_identical) = adaptive_case(smoke);

    let json = JsonValue::object([
        ("bench", "campaign_throughput".into()),
        ("network", "alexnet-tiny (CNN demo)".into()),
        ("smoke", smoke.into()),
        (
            "campaign_throughput",
            JsonValue::object([
                ("case", "full_forward_vs_checkpoint_resumed".into()),
                ("eval_samples", targets.len().into()),
                ("trials", config.trials.into()),
                ("fault_rate", config.fault_rate.into()),
                ("full_forward_seconds", full_seconds.into()),
                ("checkpoint_resumed_seconds", resumed_seconds.into()),
                ("speedup", speedup.into()),
                ("bit_identical", bit_identical.into()),
                ("samples", reps.into()),
                (
                    "spread",
                    JsonValue::object([
                        ("full_forward_seconds", full_spread.into()),
                        ("checkpoint_resumed_seconds", resumed_spread.into()),
                    ]),
                ),
            ]),
        ),
        (
            "campaign_adaptive",
            JsonValue::object([
                ("case", "equal_vs_neyman_trials_to_target".into()),
                ("equal_trials", equal_trials.into()),
                ("neyman_trials", neyman_trials.into()),
                ("speedup", trial_speedup.into()),
                ("bit_identical", neyman_identical.into()),
            ]),
        ),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_campaign.json");
    std::fs::write(&path, format!("{json}\n")).expect("BENCH_campaign.json is writable");
    println!(
        "campaign_cnn engines: full {full_seconds:.3}s vs resumed {resumed_seconds:.3}s \
         ({speedup:.2}x); adaptive: {equal_trials} equal vs {neyman_trials} neyman trials \
         ({trial_speedup:.2}x) -> {}",
        path.display()
    );
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--test");
    let mut criterion = Criterion::default();
    bench_campaign(&mut criterion);
    bench_cnn_engines(&mut criterion);
    emit_campaign_json(smoke);
}
