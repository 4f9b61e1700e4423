//! The campaign phase: statistical bit-flip sweeps on the protected AlexNet.
//!
//! The untraced sweep is one `fitact::assess_resilience` call. The traced
//! sweep replays the same campaign through `UnitRunner` and the pure
//! `plan_round_allocated` / `stopping_decision` / `assemble_report`
//! functions, with a span around each call; its report must be bit-identical
//! to the untraced one.

use crate::trace::Tracer;
use crate::Error;
use fitact_faults::{
    assemble_report, plan_round_allocated, quantize_network, stopping_decision, z_for_confidence,
    Campaign, CampaignReport, FaultModel, StatCampaignConfig, StratumPool, TransientBitFlip,
    UnitRunner,
};
use fitact_nn::Network;
use fitact_tensor::Tensor;
use std::time::Instant;

/// The two fault rates of the sweep, as in the paper's figures, with each
/// sweep's trial minimum. At `sparse` most trials inject zero faults or one
/// and reuse the checkpoint cache's clean result. At `dense` tens of faults
/// per trial re-run the network from an early layer.
pub const RATES: [(&str, f64, usize); 2] = [("sparse", 1e-6, 288), ("dense", 1e-4, 192)];

/// The sweep's configuration at one fault rate: equal allocation in rounds
/// of 32 trials per stratum, stopped by the Wilson ε rule. The pooled
/// half-width is at most 0.5·z/√192 ≈ 0.071 after 192 trials whatever the
/// critical-SDC rate, so ε = 0.1 stops every sweep exactly at its trial
/// minimum: each run does the same work.
pub fn config(
    fault_rate: f64,
    min_trials: usize,
    seed: u64,
    batch_size: usize,
) -> StatCampaignConfig {
    StatCampaignConfig {
        fault_rate,
        batch_size,
        seed,
        epsilon: 0.1,
        round_trials: 32,
        min_trials,
        max_trials: min_trials.max(StatCampaignConfig::default().max_trials),
        ..StatCampaignConfig::default()
    }
}

/// A report rendered so that two reports compare equal exactly when every
/// field agrees bit for bit (`{:?}` prints each float's shortest
/// round-tripping form, which is unique per bit pattern for non-NaN values).
pub fn fingerprint(report: &CampaignReport) -> String {
    format!("{report:?}")
}

/// One untraced sweep: `assess_resilience` on a fresh copy of `network`.
/// Returns the report and the call's wall time in seconds.
pub fn untraced(
    network: &Network,
    x: &Tensor,
    y: &[usize],
    config: &StatCampaignConfig,
) -> Result<(CampaignReport, f64), Error> {
    let mut net = network.clone();
    let start = Instant::now();
    let report = fitact::assess_resilience(&mut net, x, y, config, &TransientBitFlip)?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// Per-trial facts the traced sweep observes that the report does not keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialCounts {
    /// `run_unit` calls: one per stratum per round.
    pub units: usize,
    pub trials: usize,
    pub zero_fault_trials: usize,
    pub faults: u64,
}

/// One traced sweep with `threads` workers. Span names: `faults.campaign`
/// around the whole sweep, `faults.runner_setup`, `faults.trials` (one per
/// work unit, i.e. per stratum and round) and `faults.control`.
pub fn traced(
    network: &Network,
    x: &Tensor,
    y: &[usize],
    config: &StatCampaignConfig,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<(CampaignReport, TrialCounts), Error> {
    let model = TransientBitFlip;
    let mut net = network.clone();
    let campaign = tracer.enter("faults.campaign");
    // `assess_resilience` quantizes the network to the fault grid first.
    quantize_network(&mut net);
    let mut runner = tracer.span("faults.runner_setup", || {
        UnitRunner::new(net, x.clone(), y.to_vec(), config, threads)
    })?;
    let z = z_for_confidence(config.confidence);
    let fault_free = runner.fault_free_accuracy();
    let strata = runner.num_strata();
    let populations: Vec<u64> = (0..strata)
        .map(|s| runner.sampler().population(s))
        .collect();
    let mut pools = vec![StratumPool::new(); strata];
    let mut counts = vec![0usize; strata];
    let mut rounds = 0usize;
    let mut converged = false;
    let mut trial_counts = TrialCounts {
        units: 0,
        trials: 0,
        zero_fault_trials: 0,
        faults: 0,
    };
    loop {
        let specs = tracer.span("faults.control", || {
            plan_round_allocated(config, z, fault_free, &populations, &pools, &counts)
        });
        if specs.is_empty() {
            break;
        }
        // A round gives each stratum a contiguous range of trial indices.
        let mut per_stratum = vec![0usize; strata];
        for spec in &specs {
            per_stratum[spec.stratum] += 1;
        }
        for (stratum, &count) in per_stratum.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let start = counts[stratum];
            let points = tracer.span("faults.trials", || {
                runner.run_unit(&model, stratum, start, count)
            })?;
            trial_counts.units += 1;
            for (offset, point) in points.into_iter().enumerate() {
                trial_counts.trials += 1;
                trial_counts.faults += point.faults;
                trial_counts.zero_fault_trials += usize::from(point.faults == 0);
                pools[stratum].insert((start + offset) as u64, point)?;
            }
            counts[stratum] += count;
        }
        rounds += 1;
        let decision = tracer.span("faults.control", || {
            stopping_decision(config, z, fault_free, &populations, &pools, &counts)
        });
        if decision.converged {
            converged = true;
            break;
        }
        if decision.exhausted {
            break;
        }
    }
    let report = tracer.span("faults.control", || {
        assemble_report(
            config,
            model.name(),
            fault_free,
            runner.sampler(),
            &pools,
            rounds,
            converged,
        )
    });
    tracer.exit(campaign);
    Ok((report, trial_counts))
}

/// Whether a one-round campaign (eight trials per stratum) reports
/// bit-identically on one thread and on `threads` threads.
pub fn thread_count_invariant(
    network: &Network,
    x: &Tensor,
    y: &[usize],
    config: &StatCampaignConfig,
    threads: usize,
) -> Result<bool, Error> {
    let one_round = StatCampaignConfig {
        round_trials: 8,
        min_trials: 8,
        max_trials: 8 * config.strata.len(),
        ..config.clone()
    };
    let run = |t: usize| -> Result<String, Error> {
        let mut net = network.clone();
        quantize_network(&mut net);
        let report = Campaign::new(&mut net, x, y)?.run_until_with_threads(
            &one_round,
            &TransientBitFlip,
            t,
        )?;
        Ok(fingerprint(&report))
    };
    Ok(run(1)? == run(threads)?)
}
