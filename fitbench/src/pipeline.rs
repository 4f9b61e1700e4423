//! The pipeline phase: the FitAct workflow on ResNet50, stage by stage —
//! `train_for_accuracy` → `ActivationProfiler::profile` →
//! `apply_protection(FitAct)` → `FitAct::post_train` → `ModelArtifact::save`.

use crate::inputs::{Inputs, WIDTH};
use crate::trace::Tracer;
use crate::Error;
use fitact::activations::DEFAULT_SLOPE;
use fitact::{apply_protection, ActivationProfiler, FitAct, FitActConfig, ProtectionScheme};
use fitact_io::ModelArtifact;
use fitact_nn::models::{resnet50, ModelConfig};
use fitact_tensor::Tensor;
use std::path::Path;
use std::time::Instant;

pub const BATCH: usize = 32;
/// Training epochs, each its own timed `train_for_accuracy` call.
pub const TRAIN_EPOCHS: usize = 2;
pub const POST_TRAIN_EPOCHS: usize = 1;
pub const CALIBRATE_REPS: usize = 2;

/// Stage times and the stage reports, with durations left out so that two
/// runs of the same seed compare equal exactly when their results do.
#[derive(Debug, Clone)]
pub struct Stages {
    /// Seconds of each training epoch.
    pub train_s: Vec<f64>,
    /// Seconds of each calibration repetition.
    pub calibrate_s: Vec<f64>,
    pub posttrain_s: f64,
    pub post_train_epochs: usize,
    pub constraint_satisfied: bool,
    /// Every calibration repetition profiled the same maxima.
    pub calibrations_agree: bool,
    /// Debug renderings of the training report, the profile and the
    /// post-training report (durations zeroed).
    pub fingerprint: String,
}

pub fn run(
    inputs: &Inputs,
    x: &Tensor,
    y: &[usize],
    artifact: &Path,
    tracer: &mut Tracer,
) -> Result<Stages, Error> {
    let mut net = resnet50(
        &ModelConfig::new(inputs.workload.classes())
            .with_width(WIDTH)
            .with_seed(inputs.model),
    )?;
    let fitact = FitAct::new(FitActConfig {
        post_train_epochs: POST_TRAIN_EPOCHS,
        batch_size: BATCH,
        seed: inputs.shuffle,
        ..FitActConfig::default()
    });
    let timed = |tracer: &mut Tracer, name: &str, f: &mut dyn FnMut() -> Result<String, Error>| {
        let span = tracer.enter(name);
        let start = Instant::now();
        let result = f();
        let seconds = start.elapsed().as_secs_f64();
        tracer.exit(span);
        result.map(|fp| (seconds, fp))
    };
    // One call per epoch, so that each epoch is a sample of `train_s`.
    let mut train_s = Vec::with_capacity(TRAIN_EPOCHS);
    let mut train_fp = String::new();
    for _ in 0..TRAIN_EPOCHS {
        let (seconds, fp) = timed(tracer, "core.train_for_accuracy", &mut || {
            let mut report = fitact.train_for_accuracy(&mut net, x, y, 1, 0.05)?;
            report.duration = Default::default();
            Ok(format!("{report:?}"))
        })?;
        train_s.push(seconds);
        train_fp.push_str(&fp);
    }
    // Calibration leaves the parameters untouched, so it repeats on the
    // same network: every repetition is a sample of `calibrate_s` and must
    // profile the same maxima.
    let mut profile = None;
    let mut calibrate_s = Vec::with_capacity(CALIBRATE_REPS);
    let mut profile_fp = String::new();
    let mut calibrations_agree = true;
    for _ in 0..CALIBRATE_REPS {
        let (seconds, fp) = timed(tracer, "core.calibrate", &mut || {
            let p = ActivationProfiler::new(BATCH)?.profile(&mut net, x)?;
            let fp = format!("{p:?}");
            profile = Some(p);
            Ok(fp)
        })?;
        calibrations_agree &= profile_fp.is_empty() || fp == profile_fp;
        profile_fp = fp;
        calibrate_s.push(seconds);
    }
    let profile = profile.expect("calibration ran");
    let scheme = ProtectionScheme::FitAct {
        slope: DEFAULT_SLOPE,
    };
    tracer.span("core.apply_protection", || {
        apply_protection(&mut net, &profile, scheme)
    })?;
    let mut post = None;
    let (posttrain_s, post_fp) = timed(tracer, "core.post_train", &mut || {
        let mut report = fitact.post_train(&mut net, x, y)?;
        report.duration = Default::default();
        let fp = format!("{report:?}");
        post = Some(report);
        Ok(fp)
    })?;
    let post = post.expect("post-training ran");
    tracer.span("pipeline.artifact_save", || {
        ModelArtifact::capture_protected(&net, Some(&profile), Some(scheme))?.save(artifact)
    })?;
    Ok(Stages {
        train_s,
        calibrate_s,
        posttrain_s,
        post_train_epochs: post.epochs_run,
        constraint_satisfied: post.constraint_satisfied,
        calibrations_agree,
        fingerprint: format!("{train_fp}\n{profile_fp}\n{post_fp}"),
    })
}
