//! The run's set-up: data, the protected AlexNet shared by the campaign and
//! serving phases, its f16 artifact, a running server and the request rows
//! with their expected outputs.

use crate::inputs::{Inputs, Split, ALEXNET_SEED, ALEXNET_TRAIN, WIDTH};
use crate::trace::Tracer;
use crate::Error;
use fitact::activations::DEFAULT_SLOPE;
use fitact::{
    apply_protection, ActivationProfile, ActivationProfiler, FitAct, FitActConfig, ProtectionScheme,
};
use fitact_data::DataSpec;
use fitact_io::{MappedArtifact, ModelArtifact};
use fitact_nn::models::{alexnet, ModelConfig};
use fitact_nn::{Mode, Network};
use fitact_serve::{ServeConfig, Server};
use fitact_tensor::{Precision, Tensor};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Batch size of the AlexNet's training and calibration.
const BATCH: usize = 32;

/// One `/predict` request and the output it must produce.
#[derive(Debug, Clone)]
pub struct RequestRow {
    /// The complete HTTP/1.1 request.
    pub request: Vec<u8>,
    /// `Network::forward` of the parsed row on the mapped f16 artifact.
    pub expected: Vec<f32>,
}

/// Everything the measured phases start from.
#[derive(Debug)]
pub struct Prepared {
    /// The trained AlexNet with plain ReLU activations.
    pub base: Network,
    pub profile: ActivationProfile,
    /// The FitAct-protected f32 AlexNet the campaigns run on.
    pub protected: Network,
    pub eval_x: Tensor,
    pub eval_y: Vec<usize>,
    pub pipeline_x: Tensor,
    pub pipeline_y: Vec<usize>,
    /// The f16 network instantiated from the mapped artifact.
    pub mapped: Network,
    pub artifact_path: PathBuf,
    pub artifact_bytes: u64,
    pub server: Server,
    pub rows: Vec<RequestRow>,
}

/// Runs the whole set-up once, recording spans into `tracer`.
pub fn prepare(
    inputs: &Inputs,
    dir: &Path,
    rep: usize,
    tracer: &mut Tracer,
) -> Result<Prepared, Error> {
    let data = tracer.enter("data.materialize");
    let (train_x, train_y) = inputs.split(Split::AlexNetTrain)?;
    let (eval_x, eval_y) = inputs.split(Split::Eval)?;
    let (pipeline_x, pipeline_y) = inputs.split(Split::PipelineTrain)?;
    tracer.exit(data);

    let classes = inputs.workload.classes();
    let mut base = alexnet(
        &ModelConfig::new(classes)
            .with_width(WIDTH)
            .with_seed(ALEXNET_SEED),
    )?;
    let fitact = FitAct::new(FitActConfig {
        batch_size: BATCH,
        seed: ALEXNET_SEED,
        ..FitActConfig::default()
    });
    tracer.span("setup.train", || {
        fitact.train_for_accuracy(&mut base, &train_x, &train_y, 1, 0.05)
    })?;
    let profile = tracer.span("setup.calibrate", || {
        ActivationProfiler::new(BATCH)?.profile(&mut base, &train_x)
    })?;
    let scheme = ProtectionScheme::FitAct {
        slope: DEFAULT_SLOPE,
    };
    let mut protected = base.clone();
    apply_protection(&mut protected, &profile, scheme)?;

    let mut f16 = protected.clone();
    f16.quantize_to(Precision::F16);
    let artifact_path = dir.join(format!(
        "{}-{}-{rep}.fitact",
        inputs.workload.name(),
        inputs.seed
    ));
    tracer.span("io.artifact_save", || {
        let mut artifact = ModelArtifact::capture_protected(&f16, Some(&profile), Some(scheme))?;
        // The dataset record tells the server the input shape.
        for (key, value) in
            DataSpec::synthetic_cifar(classes, ALEXNET_TRAIN, ALEXNET_SEED).to_meta()
        {
            artifact.set_meta(key, value);
        }
        artifact.save(&artifact_path)
    })?;
    let artifact_bytes = std::fs::metadata(&artifact_path)?.len();
    let mut mapped = tracer.span("io.mapped_instantiate", || {
        MappedArtifact::open(&artifact_path)?.instantiate()
    })?;
    if mapped.precision() != Precision::F16 {
        return Err(format!("artifact serves {:?}, not f16", mapped.precision()).into());
    }

    let server = tracer.span("serve.start", || {
        Server::start(&artifact_path, &ServeConfig::default())
    })?;
    let rows = request_rows(&mut mapped, &eval_x)?;
    Ok(Prepared {
        base,
        profile,
        protected,
        eval_x,
        eval_y,
        pipeline_x,
        pipeline_y,
        mapped,
        artifact_path,
        artifact_bytes,
        server,
        rows,
    })
}

/// Encodes every evaluation row as a single-row `/predict` request, with
/// each pixel written to three decimals as an edge client would send it,
/// and computes the expected logits from the row exactly as the server
/// parses it (JSON number → f64 → f32).
fn request_rows(mapped: &mut Network, eval_x: &Tensor) -> Result<Vec<RequestRow>, Error> {
    let samples = eval_x.dims()[0];
    let features = eval_x.as_slice().len() / samples;
    let mut shape = eval_x.dims().to_vec();
    shape[0] = 1;
    eval_x
        .as_slice()
        .chunks_exact(features)
        .map(|row| {
            let mut body = String::from("{\"input\":[");
            let mut parsed = Vec::with_capacity(features);
            for (i, v) in row.iter().enumerate() {
                let text = format!("{v:.3}");
                parsed.push(text.parse::<f64>().map_err(|e| e.to_string())? as f32);
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&text);
            }
            body.push_str("]}");
            let request = format!(
                "POST /predict HTTP/1.1\r\nHost: fitbench\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            let expected = mapped
                .forward(&Tensor::from_vec(parsed, &shape)?, Mode::Eval)?
                .as_slice()
                .to_vec();
            Ok(RequestRow { request, expected })
        })
        .collect()
}

/// Times `reps` complete set-ups and keeps the last; the others' servers
/// are shut down. Returns the kept set-up, every set-up's seconds, and
/// whether all repetitions wrote byte-identical artifacts.
pub fn prepare_repeated(
    inputs: &Inputs,
    dir: &Path,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<(Prepared, Vec<f64>, bool), Error> {
    let mut seconds = Vec::with_capacity(reps);
    let mut artifacts: Vec<Vec<u8>> = Vec::with_capacity(reps);
    let mut kept: Option<Prepared> = None;
    for rep in 0..reps {
        let span = tracer.enter("setup");
        let start = Instant::now();
        let prepared = prepare(inputs, dir, rep, tracer)?;
        seconds.push(start.elapsed().as_secs_f64());
        tracer.exit(span);
        artifacts.push(std::fs::read(&prepared.artifact_path)?);
        if let Some(old) = kept.replace(prepared) {
            old.server.shutdown();
            old.server.join();
            std::fs::remove_file(&old.artifact_path)?;
        }
    }
    let identical = artifacts.windows(2).all(|w| w[0] == w[1]);
    Ok((kept.expect("at least one set-up"), seconds, identical))
}
