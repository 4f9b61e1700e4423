//! Per-layer measurements of the traced run, each timed from outside
//! through the crates' public API.

use crate::trace::Tracer;
use crate::Error;
use fitact::{apply_protection, ActivationProfile, ProtectionScheme};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::optim::{Optimizer, Sgd};
use fitact_nn::{Mode, Network};
use fitact_tensor::half::encode_f16_slice;
use fitact_tensor::matmul::{matmul_into, serial_scope, Layout};
use fitact_tensor::{simd, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// The layer families the `nn.*` metrics group top-level layers into.
pub const KINDS: [&str; 6] = ["conv", "linear", "pool", "norm", "residual", "activation"];

/// The family of a top-level layer, from its `Layer::name`.
pub fn kind_of(layer_name: &str) -> &'static str {
    let prefixes = [
        ("conv2d", "conv"),
        ("linear", "linear"),
        ("maxpool2d", "pool"),
        ("global_avg_pool", "pool"),
        ("batchnorm2d", "norm"),
        ("bottleneck", "residual"),
        ("act[", "activation"),
    ];
    prefixes
        .iter()
        .find(|(prefix, _)| layer_name.starts_with(prefix))
        .map_or("other", |(_, kind)| kind)
}

/// The first `batch` rows of `x`.
pub fn rows(x: &Tensor, batch: usize) -> Result<Tensor, Error> {
    let mut out = Tensor::default();
    fitact_nn::copy_batch_into(x, 0, batch, &mut out)?;
    Ok(out)
}

/// One top-level layer seen during a forward pass.
#[derive(Debug, Clone)]
pub struct LayerShape {
    pub name: String,
    pub input: Vec<usize>,
    pub output: Vec<usize>,
}

/// Forwards `input` layer by layer through `Sequential::layers_mut()`,
/// `reps` times after one warm-up pass, with a span per layer named
/// `nn.<kind>.forward.b<batch>` under a `nn.forward.b<batch>` span. Returns
/// each layer's shapes.
pub fn walk(
    net: &mut Network,
    input: &Tensor,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<Vec<LayerShape>, Error> {
    let batch = input.dims()[0];
    let mut shapes = Vec::new();
    for rep in 0..=reps {
        let whole = (rep > 0).then(|| tracer.enter(&format!("nn.forward.b{batch}")));
        let mut x = input.clone();
        for layer in net.root_mut().layers_mut() {
            let name = layer.name();
            let span =
                (rep > 0).then(|| tracer.enter(&format!("nn.{}.forward.b{batch}", kind_of(&name))));
            let y = layer.forward(&x, Mode::Eval)?;
            if let Some(span) = span {
                tracer.exit(span);
            }
            if rep == 0 {
                shapes.push(LayerShape {
                    name,
                    input: x.dims().to_vec(),
                    output: y.dims().to_vec(),
                });
            }
            x = y;
        }
        if let Some(whole) = whole {
            tracer.exit(whole);
        }
    }
    Ok(shapes)
}

/// A GEMM `C[m,n] = A[m,k]·B` in the layout the layer issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    pub layout: Layout,
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

/// The f32 GEMMs a forward pass issues, per sample for convolutions
/// (`W[oc, c·kh·kw] · cols[c·kh·kw, oh·ow]`) and per batch for `Linear`
/// (`x[b, in] · W[out, in]ᵀ`).
pub fn gemms(shapes: &[LayerShape]) -> Vec<Gemm> {
    shapes
        .iter()
        .filter_map(|s| match kind_of(&s.name) {
            "conv" => {
                let kernel: usize = s
                    .name
                    .split(", k")
                    .nth(1)?
                    .split(',')
                    .next()?
                    .parse()
                    .ok()?;
                Some(Gemm {
                    layout: Layout::Nn,
                    m: s.output[1],
                    k: s.input[1] * kernel * kernel,
                    n: s.output[2] * s.output[3],
                })
            }
            "linear" => Some(Gemm {
                layout: Layout::Nt,
                m: s.input[0],
                k: s.input[1],
                n: s.output[1],
            }),
            _ => None,
        })
        .collect()
}

/// FLOPs and seconds of `reps` timed runs of every f32 GEMM, single
/// threaded (the probe's peak is a single-core figure).
pub fn gemm_f32(shapes: &[Gemm], reps: usize, tracer: &mut Tracer) -> (f64, f64) {
    serial_scope(|| {
        let mut flops = 0.0;
        let mut seconds = 0.0;
        for g in shapes {
            let a = vec![0.5f32; g.m * g.k];
            let b = vec![0.25f32; g.k * g.n];
            let mut c = vec![0.0f32; g.m * g.n];
            let mut run = || {
                matmul_into(
                    g.layout,
                    black_box(&a),
                    black_box(&b),
                    &mut c,
                    g.m,
                    g.k,
                    g.n,
                    false,
                )
            };
            run();
            let span = tracer.enter("tensor.gemm_f32");
            let start = Instant::now();
            for _ in 0..reps {
                run();
            }
            seconds += start.elapsed().as_secs_f64();
            tracer.exit(span);
            black_box(&c);
            flops += (2 * g.m * g.k * g.n * reps) as f64;
        }
        (flops, seconds)
    })
}

/// FLOPs and seconds of `reps` timed runs of `simd::matmul_f16` at every
/// layer's `(k, n)` with 1 and 8 rows — the serving batch sizes.
pub fn gemm_f16(shapes: &[Gemm], reps: usize, tracer: &mut Tracer) -> (f64, f64) {
    serial_scope(|| {
        let mut flops = 0.0;
        let mut seconds = 0.0;
        for g in shapes {
            let w = encode_f16_slice(&vec![0.125f32; g.n * g.k]);
            for m in [1usize, 8] {
                let x = vec![0.5f32; m * g.k];
                let mut out = vec![0.0f32; m * g.n];
                let mut run =
                    || simd::matmul_f16(black_box(&x), black_box(&w), None, &mut out, m, g.k, g.n);
                run();
                let span = tracer.enter("tensor.gemm_f16");
                let start = Instant::now();
                for _ in 0..reps {
                    run();
                }
                seconds += start.elapsed().as_secs_f64();
                tracer.exit(span);
                black_box(&out);
                flops += (2 * m * g.k * g.n * reps) as f64;
            }
        }
        (flops, seconds)
    })
}

/// Median forward time, ms, of `net` on `input` over `reps` passes.
pub fn forward_ms(net: &mut Network, input: &Tensor, reps: usize) -> Result<f64, Error> {
    net.forward(input, Mode::Eval)?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        black_box(net.forward(input, Mode::Eval)?);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::Summary::of(&times)
        .map(|s| s.median)
        .ok_or_else(|| "no forward timings".into())
}

/// Forward-time overhead, percent, of each protection scheme over plain
/// ReLU on `base` at batch 1 — the paper's Table I. The schemes take turns
/// within every round so drift affects them alike.
pub fn protection_overheads(
    base: &Network,
    profile: &ActivationProfile,
    input: &Tensor,
    rounds: usize,
) -> Result<Vec<(&'static str, f64)>, Error> {
    let schemes = [
        ("relu", ProtectionScheme::Unprotected),
        (
            "fitact",
            ProtectionScheme::FitAct {
                slope: fitact::activations::DEFAULT_SLOPE,
            },
        ),
        ("clipact", ProtectionScheme::ClipAct),
        ("ranger", ProtectionScheme::Ranger),
    ];
    let mut nets = Vec::with_capacity(schemes.len());
    for (_, scheme) in schemes {
        let mut net = base.clone();
        if scheme != ProtectionScheme::Unprotected {
            apply_protection(&mut net, profile, scheme)?;
        }
        nets.push(net);
    }
    let mut times = vec![Vec::with_capacity(rounds); schemes.len()];
    for _ in 0..rounds {
        for (net, t) in nets.iter_mut().zip(times.iter_mut()) {
            t.push(forward_ms(net, input, 5)?);
        }
    }
    let median = |t: &[f64]| crate::stats::Summary::of(t).map_or(f64::NAN, |s| s.median);
    let relu = median(&times[0]);
    Ok(schemes[1..]
        .iter()
        .zip(&times[1..])
        .map(|((name, _), t)| (*name, (median(t) / relu - 1.0) * 100.0))
        .collect())
}

/// `reps` training steps split into spans: `nn.train_forward`,
/// `nn.backward` and `nn.sgd_step`.
pub fn train_steps(
    net: &mut Network,
    x: &Tensor,
    y: &[usize],
    reps: usize,
    tracer: &mut Tracer,
) -> Result<(), Error> {
    let loss = CrossEntropyLoss::new();
    let mut optimizer = Sgd::with_momentum(0.05, 0.9, 5e-4);
    for _ in 0..reps {
        net.zero_grad();
        let logits = tracer.span("nn.train_forward", || net.forward(x, Mode::Train))?;
        let (_, grad) = loss.forward(&logits, y)?;
        tracer.span("nn.backward", || net.backward(&grad))?;
        tracer.span("nn.sgd_step", || optimizer.step(&mut net.params_mut()));
    }
    net.zero_grad();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_map_to_kinds() {
        assert_eq!(kind_of("conv2d(3→4, k3, s1, p1)"), "conv");
        assert_eq!(kind_of("linear(256→64)"), "linear");
        assert_eq!(kind_of("maxpool2d(k2, s2)"), "pool");
        assert_eq!(kind_of("global_avg_pool"), "pool");
        assert_eq!(kind_of("batchnorm2d(4)"), "norm");
        assert_eq!(kind_of("bottleneck(projection=true)"), "residual");
        assert_eq!(kind_of("act[features.0](fitrelu)"), "activation");
        assert_eq!(kind_of("flatten"), "other");
    }

    #[test]
    fn gemm_shapes_follow_the_layers() {
        let shapes = vec![
            LayerShape {
                name: "conv2d(3→4, k3, s1, p1)".into(),
                input: vec![2, 3, 32, 32],
                output: vec![2, 4, 32, 32],
            },
            LayerShape {
                name: "act[x](relu)".into(),
                input: vec![2, 4, 32, 32],
                output: vec![2, 4, 32, 32],
            },
            LayerShape {
                name: "linear(256→64)".into(),
                input: vec![2, 256],
                output: vec![2, 64],
            },
        ];
        assert_eq!(
            gemms(&shapes),
            vec![
                Gemm {
                    layout: Layout::Nn,
                    m: 4,
                    k: 27,
                    n: 1024
                },
                Gemm {
                    layout: Layout::Nt,
                    m: 2,
                    k: 256,
                    n: 64
                },
            ]
        );
    }
}
