//! Bit-identity of the FitReLU forward and backward passes against a private
//! copy of the original per-element formula (one `exp` per element, bounds
//! indexed by `i % neurons`).
//!
//! The activation skips the sigmoid where its argument `z = k(λ − x)`
//! exceeds 17, because σ(z) rounds to exactly 1.0 there. These tests pin
//! that claim on both sides of the threshold: every representable `x` with
//! `z ∈ [15, 19]`, the IEEE special values, fault-magnitude inputs and
//! random bit patterns, for bounds from 0 to 23 and with non-finite
//! upstream gradients. Outputs, input gradients and the accumulated bound
//! gradients must match bit for bit. NaNs only need to agree on being NaN:
//! Rust does not specify which NaN payload an operation produces.

use fitact::activations::DEFAULT_SLOPE;
use fitact::protect::BOUND_FLOOR;
use fitact::FitRelu;
use fitact_nn::Activation;
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const LAMBDAS: [f32; 5] = [0.0, BOUND_FLOOR, 0.5, 3.0, 23.0];

fn reference_sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

fn reference_forward(x: &[f32], bounds: &[f32], k: f32) -> Vec<f32> {
    let neurons = bounds.len();
    let mut out = x.to_vec();
    for (i, v) in out.iter_mut().enumerate() {
        let lambda = bounds[i % neurons];
        let inner = *v * reference_sigmoid(k * (lambda - *v));
        *v = inner.max(0.0);
    }
    out
}

fn reference_backward(
    x: &[f32],
    g: &[f32],
    bounds: &[f32],
    k: f32,
    grad_lambda: &mut [f32],
) -> Vec<f32> {
    let neurons = bounds.len();
    let mut gi = vec![0.0f32; x.len()];
    for i in 0..x.len() {
        let neuron = i % neurons;
        let lambda = bounds[neuron];
        let xi = x[i];
        if xi <= 0.0 {
            continue;
        }
        let s = reference_sigmoid(k * (lambda - xi));
        let ds = s * (1.0 - s);
        gi[i] = g[i] * (s - k * xi * ds);
        grad_lambda[neuron] += g[i] * k * xi * ds;
    }
    gi
}

fn assert_same_bits(what: &str, actual: &[f32], expected: &[f32], inputs: &[f32]) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        let same = a.to_bits() == e.to_bits() || (a.is_nan() && e.is_nan());
        assert!(
            same,
            "{what}[{i}]: {a:e} ({:#010x}) vs reference {e:e} ({:#010x}); input {:e} ({:#010x})",
            a.to_bits(),
            e.to_bits(),
            inputs[i % inputs.len()],
            inputs[i % inputs.len()].to_bits()
        );
    }
}

/// Runs forward and backward on `x` (shape `dims`, bounds repeating along the
/// trailing axes) in both implementations and compares every output bit.
/// `grad_lambda` is pre-loaded with `initial_grad` in both, so accumulation
/// onto existing values (including `-0.0`) is covered too.
fn check(bounds: &[f32], k: f32, x: &[f32], dims: &[usize], g: &[f32], initial_grad: f32) {
    let mut act = FitRelu::from_bounds(bounds, k);
    act.bounds_param_mut().grad_mut().fill(initial_grad);
    let input = Tensor::from_vec(x.to_vec(), dims).unwrap();
    let y = act.forward(&input).unwrap();
    assert_eq!(y.dims(), dims);
    assert_same_bits("forward", y.as_slice(), &reference_forward(x, bounds, k), x);

    let grad = Tensor::from_vec(g.to_vec(), dims).unwrap();
    let gi = act.backward(&grad).unwrap();
    assert_eq!(gi.dims(), dims);
    let mut ref_grad_lambda = vec![initial_grad; bounds.len()];
    let ref_gi = reference_backward(x, g, bounds, k, &mut ref_grad_lambda);
    assert_same_bits("grad_input", gi.as_slice(), &ref_gi, x);
    assert_same_bits(
        "grad_lambda",
        act.bounds_param_mut().grad().as_slice(),
        &ref_grad_lambda,
        bounds,
    );
}

/// Checks a single-neuron activation over a column of inputs.
fn check_column(lambda: f32, k: f32, x: &[f32], g: &[f32]) {
    check(&[lambda], k, x, &[x.len(), 1], g, 0.0);
}

fn special_values() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::EPSILON,
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
    ]
}

#[test]
fn special_inputs_match_the_reference() {
    let x = special_values();
    let ones = vec![1.0; x.len()];
    let mixed: Vec<f32> = (0..x.len())
        .map(|i| [0.75, -2.5, 0.0, -0.0][i % 4])
        .collect();
    for &lambda in &LAMBDAS {
        for k in [DEFAULT_SLOPE, 1.0, 64.0] {
            check_column(lambda, k, &x, &ones);
            check_column(lambda, k, &x, &mixed);
        }
    }
}

/// Every representable `x` whose gate argument lies in `[15, 19]`, which
/// straddles both the threshold of the saturated path (17) and the point
/// where σ first rounds to 1.0 (≈16.64).
#[test]
fn dense_sweep_across_the_saturation_threshold_matches_the_reference() {
    let k = DEFAULT_SLOPE;
    const BLOCK: usize = 1 << 16;
    for &lambda in &LAMBDAS {
        let lo = lambda - 19.0 / k;
        let hi = lambda - 15.0 / k;
        let mut x = lo;
        let mut swept = 0usize;
        let mut saturated = 0usize;
        let mut block = Vec::with_capacity(BLOCK);
        while x <= hi {
            block.push(x);
            if k * (lambda - x) > 17.0 {
                saturated += 1;
            }
            x = next_up(x);
            if block.len() == BLOCK || x > hi {
                let g: Vec<f32> = (0..block.len())
                    .map(|i| if i % 2 == 0 { 1.0 } else { -0.375 })
                    .collect();
                check_column(lambda, k, &block, &g);
                swept += block.len();
                block.clear();
            }
        }
        assert!(swept > 100_000, "λ={lambda}: only {swept} values swept");
        assert!(
            saturated > 0 && saturated < swept,
            "λ={lambda}: sweep must cover both sides of the threshold"
        );
    }
}

/// The next representable f32 above a finite `x`.
fn next_up(x: f32) -> f32 {
    let bits = x.to_bits();
    if x == 0.0 {
        f32::from_bits(1)
    } else if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

#[test]
fn inputs_far_above_the_bound_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(7);
    for &lambda in &LAMBDAS {
        let x: Vec<f32> = (0..4096)
            .map(|_| lambda + 10f32.powf(rng.gen_range(-1.0f32..38.0)))
            .collect();
        let g: Vec<f32> = (0..x.len()).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        check_column(lambda, DEFAULT_SLOPE, &x, &g);
    }
}

#[test]
fn random_values_and_bit_patterns_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    let neurons = LAMBDAS.len();
    for round in 0..16 {
        let batch = 1 + round * 37;
        let n = batch * neurons;
        let x: Vec<f32> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    f32::from_bits(rng.next_u32())
                } else {
                    rng.gen_range(-30.0f32..30.0)
                }
            })
            .collect();
        let g: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for k in [DEFAULT_SLOPE, 0.5, 32.0] {
            check(&LAMBDAS, k, &x, &[batch, neurons], &g, 0.0);
        }
    }
}

/// Per-sample chunking over a `[batch, c, h, w]` input: the bounds repeat per
/// sample over all trailing axes, exactly as `i % neurons` indexes them.
#[test]
fn four_dimensional_inputs_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(13);
    let (c, h, w) = (3, 2, 5);
    let bounds: Vec<f32> = (0..c * h * w).map(|i| LAMBDAS[i % LAMBDAS.len()]).collect();
    for batch in [1usize, 2, 7] {
        let n = batch * bounds.len();
        let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..30.0)).collect();
        let g: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        check(&bounds, DEFAULT_SLOPE, &x, &[batch, c, h, w], &g, 0.0);
    }
}

/// Non-finite upstream gradients on saturated, transitional, suppressed and
/// negative inputs, accumulated onto `+0.0`, `-0.0` and a non-zero gradient.
#[test]
fn non_finite_gradients_match_the_reference() {
    let grads = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, -0.0];
    for &lambda in &LAMBDAS {
        let x = [
            lambda * 0.25,
            lambda - 2.1 / DEFAULT_SLOPE,
            lambda - 1.0 / DEFAULT_SLOPE,
            lambda,
            lambda + 1.0,
            -1.0,
            f32::from_bits(1),
        ];
        for &gv in &grads {
            let g = vec![gv; x.len()];
            for initial in [0.0, -0.0, 1.5] {
                check(&[lambda], DEFAULT_SLOPE, &x, &[x.len(), 1], &g, initial);
            }
        }
    }
}

/// The cached input is refilled in place: a backward pass uses the latest
/// forward input even when its batch size changed.
#[test]
fn backward_uses_the_latest_forward_input() {
    let bounds = [0.5, 3.0];
    let mut act = FitRelu::from_bounds(&bounds, DEFAULT_SLOPE);
    act.forward(&Tensor::from_vec(vec![9.0; 8], &[4, 2]).unwrap())
        .unwrap();
    let x = [0.25, 2.5, 0.75, -1.0, 0.5, 3.25];
    let y = act
        .forward(&Tensor::from_vec(x.to_vec(), &[3, 2]).unwrap())
        .unwrap();
    assert_same_bits(
        "forward",
        y.as_slice(),
        &reference_forward(&x, &bounds, DEFAULT_SLOPE),
        &x,
    );
    let g = [1.0, -1.0, 0.5, 2.0, -0.25, 1.0];
    let gi = act
        .backward(&Tensor::from_vec(g.to_vec(), &[3, 2]).unwrap())
        .unwrap();
    let mut ref_grad_lambda = vec![0.0; 2];
    let ref_gi = reference_backward(&x, &g, &bounds, DEFAULT_SLOPE, &mut ref_grad_lambda);
    assert_same_bits("grad_input", gi.as_slice(), &ref_gi, &x);
    assert_same_bits(
        "grad_lambda",
        act.bounds_param_mut().grad().as_slice(),
        &ref_grad_lambda,
        &bounds,
    );
}
