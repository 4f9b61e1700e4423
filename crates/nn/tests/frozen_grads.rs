//! Backward passes skip the gradients of frozen parameters.
//!
//! FitAct post-training backpropagates through a network whose weights are
//! frozen and only the activation bounds learn. There the conv, linear and
//! batch-norm layers must still return the exact input gradient, but need
//! not spend a matmul per layer on weight gradients nobody reads. These
//! tests freeze subsets of the parameters and check, bit for bit against an
//! all-trainable pass, that the input gradient is unchanged, that trainable
//! parameters accumulate exactly the same gradient, and that frozen ones
//! keep a zero gradient.

use fitact_nn::layers::{
    ActivationLayer, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Mode,
    Sequential,
};
use fitact_nn::Network;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(61);
    Network::new(
        "cnn",
        Sequential::new()
            .with(Box::new(Conv2d::new(3, 6, 3, 1, 1, &mut rng)))
            .with(Box::new(BatchNorm2d::new(6)))
            .with(Box::new(ActivationLayer::relu("c1", &[6, 8, 8])))
            .with(Box::new(MaxPool2d::new(2, 2)))
            .with(Box::new(Conv2d::new(6, 10, 3, 1, 1, &mut rng)))
            .with(Box::new(BatchNorm2d::new(10)))
            .with(Box::new(ActivationLayer::relu("c2", &[10, 4, 4])))
            .with(Box::new(GlobalAvgPool::new()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(10, 5, &mut rng))),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs one forward/backward pass with the parameters selected by `freeze`
/// frozen; returns the input gradient and every parameter's
/// `(trainable, gradient)`.
fn pass(mode: Mode, freeze: &dyn Fn(usize, &str) -> bool) -> (Vec<u32>, Vec<(bool, Vec<u32>)>) {
    let mut net = cnn();
    for (i, p) in net.params_mut().into_iter().enumerate() {
        if freeze(i, p.name()) {
            p.freeze();
        }
    }
    let mut rng = StdRng::seed_from_u64(62);
    let x = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
    let g = init::uniform(&[4, 5], -1.0, 1.0, &mut rng);
    net.zero_grad();
    net.forward(&x, mode).unwrap();
    let dx = net.backward(&g).unwrap();
    let grads = net
        .params()
        .iter()
        .map(|p| (p.trainable(), bits(p.grad())))
        .collect();
    (bits(&dx), grads)
}

#[test]
fn frozen_parameters_get_no_gradient_and_the_rest_is_unchanged() {
    type Pattern = (&'static str, fn(usize, &str) -> bool);
    let patterns: [Pattern; 4] = [
        ("all", |_, _| true),
        ("weights", |_, name| {
            name.ends_with("weight") || name.ends_with("gamma")
        }),
        ("biases", |_, name| {
            name.ends_with("bias") || name.ends_with("beta")
        }),
        ("alternate", |i, _| i % 2 == 0),
    ];
    for mode in [Mode::Train, Mode::Eval] {
        let (dx_ref, grads_ref) = pass(mode, &|_, _| false);
        assert!(
            grads_ref.iter().any(|(_, g)| g.iter().any(|&b| b != 0)),
            "the reference pass must produce gradients"
        );
        for (label, freeze) in patterns {
            let (dx, grads) = pass(mode, &freeze);
            assert_eq!(dx, dx_ref, "{mode:?}/{label}: input gradient changed");
            let mut frozen = 0;
            for (i, ((trainable, grad), (_, grad_ref))) in grads.iter().zip(&grads_ref).enumerate()
            {
                if *trainable {
                    assert_eq!(grad, grad_ref, "{mode:?}/{label}: parameter {i}");
                } else {
                    frozen += 1;
                    assert!(
                        grad.iter().all(|&b| b == 0),
                        "{mode:?}/{label}: frozen parameter {i} accumulated a gradient"
                    );
                }
            }
            assert!(frozen > 0, "{mode:?}/{label}: pattern froze nothing");
        }
    }
}
