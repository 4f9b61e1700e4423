//! Fully-connected (affine) layer.

use crate::layers::{cache_input, Layer, Mode};
use crate::{NnError, Parameter};
use fitact_tensor::matmul::{matmul_into, Layout};
use fitact_tensor::{init, simd, NativeParam, Tensor};
use rand::Rng;

/// A fully-connected layer computing `y = x Wᵀ + b` (paper Eq. 1).
///
/// * weight shape: `[out_features, in_features]`
/// * bias shape: `[out_features]`
/// * input shape: `[batch, in_features]`
///
/// # Example
///
/// ```
/// use fitact_nn::{layers::Linear, Layer, Mode};
/// use fitact_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut fc = Linear::new(8, 4, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[2, 8]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let weight = init::kaiming_normal(&[out_features, in_features], in_features, rng);
        Linear {
            weight: Parameter::new("weight", weight),
            bias: Parameter::new("bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features (= number of neurons in this layer).
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}→{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
        if input.ndim() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[batch, {}]", self.in_features),
                actual: input.dims().to_vec(),
            });
        }
        cache_input(&mut self.cached_input, input);
        // y = x Wᵀ + b
        let (m, k, n) = (input.dims()[0], self.in_features, self.out_features);
        let bias = self.bias.data().as_slice();
        match self.weight.native() {
            // Reduced-precision weights go through the dispatching kernels,
            // which fuse the bias add and decode words on the fly.
            Some(NativeParam::F16(w)) => {
                let mut y = vec![0.0f32; m * n];
                simd::matmul_f16(input.as_slice(), w.words(), Some(bias), &mut y, m, k, n);
                Ok(Tensor::from_vec(y, &[m, n])?)
            }
            Some(NativeParam::Int8(w)) => {
                let mut y = vec![0.0f32; m * n];
                simd::matmul_i8(
                    input.as_slice(),
                    w.q(),
                    w.scales(),
                    w.zero_points(),
                    Some(bias),
                    &mut y,
                    m,
                    k,
                    n,
                );
                Ok(Tensor::from_vec(y, &[m, n])?)
            }
            None => {
                let mut y = input.matmul_nt(self.weight.data())?;
                for row in y.as_mut_slice().chunks_mut(n) {
                    for (v, b) in row.iter_mut().zip(bias) {
                        *v += b;
                    }
                }
                Ok(y)
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        if let Some(native) = self.weight.native() {
            return Err(NnError::QuantizedBackward {
                layer: self.name(),
                precision: native.precision(),
            });
        }
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        if grad_output.ndim() != 2
            || grad_output.dims()[0] != input.dims()[0]
            || grad_output.dims()[1] != self.out_features
        {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[batch, {}] gradient", self.out_features),
                actual: grad_output.dims().to_vec(),
            });
        }
        // dW = gᵀ x, db = Σ_batch g, dx = g W — the matrix gradients are
        // accumulated straight into the parameter gradients (no temporary);
        // frozen parameters get none.
        let batch = grad_output.dims()[0];
        if self.weight.trainable() {
            matmul_into(
                Layout::Tn,
                grad_output.as_slice(),
                input.as_slice(),
                self.weight.grad_mut().as_mut_slice(),
                self.out_features,
                batch,
                self.in_features,
                true,
            );
        }
        if self.bias.trainable() {
            let bgrad = self.bias.grad_mut().as_mut_slice();
            for row in grad_output.as_slice().chunks_exact(self.out_features) {
                for (b, g) in bgrad.iter_mut().zip(row) {
                    *b += g;
                }
            }
        }
        Ok(grad_output.matmul(self.weight.data())?)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Linear {
            in_features: self.in_features,
            out_features: self.out_features,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_linear() -> Linear {
        let mut rng = StdRng::seed_from_u64(11);
        let mut fc = Linear::new(3, 2, &mut rng);
        // Overwrite with a known weight matrix for deterministic assertions.
        *fc.weight.data_mut() =
            Tensor::from_vec(vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5], &[2, 3]).unwrap();
        *fc.bias.data_mut() = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        fc
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut fc = small_linear();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = fc.forward(&x, Mode::Train).unwrap();
        // Row 0: 1*1 + 2*0 + 3*(-1) + 0.5 = -1.5
        // Row 1: 1*2 + 2*1 + 3*0.5 - 0.5 = 5.0
        assert_eq!(y.as_slice(), &[-1.5, 5.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut fc = small_linear();
        assert!(fc.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).is_err());
        assert!(fc.forward(&Tensor::zeros(&[3]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_produces_correct_shapes_and_grads() {
        let mut fc = small_linear();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.5, -1.0, 2.0], &[2, 3]).unwrap();
        fc.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let gx = fc.backward(&g).unwrap();
        assert_eq!(gx.dims(), &[2, 3]);
        // db = column sums of g
        assert_eq!(fc.bias.grad().as_slice(), &[1.0, 1.0]);
        // dW row 0 = g[:,0]ᵀ x = 1*x_0 = [1, 2, 3]
        assert_eq!(&fc.weight.grad().as_slice()[..3], &[1.0, 2.0, 3.0]);
        // dW row 1 = g[:,1]ᵀ x = 1*x_1 = [0.5, -1, 2]
        assert_eq!(&fc.weight.grad().as_slice()[3..], &[0.5, -1.0, 2.0]);
        // dx row 0 = g_0 W = 1*[1,0,-1]
        assert_eq!(&gx.as_slice()[..3], &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut fc = small_linear();
        assert!(matches!(
            fc.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn backward_rejects_mismatched_gradient() {
        let mut fc = small_linear();
        fc.forward(&Tensor::zeros(&[2, 3]), Mode::Train).unwrap();
        assert!(fc.backward(&Tensor::zeros(&[2, 5])).is_err());
        assert!(fc.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerical gradient check of dL/dW where L = sum(forward(x)).
        let mut rng = StdRng::seed_from_u64(3);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = init::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let eps = 1e-3f32;

        fc.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(&[2, 3]);
        fc.backward(&ones).unwrap();
        let analytic = fc.weight.grad().clone();

        for idx in [0usize, 5, 11] {
            let orig = fc.weight.data().as_slice()[idx];
            fc.weight.data_mut().as_mut_slice()[idx] = orig + eps;
            let plus = fc.forward(&x, Mode::Train).unwrap().sum();
            fc.weight.data_mut().as_mut_slice()[idx] = orig - eps;
            let minus = fc.forward(&x, Mode::Train).unwrap().sum();
            fc.weight.data_mut().as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!((a - numeric).abs() < 1e-2, "idx {idx}: {a} vs {numeric}");
        }
    }

    #[test]
    fn params_expose_weight_and_bias() {
        let fc = small_linear();
        let names: Vec<&str> = fc.params().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["weight", "bias"]);
        assert_eq!(fc.in_features(), 3);
        assert_eq!(fc.out_features(), 2);
    }
}
