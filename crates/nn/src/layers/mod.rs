//! Network building blocks: the [`Layer`] trait and its implementations.
//!
//! Every layer owns its parameters, caches whatever it needs during `forward`
//! and consumes that cache in `backward`. Layers are composed with
//! [`Sequential`] and the ResNet [`Bottleneck`] block.

mod activation_layer;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod norm;
mod pool;
mod residual;
mod sequential;

pub use activation_layer::ActivationLayer;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::Bottleneck;
pub use sequential::Sequential;

use crate::{NnError, Parameter};
use fitact_tensor::Tensor;
use std::fmt;

/// Whether a forward pass is part of training or inference.
///
/// Batch normalisation and dropout behave differently in the two modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics are used and updated, dropout is active.
    Train,
    /// Inference: running statistics are used, dropout is the identity.
    #[default]
    Eval,
}

/// A differentiable network layer.
///
/// The contract is the classic layer-wise backpropagation protocol:
///
/// 1. `forward(input, mode)` computes the output and caches intermediates,
/// 2. `backward(grad_output)` consumes the cache, accumulates parameter
///    gradients and returns the gradient with respect to the input.
///
/// Layers are boxed and cloneable so a trained network can be duplicated and
/// each copy fitted with a different protection scheme.
///
/// `Send + Sync` is part of the contract: a read-only network template must
/// be shareable across threads (the inference server hands every worker a
/// clone of one shared template; fault campaigns move worker clones into
/// scoped threads). Mutable state a layer needs during `forward`/`backward`
/// lives in plain fields behind `&mut self` — implementations must not
/// smuggle in `Cell`/`RefCell`/`Rc`.
pub trait Layer: fmt::Debug + Send + Sync {
    /// A short name identifying the layer type (and salient configuration).
    fn name(&self) -> String;

    /// Computes the layer output for a batched input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError>;

    /// Propagates gradients back through the layer, returning the input
    /// gradient and accumulating the gradients of its *trainable*
    /// parameters. A frozen parameter's gradient may be left untouched: the
    /// conv, linear and batch-norm layers skip it, so a backward pass
    /// through frozen weights computes little beyond the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if `forward` has not been
    /// called, or a shape error if `grad_output` does not match the output.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Read-only access to the layer's own (non-nested) parameters.
    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    /// Mutable access to the layer's own (non-nested) parameters.
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Visits every parameter in this layer and its children with a
    /// slash-separated path (`"features/3/conv/weight"`).
    ///
    /// Container layers override this to recurse; leaf layers get the default
    /// implementation built on [`Layer::params`].
    fn visit_params(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Parameter)) {
        for p in self.params() {
            let path = join_path(prefix, p.name());
            visitor(&path, p);
        }
    }

    /// Mutable variant of [`Layer::visit_params`]; visits parameters in the
    /// same deterministic order.
    fn visit_params_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Parameter)) {
        for p in self.params_mut() {
            let path = join_path(prefix, p.name().to_owned().as_str());
            visitor(&path, p);
        }
    }

    /// Mutable access to every [`ActivationLayer`] nested inside this layer,
    /// in forward order. Protection schemes use this to swap ReLU for their
    /// own bounded activation functions.
    fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        Vec::new()
    }

    /// The serializable topology descriptor of this layer (type,
    /// configuration and children — not parameter values; see
    /// [`crate::spec::LayerSpec`] for the fidelity contract).
    ///
    /// # Errors
    ///
    /// The default implementation returns [`NnError::InvalidConfig`]:
    /// ad-hoc layer implementations (test doubles, injection wrappers) opt
    /// out of persistence by not overriding it.
    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Err(NnError::InvalidConfig(format!(
            "layer `{}` does not support serialisation",
            self.name()
        )))
    }

    /// Clones the layer into a box ([`Clone`] is not object-safe).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Caches `input` for a layer's backward pass, reusing the previous cache's
/// storage when shapes allow so steady-state training does not allocate.
pub(crate) fn cache_input(cache: &mut Option<Tensor>, input: &Tensor) {
    match cache {
        Some(t) => t.copy_from(input),
        None => *cache = Some(input.clone()),
    }
}

/// Joins a path prefix and a component with `/`, omitting the separator for an
/// empty prefix.
pub(crate) fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
    }

    #[test]
    fn join_path_handles_empty_prefix() {
        assert_eq!(join_path("", "weight"), "weight");
        assert_eq!(join_path("block/0", "weight"), "block/0/weight");
    }

    #[test]
    fn boxed_layer_is_cloneable() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let layer: Box<dyn Layer> = Box::new(Linear::new(2, 3, &mut rng));
        let copy = layer.clone();
        assert_eq!(copy.name(), layer.name());
    }
}
