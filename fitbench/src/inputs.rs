//! Workloads and the seeded inputs they hand to the program.
//!
//! The seed drives the random inputs of a run through [`Inputs::derive`]:
//! the order in which the serving load replays rows and its arrival times,
//! and the pipeline's images, initialisation and shuffle. One seed gives one
//! set of inputs.
//!
//! The campaign is the same for every seed: the AlexNet it injects into
//! (also the served model) and its fault streams come from
//! [`ALEXNET_SEED`]. At the sparse rate a sweep's cost is set by the few
//! trials whose fault lands in an early layer, so fault streams or weights
//! that changed with the seed would make that cost, rather than the code,
//! differ between runs.

use fitact_data::{materialize, DataError, DatasetKind, SyntheticCifar};
use fitact_tensor::Tensor;

/// Width multiplier of both models (AlexNet and ResNet50).
pub const WIDTH: f32 = 0.0626;
/// Seed of the AlexNet's images, initialisation and shuffle, and of the
/// campaign's fault streams.
pub const ALEXNET_SEED: u64 = 2022;
/// Training samples of the AlexNet that the campaign and the server use.
pub const ALEXNET_TRAIN: usize = 128;
/// Evaluation samples of every campaign trial; also the distinct rows the
/// serving load replays.
pub const EVAL: usize = 64;
/// Training samples of the ResNet50 pipeline.
pub const PIPELINE_TRAIN: usize = 96;

/// A benchmark workload: the dataset family every phase runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cifar10,
    Cifar100,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Cifar10, Workload::Cifar100];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cifar10 => "cifar10",
            Workload::Cifar100 => "cifar100",
        }
    }

    pub fn kind(self) -> DatasetKind {
        match self {
            Workload::Cifar10 => DatasetKind::Cifar10,
            Workload::Cifar100 => DatasetKind::Cifar100,
        }
    }

    pub fn classes(self) -> usize {
        self.kind().classes()
    }
}

/// The per-purpose seeds of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Synthetic-CIFAR master seed of the pipeline's training split.
    pub data: u64,
    /// Parameter initialisation of the pipeline's ResNet50.
    pub model: u64,
    /// Mini-batch shuffling of the pipeline's training stages.
    pub shuffle: u64,
    /// Order in which the serving load replays the evaluation rows.
    pub rows: u64,
}

impl Inputs {
    pub fn derive(workload: Workload, seed: u64) -> Inputs {
        let stream = |k: u64| splitmix64(seed ^ splitmix64(k));
        Inputs {
            workload,
            seed,
            data: stream(1),
            model: stream(2),
            shuffle: stream(3),
            rows: stream(5),
        }
    }

    /// Materialises `(images, labels)` of one synthetic-CIFAR split.
    pub fn split(&self, split: Split) -> Result<(Tensor, Vec<usize>), DataError> {
        let classes = self.workload.classes();
        let data = match split {
            Split::AlexNetTrain => SyntheticCifar::train(classes, ALEXNET_TRAIN, ALEXNET_SEED),
            Split::PipelineTrain => SyntheticCifar::train(classes, PIPELINE_TRAIN, self.data),
            Split::Eval => SyntheticCifar::test(classes, EVAL, ALEXNET_SEED),
        };
        materialize(&data)
    }

    /// A permutation of `0..n`: the order the serving load replays rows in.
    pub fn row_order(&self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = self.rows;
        for i in (1..n).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// The synthetic-CIFAR splits a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    AlexNetTrain,
    PipelineTrain,
    Eval,
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let a = Inputs::derive(Workload::Cifar10, 7);
        let b = Inputs::derive(Workload::Cifar10, 7);
        assert_eq!(a, b);
        for split in [Split::AlexNetTrain, Split::PipelineTrain, Split::Eval] {
            let (xa, ya) = a.split(split).unwrap();
            let (xb, yb) = b.split(split).unwrap();
            assert_eq!(bits(&xa), bits(&xb));
            assert_eq!(ya, yb);
        }
        assert_eq!(a.row_order(EVAL), b.row_order(EVAL));
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        let a = Inputs::derive(Workload::Cifar10, 7);
        let b = Inputs::derive(Workload::Cifar10, 8);
        for (x, y) in [
            (a.data, b.data),
            (a.model, b.model),
            (a.shuffle, b.shuffle),
            (a.rows, b.rows),
        ] {
            assert_ne!(x, y);
        }
        let (xa, _) = a.split(Split::PipelineTrain).unwrap();
        let (xb, _) = b.split(Split::PipelineTrain).unwrap();
        assert_ne!(bits(&xa), bits(&xb));
        assert_ne!(a.row_order(EVAL), b.row_order(EVAL));
        // The served AlexNet's data is fixed across seeds.
        let (ea, _) = a.split(Split::Eval).unwrap();
        let (eb, _) = b.split(Split::Eval).unwrap();
        assert_eq!(bits(&ea), bits(&eb));
    }

    #[test]
    fn seeds_are_distinct_per_purpose_and_rows_form_a_permutation() {
        let inputs = Inputs::derive(Workload::Cifar100, 0);
        let seeds = [inputs.data, inputs.model, inputs.shuffle, inputs.rows];
        for (i, x) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|y| x != y));
        }
        let mut order = inputs.row_order(EVAL);
        order.sort_unstable();
        assert_eq!(order, (0..EVAL).collect::<Vec<_>>());
        let (_, labels) = inputs.split(Split::Eval).unwrap();
        assert!(labels.iter().all(|&l| l < 100));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
