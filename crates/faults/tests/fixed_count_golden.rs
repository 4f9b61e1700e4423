//! Byte goldens of fixed-count campaigns ([`Campaign::run`] and friends).
//!
//! A fixed-count campaign runs as a one-round plan through the same trial
//! executor as the statistical campaign. These goldens pin the exact
//! `CampaignResult::to_json()` bytes of seeded campaigns on the threaded,
//! layer-filtered and full-forward paths, so any change to trial identity,
//! site sampling, the baseline or the result mapping shows up here.

use fitact_faults::{quantize_network, Campaign, CampaignConfig, TrialEngine};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::optim::Sgd;
use fitact_nn::Network;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small trained, quantised MLP plus its evaluation set.
fn trained_mlp() -> (Network, Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0);
    let root = Sequential::new()
        .with(Box::new(Linear::new(2, 16, &mut rng)))
        .with(Box::new(ActivationLayer::relu("h", &[16])))
        .with(Box::new(Linear::new(16, 2, &mut rng)));
    let mut net = Network::new("mlp", root);
    let inputs = init::uniform(&[96, 2], -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..96)
        .map(|i| {
            let row = &inputs.as_slice()[i * 2..(i + 1) * 2];
            usize::from(row[0] > row[1])
        })
        .collect();
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
    for _ in 0..30 {
        net.train_batch(&inputs, &targets, &loss, &mut opt).unwrap();
    }
    quantize_network(&mut net);
    (net, inputs, targets)
}

const CONFIG: CampaignConfig = CampaignConfig {
    fault_rate: 3e-3,
    trials: 7,
    batch_size: 40,
    seed: 5,
};

const WHOLE_NETWORK: &str = r#"{"fault_free_accuracy":1,"fault_rate":0.003,"trials":7,"total_faults":67,"mean_accuracy":0.6116071343421936,"min_accuracy":0.4479166865348816,"max_accuracy":0.7708333730697632,"accuracies":[0.71875,0.5520833134651184,0.5520833134651184,0.4895833432674408,0.75,0.4479166865348816,0.7708333730697632]}"#;

const LAYER_FILTERED: &str = r#"{"fault_free_accuracy":1,"fault_rate":0.003,"trials":7,"total_faults":26,"mean_accuracy":0.8229166865348816,"min_accuracy":0.75,"max_accuracy":1,"accuracies":[0.8958333730697632,0.78125,1,0.7708333730697632,0.78125,0.75,0.78125]}"#;

/// The full-forward engine is the reference: its bytes equal the resumed
/// engine's.
const FULL_FORWARD: &str = WHOLE_NETWORK;

#[test]
fn new_campaign_matches_the_golden_on_one_and_two_threads() {
    let (mut net, inputs, targets) = trained_mlp();
    for threads in [1, 2] {
        let result = Campaign::new(&mut net, &inputs, &targets)
            .unwrap()
            .run_with_threads(&CONFIG, threads)
            .unwrap();
        assert_eq!(
            result.to_json().to_string(),
            WHOLE_NETWORK,
            "threads {threads}"
        );
    }
}

#[test]
fn layer_filtered_campaign_matches_the_golden() {
    let (mut net, inputs, targets) = trained_mlp();
    let result = Campaign::with_layer_filter(&mut net, &inputs, &targets, |p| p.starts_with("2/"))
        .unwrap()
        .run(&CONFIG)
        .unwrap();
    assert_eq!(result.to_json().to_string(), LAYER_FILTERED);
}

#[test]
fn full_forward_serial_campaign_matches_the_golden() {
    let (mut net, inputs, targets) = trained_mlp();
    let result = Campaign::new(&mut net, &inputs, &targets)
        .unwrap()
        .with_engine(TrialEngine::FullForward)
        .run_serial(&CONFIG)
        .unwrap();
    assert_eq!(result.to_json().to_string(), FULL_FORWARD);
}
