//! The victim every workload attacks: the paper's MNIST-shaped C&W model
//! (`CwConfig::mnist()`, FC head 1024→200→200→10) with its head trained
//! on conv features of seeded `SynthDigits`, plus the pooled working set
//! and a held-out test set.

use fault_sneaking::data::dataset::Synthesizer;
use fault_sneaking::data::SynthDigits;
use fault_sneaking::nn::cw::{CwConfig, CwModel};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::nn::FeatureCache;
use fault_sneaking::telemetry;
use fault_sneaking::tensor::hash::Fnv1a;
use fault_sneaking::tensor::{Prng, Tensor};

/// Training images the head is fit on.
pub const TRAIN_IMAGES: usize = 600;
/// Head-training epochs.
pub const EPOCHS: usize = 12;
/// Pool images scenarios draw their working sets from.
pub const POOL_IMAGES: usize = 200;
/// Held-out test images (test accuracy, and the defense probes).
pub const TEST_IMAGES: usize = 200;
/// The victim must classify at least this share of the test set.
pub const MIN_TEST_ACC: f32 = 0.9;

/// A trained victim and the data around it, all drawn from one seed.
pub struct Victim {
    /// Conv extractor and trained FC head.
    pub model: CwModel,
    /// Dequantized view of the post-training-quantized head (the int8
    /// deployment), when a workload attacks int8 storage.
    pub deq: Option<FcHead>,
    /// Extracted pool features, shared by every scenario.
    pub pool: FeatureCache,
    /// True labels of the pool rows.
    pub pool_labels: Vec<usize>,
    /// Extracted test-set features.
    pub test: Tensor,
    /// True test labels.
    pub test_labels: Vec<usize>,
}

impl Victim {
    /// Generates the data, extracts features, and trains the head. Each
    /// stage sits in a benchmark span (`bench.synth`, `bench.extract`,
    /// `bench.train_head`), recorded only while telemetry is on.
    pub fn build(seed: u64, int8: bool) -> Victim {
        let digits = SynthDigits::default();
        let (train, test, pool) = {
            let _s = telemetry::span("bench.synth");
            let (train, _) = digits.train_test(TRAIN_IMAGES, 1, 0x5eed);
            let (_, test) = digits.train_test(1, TEST_IMAGES, seed);
            (
                train,
                test,
                digits.generate(POOL_IMAGES, seed ^ 0x706f_6f6c),
            )
        };
        let mut rng = Prng::new(0x5eed);
        let mut model = CwModel::new_random(CwConfig::mnist(), &mut rng.fork(1));
        let (train_features, pool_cache, test_features) = {
            let _s = telemetry::span("bench.extract");
            (
                model.extract_features(&train.images),
                FeatureCache::build(&model, &pool.images),
                model.extract_features(&test.images),
            )
        };
        {
            let _s = telemetry::span("bench.train_head");
            train_head(
                &mut model.head,
                &train_features,
                &train.labels,
                &HeadTrainConfig {
                    epochs: EPOCHS,
                    batch_size: 32,
                    lr: 2e-3,
                    verbose: false,
                },
                &mut rng.fork(2),
            );
        }
        let deq = int8.then(|| QuantizedHead::quantize(&model.head).dequantized_head());
        Victim {
            model,
            deq,
            pool: pool_cache,
            pool_labels: pool.labels,
            test: test_features,
            test_labels: test.labels,
        }
    }

    /// Images pushed through the conv extractor by [`Victim::build`].
    pub fn extracted_images() -> usize {
        TRAIN_IMAGES + POOL_IMAGES + TEST_IMAGES
    }

    /// Test accuracy of the clean head.
    pub fn test_acc(&self) -> f32 {
        self.model.head.accuracy(&self.test, &self.test_labels)
    }

    /// The head a campaign of the given precision attacks.
    pub fn base_head(&self, int8: bool) -> &FcHead {
        match (&self.deq, int8) {
            (Some(deq), true) => deq,
            _ => &self.model.head,
        }
    }

    /// Digest of everything set-up produced, so repeated set-ups can be
    /// checked to be identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let head = &self.model.head;
        for i in 0..head.num_layers() {
            for v in head.layer_flat_params(i) {
                h.write_f32_bits(v);
            }
        }
        for t in [self.pool.features(), &self.test] {
            for &v in t.as_slice() {
                h.write_f32_bits(v);
            }
        }
        for &l in self.pool_labels.iter().chain(&self.test_labels) {
            h.write_u64(l as u64);
        }
        h.finish()
    }
}
