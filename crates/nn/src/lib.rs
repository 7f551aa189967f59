//! # dcd-nn
//!
//! A from-scratch CNN stack (layers, backprop, SGD) sufficient to train and
//! run the SPP-Net drainage-crossing detector of the SC-W 2023 paper.
//!
//! The crate deliberately avoids a general autograd tape: every layer is a
//! concrete struct with explicit passes, which keeps the compute graph
//! static — exactly the property the Inter-Operator Scheduler (`dcd-ios`)
//! relies on when it lowers an [`SppNet`] to its graph IR.
//!
//! Each [`Layer`] runs two ways over the same kernels. `forward(&mut self)`
//! records what `backward` needs (a [`ConvBlock`] keeps its input, its ReLU
//! output and the pool's argmax); `infer(&self)` records nothing and copies
//! no input. [`SppNet`] is one layer list plus two heads: training
//! ([`SppNet::forward`]) folds over it with `forward`, serving
//! ([`SppNet::forward_inference`]) with `infer`, and both give the same bits.
//!
//! Layout conventions follow `dcd-tensor` (NCHW activations).

pub mod augment;
pub mod detect;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod param;
pub mod serialize;
pub mod sgd;
pub mod sppnet;
pub mod trainer;

pub use augment::augment_dataset;
pub use detect::{BBox, Detection, Sample};
pub use layers::{ConvBlock, Layer, Linear, Relu, Sequential, SppLayer};
pub use loss::{bce_with_logits, smooth_l1, softmax_cross_entropy};
pub use metrics::{average_precision, iou, PrPoint};
pub use param::Param;
pub use serialize::{Checkpoint, CheckpointError};
pub use sgd::Sgd;
pub use sppnet::{BlockGeometry, SppNet, SppNetConfig, CONV_BLOCKS};
pub use trainer::{EpochStats, TrainConfig, Trainer};
