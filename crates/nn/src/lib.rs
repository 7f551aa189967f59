//! # dcd-nn
//!
//! A from-scratch CNN stack (layers, backprop, SGD) sufficient to train and
//! run the SPP-Net drainage-crossing detector of the SC-W 2023 paper.
//!
//! The crate deliberately avoids general autograd: every layer is a
//! concrete struct with explicit passes, which keeps the compute graph
//! static — exactly the property the Inter-Operator Scheduler (`dcd-ios`)
//! relies on when it lowers an [`SppNet`] to its graph IR.
//!
//! A layer ([`ConvBlock`], [`SppLayer`], [`Linear`]) holds only its
//! parameters, and its passes take the activations they read as arguments.
//! [`SppNet`] calls its layers directly and keeps one tape per training
//! step: [`SppNet::forward`] stores the input (the step's one copy), each
//! C–P block's pooled output and argmax, the SPP output and per-level
//! argmax and each hidden FC layer's output, and [`SppNet::backward`] hands
//! each layer its input, output and argmax from it. Hidden FC layers fuse
//! their ReLU into the GEMM write-back and mask their gradient by their own
//! output. Serving ([`SppNet::forward_inference`]) runs the same kernels
//! from `&self`, records nothing, and gives the same bits.
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
pub use layers::{ConvBlock, Linear, SppLayer};
pub use loss::{bce_with_logits, smooth_l1, softmax_cross_entropy};
pub use metrics::{average_precision, iou, PrPoint};
pub use param::Param;
pub use serialize::{Checkpoint, CheckpointError};
pub use sgd::Sgd;
pub use sppnet::{BlockGeometry, SppNet, SppNetConfig, CONV_BLOCKS};
pub use trainer::{EpochStats, TrainConfig, Trainer};
