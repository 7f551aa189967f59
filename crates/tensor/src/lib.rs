//! # dcd-tensor
//!
//! A small, deterministic, CPU tensor library purpose-built for the
//! drainage-crossing CNN reproduction. It provides exactly the kernels an
//! SPP-Net needs — blocked GEMM, im2col convolution, max pooling, adaptive
//! (spatial-pyramid) pooling — together with their backward passes, all
//! data-parallel via rayon.
//!
//! Design notes:
//! * Tensors are dense, contiguous, row-major `f32` buffers with an explicit
//!   shape; CNN activations use NCHW order.
//! * Shape errors are programming errors and panic with a precise message
//!   (the same contract ndarray uses); fallible construction from user data
//!   goes through [`Tensor::from_vec`], which returns a [`ShapeError`].
//! * Every random initializer takes an explicit seed so that training runs,
//!   NAS trials and tests are bit-reproducible.

pub mod conv;
pub mod gemm;
pub mod grad_check;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use conv::{
    conv2d, conv2d_backward, conv2d_relu, conv2d_relu_at, conv2d_relu_pool,
    conv2d_relu_pool_backward, conv2d_relu_pool_tracked, Conv2dGrads,
};
pub use gemm::{
    gemm, gemm_at, gemm_bias, gemm_bt, gemm_ep, gemm_packed, matmul, Epilogue, PackedLhs, Trans,
};
pub use pool::{
    adaptive_max_pool2d, adaptive_max_pool2d_values, max_pool2d, max_pool2d_backward,
    max_pool2x2_at, MapLayout, MaxIndices,
};
pub use rng::SeededRng;
pub use shape::{Shape, ShapeError};
pub use tensor::Tensor;
