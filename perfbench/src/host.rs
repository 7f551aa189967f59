//! Pieces shared by the host workloads (`scene-scan`, `patch-query`,
//! `nas-trial`): the paper-scale inputs, the independent re-scoring path,
//! the traced window and the dcd-tensor / dcd-nn breakdown.

use crate::report::Outcome;
use crate::spans::Spans;
use dcd_geodata::{DatasetConfig, DemConfig, SceneConfig};
use dcd_nn::loss::sigmoid;
use dcd_nn::{BBox, SppNet, SppNetConfig};
use dcd_tensor::Tensor;

/// Scene edge at paper scale, cells.
pub const SCENE: usize = 1024;
/// Patch edge (paper: 100×100 at 1 m).
pub const PATCH: usize = 100;
/// Largest score difference the independent path may show, absolute. The
/// two paths sum in different orders (fused vs separate bias/ReLU, batch
/// vs one-patch GEMM shapes), which moves f32 scores by about 1e-6.
pub const SCORE_TOL: f32 = 1e-4;
/// Spans each thread may hold between drains.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// The seeded watershed at paper scale, with 100×100 patches.
pub fn paper_dataset_config() -> DatasetConfig {
    DatasetConfig {
        scene: SceneConfig {
            dem: DemConfig {
                width: SCENE,
                height: SCENE,
                ..Default::default()
            },
            road_spacing: SCENE / 6,
            stream_threshold: (SCENE * SCENE) as f32 / 650.0,
            ..Default::default()
        },
        patch_size: PATCH,
        center_jitter: 2,
        ..Default::default()
    }
}

/// Bytes of fully-connected weights one forward pass reads, computed from
/// the tensor sizes (FC trunk plus both heads).
pub fn fc_weight_bytes(cfg: &SppNetConfig) -> f64 {
    let trunk_out = cfg.fc2.unwrap_or(cfg.fc1);
    let mut params = cfg.spp_features() * cfg.fc1 + trunk_out * 5;
    if let Some(f2) = cfg.fc2 {
        params += cfg.fc1 * f2;
    }
    (params * 4) as f64
}

/// Scores one `[C, H, W]` patch through the training forward pass
/// (`SppNet::forward`, unfused conv, bias and ReLU) at batch 1: the
/// reference the inference path is checked against.
pub fn reference_score(model: &mut SppNet, patch: &Tensor) -> (f32, BBox) {
    let mut dims = vec![1];
    dims.extend_from_slice(patch.dims());
    let x = Tensor::from_vec(dims, patch.data().to_vec()).expect("one-patch batch");
    let out = model.forward(&x);
    (
        sigmoid(out.obj_logits.data()[0]),
        BBox::from_slice(&out.boxes.data()[..4]),
    )
}

/// Snapshot of the allocation-growth counters the timed windows must not
/// move.
pub struct GrowCounters {
    scratch: u64,
    obs: u64,
}

impl GrowCounters {
    /// Reads both counters now.
    pub fn now() -> Self {
        GrowCounters {
            scratch: dcd_tensor::scratch::grow_events(),
            obs: dcd_obs::grow_events(),
        }
    }

    /// Scratch-arena growths since the snapshot; fails the run if either
    /// counter moved.
    pub fn check(&self, out: &mut Outcome, window: &str) -> u64 {
        let scratch = dcd_tensor::scratch::grow_events() - self.scratch;
        let obs = dcd_obs::grow_events() - self.obs;
        out.check(scratch == 0, || {
            format!("{window}: dcd-tensor scratch grew {scratch} time(s)")
        });
        out.check(obs == 0, || {
            format!("{window}: dcd-obs span buffers grew {obs} time(s)")
        });
        scratch
    }
}

/// A traced window's results.
pub struct Traced<T> {
    /// What the window's body returned.
    pub value: T,
    /// Spans recorded in the window.
    pub spans: Spans,
    /// Counters recorded in the window.
    pub metrics: dcd_obs::MetricsSnapshot,
    /// dcd-tensor scratch growths in the window.
    pub scratch_grows: u64,
}

/// Runs `body` on `state` with dcd-obs recording, after `warm` has run
/// traced once so every thread the body uses owns its span buffer. Fails
/// the run if a span buffer overflowed or an allocation counter moved in
/// the window. Turns recording off again afterwards.
pub fn traced<S, T>(
    out: &mut Outcome,
    state: &mut S,
    warm: impl FnOnce(&mut S),
    body: impl FnOnce(&mut S) -> T,
) -> Traced<T> {
    dcd_obs::set_enabled(true);
    warm(state);
    drop(dcd_obs::drain_spans());
    dcd_obs::reset_metrics();
    let grow = GrowCounters::now();
    let value = body(state);
    let scratch_grows = grow.check(out, "traced window");
    let dropped = dcd_obs::dropped_spans();
    let spans = Spans::drain();
    let metrics = dcd_obs::snapshot();
    dcd_obs::set_enabled(false);
    out.check(dropped == 0, || {
        format!("{dropped} span(s) dropped: buffers too small")
    });
    Traced {
        value,
        spans,
        metrics,
        scratch_grows,
    }
}

/// The dcd-tensor / dcd-nn breakdown of one traced window.
pub struct TensorBreakdown {
    /// Forward convolution time, ns.
    pub conv_ns: f64,
    /// GFLOP/s over forward and backward convolution time.
    pub conv_gflops: f64,
    /// Time in `gemm` spans no convolution span encloses, ns.
    pub fc_ns: f64,
    /// Backward convolution time, ns.
    pub backward_ns: f64,
    /// Time in the forward spans named by the caller, ns.
    pub forward_ns: f64,
    /// Forward time outside convolution and GEMM spans, ns.
    pub forward_self_ns: f64,
}

const CONV_SPANS: [&str; 2] = ["conv2d", "conv2d.backward"];

impl TensorBreakdown {
    /// Splits the window's time. `forward` names the span that wraps one
    /// network forward pass.
    pub fn of(spans: &Spans, metrics: &dcd_obs::MetricsSnapshot, forward: &str) -> Self {
        let conv_all = spans.busy_ns(&CONV_SPANS) as f64;
        let flops = metrics.counter("conv.flops").unwrap_or(0) as f64;
        TensorBreakdown {
            conv_ns: spans.busy_ns(&["conv2d"]) as f64,
            conv_gflops: if conv_all > 0.0 {
                flops / conv_all
            } else {
                0.0
            },
            fc_ns: spans.gemm_outside_ns(&CONV_SPANS) as f64,
            backward_ns: spans.busy_ns(&["conv2d.backward"]) as f64,
            forward_ns: spans.busy_ns(&[forward]) as f64,
            forward_self_ns: spans.self_ns(forward, |c| {
                CONV_SPANS.contains(&c.name) || c.name == "gemm"
            }) as f64,
        }
    }

    /// Records the per-patch figures; `patches` is the number of patches
    /// (or samples) the window pushed through the network and `fc_bytes`
    /// the FC weight bytes it moved.
    pub fn record(&self, out: &mut Outcome, patches: f64, fc_bytes: f64) {
        out.set("tensor.conv_ms_per_patch", self.conv_ns / 1e6 / patches);
        out.set("tensor.conv_gflops", self.conv_gflops);
        out.set("tensor.fc_ms_per_patch", self.fc_ns / 1e6 / patches);
        if self.fc_ns > 0.0 {
            out.set("tensor.fc_weight_gbps", fc_bytes / self.fc_ns);
        }
        out.set("nn.forward_ms_per_patch", self.forward_ns / 1e6 / patches);
        out.set(
            "nn.forward_self_ms_per_patch",
            self.forward_self_ns / 1e6 / patches,
        );
    }
}

/// Tracing overhead: traced over untraced time per unit of work, percent.
pub fn overhead_pct(untraced_per_op: f64, traced_per_op: f64) -> f64 {
    (traced_per_op - untraced_per_op) / untraced_per_op * 100.0
}
