//! Steady-state allocation behaviour of the scratch arena.
//!
//! After a warm-up call, repeated conv2d forward/backward passes at a fixed
//! shape — and conv forward passes and fully-connected products at the
//! batch sizes a scan issues — must run entirely out of the thread-local
//! scratch pool: the global
//! grow-event counter must not move. Run single-threaded so every
//! `scratch::take` hits the same thread-local pool that the warm-up filled —
//! under the work-stealing pool the sample loop may land on a worker with a
//! cold pool, which is fine in production (each worker warms once) but would
//! make the counter nondeterministic here.

use dcd_tensor::{
    conv2d, conv2d_backward, conv2d_relu, gemm_bias_relu, scratch, SeededRng, Tensor,
};
use std::sync::Mutex;

/// `grow_events` is process-global while pools are thread-local; serialize
/// the tests in this binary so one test's warm-up growth cannot land inside
/// another's snapshot window when the harness runs them on parallel threads.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn conv2d_steady_state_does_not_grow_scratch() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    rayon::force_sequential(|| {
        let mut rng = SeededRng::new(71);
        let x = Tensor::randn([2, 4, 24, 24], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([8, 4, 3, 3], 0.0, 0.2, &mut rng);
        let b = Tensor::randn([8], 0.0, 0.1, &mut rng);
        let go = Tensor::randn([2, 8, 24, 24], 0.0, 1.0, &mut rng);

        // Warm-up: first calls populate the pool with every buffer size the
        // shape needs (im2col cols, packed panels, gradient cols).
        for _ in 0..2 {
            std::hint::black_box(conv2d(&x, &w, &b, 1, 1));
            std::hint::black_box(conv2d_backward(&x, &w, &go, 1, 1));
        }

        let before = scratch::grow_events();
        for _ in 0..10 {
            std::hint::black_box(conv2d(&x, &w, &b, 1, 1));
            std::hint::black_box(conv2d_backward(&x, &w, &go, 1, 1));
        }
        let after = scratch::grow_events();
        assert_eq!(
            before,
            after,
            "scratch pool grew in steady state: {} new allocations",
            after - before
        );
    });
}

#[test]
fn mixed_shapes_settle_after_one_round() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    rayon::force_sequential(|| {
        let mut rng = SeededRng::new(73);
        let shapes: Vec<(Tensor, Tensor, Tensor)> = [(4usize, 16usize), (8, 12), (3, 20)]
            .iter()
            .map(|&(c, s)| {
                (
                    Tensor::randn([1, c, s, s], 0.0, 1.0, &mut rng),
                    Tensor::randn([6, c, 3, 3], 0.0, 0.2, &mut rng),
                    Tensor::randn([6], 0.0, 0.1, &mut rng),
                )
            })
            .collect();

        // One interleaved round allocates the high-water-mark buffers.
        for (x, w, b) in &shapes {
            std::hint::black_box(conv2d(x, w, b, 1, 1));
        }
        let before = scratch::grow_events();
        for _ in 0..5 {
            for (x, w, b) in &shapes {
                std::hint::black_box(conv2d(x, w, b, 1, 1));
            }
        }
        assert_eq!(
            scratch::grow_events(),
            before,
            "alternating shapes should reuse pooled buffers"
        );
    });
}

#[test]
fn conv_scan_batches_do_not_grow_scratch() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    rayon::force_sequential(|| {
        // A scan runs the full batch of 32, then its ragged last chunk of 9;
        // queries run batch 1, which splits each sample across the pool.
        // The per-sample padded image and packed slab depend only on the
        // layer shape, so one warm-up call at batch 32 covers all three.
        let mut rng = SeededRng::new(89);
        let w = Tensor::randn([8, 4, 3, 3], 0.0, 0.2, &mut rng);
        let b = Tensor::randn([8], 0.0, 0.1, &mut rng);
        let inputs: Vec<Tensor> = [32usize, 9, 1]
            .iter()
            .map(|&n| Tensor::randn([n, 4, 24, 24], 0.0, 1.0, &mut rng))
            .collect();

        std::hint::black_box(conv2d_relu(&inputs[0], &w, &b, 1, 1));
        let before = scratch::grow_events();
        for _ in 0..3 {
            for x in &inputs {
                std::hint::black_box(conv2d_relu(x, &w, &b, 1, 1));
            }
        }
        assert_eq!(
            scratch::grow_events(),
            before,
            "conv forward at batch 32, 9 and 1 after a batch-32 warm-up grew the scratch pool"
        );
    });
}

#[test]
fn fc_steady_state_does_not_grow_scratch() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    rayon::force_sequential(|| {
        // A DRAM-sized B (k·n ≥ 2^21): m = 32 and 9 take the blocked path,
        // m = 1 the thin one. One warm-up call at the full batch must cover
        // every later call — the scan's ragged last chunk and batch-1
        // queries included — because the per-task slab and staging chunks
        // come in fixed size classes that do not depend on the shape.
        let (k, n) = (600, 3500);
        let mut rng = SeededRng::new(79);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 0.5, &mut rng);
        let inputs: Vec<(usize, Tensor)> = [32usize, 9, 1]
            .iter()
            .map(|&m| (m, Tensor::randn([m, k], 0.0, 1.0, &mut rng)))
            .collect();
        let fc = |m: usize, a: &Tensor| gemm_bias_relu(a.data(), b.data(), bias.data(), m, k, n);

        std::hint::black_box(fc(32, &inputs[0].1));
        let before = scratch::grow_events();
        for _ in 0..3 {
            for (m, a) in &inputs {
                std::hint::black_box(fc(*m, a));
            }
        }
        assert_eq!(
            scratch::grow_events(),
            before,
            "fc products after an m = 32 warm-up grew the scratch pool"
        );
    });
}
