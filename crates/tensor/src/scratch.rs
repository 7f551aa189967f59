//! Thread-local scratch arena for kernel work buffers.
//!
//! The conv/GEMM hot path used to heap-allocate its intermediates (`im2col`
//! columns, GEMM pack panels, `col2im` staging) with `vec!` on every call —
//! per sample, per tile, per NAS trial. This module replaces those with a
//! per-thread free list of `f32` buffers: [`take`] hands out a zeroed
//! buffer of the requested length, [`release`] returns it with its capacity
//! intact, and in steady state no call touches the allocator at all.
//!
//! Design:
//! * The pool is `thread_local!`, so rayon workers never contend and a
//!   buffer's contents can never be observed by another thread. A buffer
//!   released on a different thread than it was taken from simply migrates
//!   pools — capacity is conserved globally either way.
//! * [`take`] zero-fills. That costs one memset per checkout, but it makes
//!   reuse indistinguishable from a fresh `vec![0.0; len]`: kernels like
//!   `im2col` that only write the in-bounds positions stay correct, and no
//!   stale data from a previous caller can leak into a result (which would
//!   also break the workspace's bit-determinism guarantee).
//! * [`take_overwrite`] skips that memset, for kernels that write every
//!   element before reading any: the convolution forward pass's padded
//!   input copy and packed slabs, and the backward pass's padded copy,
//!   scattered gradient, packed slices, gradient columns and per-sample
//!   accumulators, which would otherwise be cleared only to be overwritten.
//! * Checkout prefers the smallest pooled buffer whose capacity fits, so a
//!   mixed workload (tiny bias panels next to megabyte slabs) does not burn
//!   its big buffers on small requests.
//! * Every capacity growth increments a global counter, [`grow_events`].
//!   Tests use the counter to prove the steady-state claim: after a warm-up
//!   call, repeated `conv2d` invocations must not grow anything.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of scratch allocations/growths since process start.
static GROW_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread free list of released buffers.
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// This thread's share of [`GROW_EVENTS`]: unit tests run on parallel
    /// harness threads, so they assert on their own thread's growth.
    static THREAD_GROWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Checks out a zeroed buffer of exactly `len` elements.
///
/// Pair with [`release`]; a buffer that is never released is just a normal
/// allocation (nothing leaks, the pool only loses the reuse).
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = checkout(len);
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Checks out a buffer of exactly `len` elements **without** clearing what
/// its previous user left in it (only a grown tail is zero-filled).
///
/// For kernels that write every element before reading any — the
/// convolution forward pass's padded input and packed slabs — and would
/// otherwise pay [`take`]'s memset for nothing. Pair with [`release`].
pub fn take_overwrite(len: usize) -> Vec<f32> {
    let mut buf = checkout(len);
    buf.resize(len, 0.0);
    buf
}

/// Pops the pooled buffer best suited to hold `len` elements (contents and
/// length as released), counting a growth when none has the capacity.
fn checkout(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let buf = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        // Smallest pooled buffer that fits without growing; otherwise the
        // overall largest, which minimizes the size of the growth.
        let mut best: Option<(usize, bool)> = None; // (index, fits)
        for (i, b) in pool.iter().enumerate() {
            let fits = b.capacity() >= len;
            best = match best {
                None => Some((i, fits)),
                Some((bi, bfits)) => {
                    let better = match (fits, bfits) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => b.capacity() < pool[bi].capacity(),
                        (false, false) => b.capacity() > pool[bi].capacity(),
                    };
                    if better {
                        Some((i, fits))
                    } else {
                        Some((bi, bfits))
                    }
                }
            };
        }
        match best {
            Some((i, _)) => pool.swap_remove(i),
            None => Vec::new(),
        }
    });
    if buf.capacity() < len {
        GROW_EVENTS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_GROWS.with(|g| g.set(g.get() + 1));
    }
    buf
}

/// Returns a buffer to this thread's pool, keeping its capacity for reuse.
pub fn release(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|pool| pool.borrow_mut().push(buf));
}

/// How many times [`take`] has had to allocate or grow, process-wide.
///
/// Monotone; tests snapshot it around a workload to assert steady-state
/// reuse (`delta == 0` after warm-up).
pub fn grow_events() -> u64 {
    GROW_EVENTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_grows() -> u64 {
        THREAD_GROWS.with(|g| g.get())
    }

    #[test]
    fn take_returns_zeroed_buffer_of_len() {
        let mut b = take(17);
        assert_eq!(b.len(), 17);
        assert!(b.iter().all(|&x| x == 0.0));
        b.iter_mut().for_each(|x| *x = 5.0);
        release(b);
        // Reused buffer is re-zeroed.
        let b2 = take(17);
        assert_eq!(b2.len(), 17);
        assert!(b2.iter().all(|&x| x == 0.0));
        release(b2);
    }

    #[test]
    fn steady_state_does_not_grow() {
        // Warm the pool with the sizes we'll request.
        let (a, b) = (take(1000), take(50));
        release(a);
        release(b);
        let before = thread_grows();
        for _ in 0..100 {
            let a = take(1000);
            let b = take(50);
            release(b);
            release(a);
        }
        assert_eq!(thread_grows(), before, "steady-state take/release grew");
    }

    #[test]
    fn prefers_smallest_fitting_buffer() {
        release(Vec::with_capacity(1 << 16));
        release(Vec::with_capacity(64));
        let small = take(10);
        assert!(
            small.capacity() < 1 << 16,
            "small request took the big buffer"
        );
        let big = take(1 << 15);
        assert!(big.capacity() >= 1 << 16, "big buffer was not reused");
        release(small);
        release(big);
    }

    #[test]
    fn take_overwrite_reuses_any_fitting_length() {
        release(vec![3.0; 40]);
        let before = thread_grows();
        // Shorter and longer than the released length, within capacity.
        let short = take_overwrite(10);
        assert_eq!(short.len(), 10);
        release(short);
        let long = take_overwrite(40);
        assert_eq!(long.len(), 40);
        assert_eq!(thread_grows(), before, "a fitting buffer was not reused");
        release(long);
    }

    #[test]
    fn zero_len_take_is_free() {
        let before = thread_grows();
        let b = take(0);
        assert!(b.is_empty());
        release(b);
        assert_eq!(thread_grows(), before);
    }
}
