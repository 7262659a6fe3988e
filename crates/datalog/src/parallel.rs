//! The engine's parallelism knob and shared thread pool.
//!
//! The engine's one parallel fan-out — the bulk evaluator's independent
//! rules of one γ mapping and chunked join scans ([`crate::eval`]) — draws
//! its workers from one process-wide [`ThreadPool`] (the vendored
//! `workpool` crate) and its *logical width* from [`threads`]. Write
//! propagation is sequential at every width.
//!
//! * `INVERDA_THREADS=1` (or [`set_threads`]`(1)`) disables every parallel
//!   path — the engine runs exactly the sequential code that existed before
//!   parallel evaluation landed;
//! * `INVERDA_THREADS=n` fans out into ~`n`-way task splits;
//! * unset, the width defaults to [`std::thread::available_parallelism`].
//!
//! **Determinism contract** (see DESIGN.md "Parallel evaluation &
//! deterministic merge"): the width only decides how work is *split*. The
//! bulk evaluator merges its fragments in canonical task order, and its
//! workers mint only through reservation arenas committed in that order;
//! write propagation and snapshot maintenance never run on the pool. So
//! results — including skolem id assignment — are byte-identical at every
//! width.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use workpool::ThreadPool;

/// Runtime override of the logical width; 0 = not set.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide pool, created on first parallel use.
static POOL: OnceLock<ThreadPool> = OnceLock::new();

/// The machine's available parallelism, probed once per process: the
/// standard library re-reads the cgroup CPU quota on every call (≈ 12 µs on
/// Linux), and [`threads`] is asked at every parallelism gate — several
/// times per statement.
fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `INVERDA_THREADS`, read once per process: [`threads`] is asked at every
/// parallelism gate, and `std::env::var` takes the process-wide environment
/// lock and allocates. Panics on anything but a positive integer rather than
/// letting a typo silently mean the default.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| crate::tuning::env_width("INVERDA_THREADS"))
}

/// The configured logical parallelism: a [`set_threads`] override, else the
/// `INVERDA_THREADS` environment variable as the process found it at first
/// use, else the machine's available parallelism. `1` means "stay on the sequential paths".
pub fn threads() -> usize {
    let over = OVERRIDE.load(Ordering::Relaxed);
    if over >= 1 {
        return over;
    }
    env_threads().unwrap_or_else(available)
}

/// Override the logical width at runtime (benchmarks sweep 1/2/4/8; the
/// differential property tests randomize it per case). `None` restores the
/// `INVERDA_THREADS` / auto-detect behavior.
pub fn set_threads(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The shared pool. Sized once, generously (`max(available, 8) - 1`
/// workers, the scope owner being the extra one), so a width override above
/// the core count still genuinely interleaves — that is what lets the
/// differential tests exercise real cross-thread execution even on small
/// CI machines.
pub fn pool() -> &'static ThreadPool {
    POOL.get_or_init(|| {
        let width = available().max(env_threads().unwrap_or(0)).clamp(8, 16);
        ThreadPool::new(width - 1)
    })
}

/// Run `n` independent tasks at the configured width and return results in
/// task order. With width 1 (or a single task) everything runs inline on
/// the caller — byte-identical results either way is the caller's contract:
/// tasks must be pure (no id minting, no shared mutable state beyond
/// interior-mutability caches whose content is deterministic).
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = threads();
    if width <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    pool().map_indexed(n, width, f)
}

/// Split `len` items into at most `width * 2` contiguous chunks of at
/// least [`crate::tuning::min_chunk`] items, returned as `(start, end)`
/// ranges covering `0..len` in order. Used by the chunked join scans:
/// fragment boundaries never change results, only how evaluation is
/// distributed.
pub fn chunk_ranges(len: usize, width: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let max_chunks = (width.max(1) * 2).max(1);
    let chunk = (len.div_ceil(max_chunks)).max(crate::tuning::min_chunk());
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push((start, end));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_in_order() {
        for len in [0usize, 1, 7, 64, 1000] {
            for width in [1usize, 2, 4, 8] {
                let ranges = chunk_ranges(len, width);
                let mut expect = 0;
                for (s, e) in &ranges {
                    assert_eq!(*s, expect);
                    assert!(*e > *s);
                    expect = *e;
                }
                assert_eq!(expect, len);
                assert!(ranges.len() <= width * 2 + 1);
            }
        }
    }

    /// One test body for everything that toggles the process-global width
    /// override — separate `#[test]` fns would race each other through
    /// `set_threads` under libtest's default parallel execution.
    #[test]
    fn width_override_behaviors() {
        // Order-deterministic at width 4.
        set_threads(Some(4));
        let out = map_indexed(257, |i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
        // Width 1 never touches the pool.
        set_threads(Some(1));
        let tid = std::thread::current().id();
        let out = map_indexed(5, move |_| std::thread::current().id() == tid);
        assert!(out.iter().all(|b| *b));
        set_threads(None);
    }
}
