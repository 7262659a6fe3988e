//! One home for the engine's parallelism/batching **gate thresholds**.
//!
//! Before this module the numbers lived scattered at their call sites — the
//! minimum chunk size of every chunked scan was a literal `16` in four
//! places, and the delta engine's "is this write big enough to fan out"
//! gate was a private constant — which made multi-core re-measurement
//! (ROADMAP housekeeping) a code-editing exercise. Each threshold now has
//! exactly one definition, an environment override (read once per process,
//! at first use) so a bench sweep can vary it without recompiling, and a
//! runtime override for in-process sweeps:
//!
//! | Threshold | Default | Env override | Used by |
//! |---|---|---|---|
//! | [`min_chunk`] | 16 | `INVERDA_MIN_CHUNK` | every [`crate::parallel::chunk_ranges`] split: chunked rule scans ([`crate::eval`], [`crate::batch`]) and delta-probe/candidate batches ([`crate::delta`]) |
//! | [`par_min_work`] | 64 | `INVERDA_PAR_MIN_WORK` | the delta engine's fan-out gate: below this many probe tuples / candidate keys a write stays sequential |
//! | [`batch_min_keys`] | 64 | `INVERDA_BATCH_MIN_KEYS` | the batch executor's per-rule size gate: a depth-0 scan with fewer candidate keys runs on the frame machine ([`crate::batch`]) |
//!
//! **Determinism contract:** every threshold only decides *how work is
//! split or which equivalent engine runs it* — never what is computed. Any
//! value of any threshold produces byte-identical results (the differential
//! suites hold the engines to that), so sweeping these is always safe.
//!
//! The engine's other environment knobs — the on/off switches
//! `INVERDA_FUSION` and `INVERDA_BATCH`, the width `INVERDA_THREADS` — are
//! read by their own modules through the parsers here (`env_switch`,
//! `env_width`), which panic on a value they cannot read rather than let a
//! typo silently mean the default.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The meaning of one spelling of an on/off knob, `None` for an unknown one.
fn parse_switch(value: &str) -> Option<bool> {
    match value.trim() {
        "on" | "1" | "true" | "yes" => Some(true),
        "off" | "0" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// A worker-pool width: a positive integer, `None` for anything else.
fn parse_width(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|n| *n >= 1)
}

/// The on/off knob `var` as the environment has it: `default` when unset,
/// a panic on an unknown spelling.
pub(crate) fn env_switch(var: &str, default: bool) -> bool {
    match std::env::var(var) {
        Ok(v) => parse_switch(&v).unwrap_or_else(|| {
            panic!("{var}: expected on/1/true/yes or off/0/false/no, got '{v}'")
        }),
        Err(_) => default,
    }
}

/// The width knob `var` as the environment has it: `None` when unset, a
/// panic on anything but a positive integer.
pub(crate) fn env_width(var: &str) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    Some(parse_width(&v).unwrap_or_else(|| panic!("{var}: expected a positive integer, got '{v}'")))
}

/// Sentinel meaning "no runtime override installed".
const UNSET: usize = usize::MAX;

/// One threshold: its runtime override and its environment-or-default
/// value. The latter is resolved once per process — the gates are asked
/// several times per statement, and `std::env::var` takes the process-wide
/// environment lock and allocates.
struct Threshold {
    over: AtomicUsize,
    env: OnceLock<usize>,
    var: &'static str,
    default: usize,
}

impl Threshold {
    const fn new(var: &'static str, default: usize) -> Self {
        Threshold {
            over: AtomicUsize::new(UNSET),
            env: OnceLock::new(),
            var,
            default,
        }
    }

    fn read(&self) -> usize {
        let v = self.over.load(Ordering::Relaxed);
        if v != UNSET {
            return v;
        }
        *self.env.get_or_init(|| {
            std::env::var(self.var)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(self.default)
        })
    }

    fn write(&self, value: Option<usize>) {
        self.over.store(value.unwrap_or(UNSET), Ordering::Relaxed);
    }
}

static MIN_CHUNK: Threshold = Threshold::new("INVERDA_MIN_CHUNK", 16);
static PAR_MIN_WORK: Threshold = Threshold::new("INVERDA_PAR_MIN_WORK", 64);
static BATCH_MIN_KEYS: Threshold = Threshold::new("INVERDA_BATCH_MIN_KEYS", 64);

/// Minimum number of items per chunk when a scan is split across workers
/// (`INVERDA_MIN_CHUNK`, default 16). Larger values mean fewer, coarser
/// fragments; `1` splits as finely as the width allows.
pub fn min_chunk() -> usize {
    MIN_CHUNK.read().max(1)
}

/// Override [`min_chunk`] at runtime; `None` restores env/default behavior.
pub fn set_min_chunk(value: Option<usize>) {
    MIN_CHUNK.write(value);
}

/// Minimum probe-tuple / candidate-key count before a delta propagation
/// fans out (`INVERDA_PAR_MIN_WORK`, default 64). Below it, the
/// coordination overhead dwarfs the work: single-row OLTP writes stay on
/// the sequential path at every width.
pub fn par_min_work() -> usize {
    PAR_MIN_WORK.read()
}

/// Override [`par_min_work`] at runtime; `None` restores env/default
/// behavior.
pub fn set_par_min_work(value: Option<usize>) {
    PAR_MIN_WORK.write(value);
}

/// Minimum depth-0 candidate count before a rule runs on the batch
/// executor (`INVERDA_BATCH_MIN_KEYS`, default 64). Below it the block
/// set-up cost cannot amortize and the tuple-at-a-time frame machine is
/// cheaper — small delta recomputations stay where they are fastest.
pub fn batch_min_keys() -> usize {
    BATCH_MIN_KEYS.read()
}

/// Override [`batch_min_keys`] at runtime; `None` restores env/default
/// behavior.
pub fn set_batch_min_keys(value: Option<usize>) {
    BATCH_MIN_KEYS.write(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_spellings() {
        for on in ["on", "1", "true", "yes", " on "] {
            assert_eq!(parse_switch(on), Some(true), "{on}");
        }
        for off in ["off", "0", "false", "no", "off\n"] {
            assert_eq!(parse_switch(off), Some(false), "{off}");
        }
        for unknown in ["", "of", "ON", "enabled", "2"] {
            assert_eq!(parse_switch(unknown), None, "{unknown}");
        }
    }

    #[test]
    fn width_spellings() {
        for (value, width) in [("1", 1), ("4", 4), (" 8 ", 8)] {
            assert_eq!(parse_width(value), Some(width), "{value}");
        }
        for unknown in ["", "0", "abc", "-2", "2.5", "four"] {
            assert_eq!(parse_width(unknown), None, "{unknown}");
        }
    }

    /// One body for everything that toggles the process-global overrides —
    /// separate `#[test]` fns would race under libtest's parallel runner.
    #[test]
    fn overrides_win_and_restore() {
        let env_free = [
            "INVERDA_MIN_CHUNK",
            "INVERDA_PAR_MIN_WORK",
            "INVERDA_BATCH_MIN_KEYS",
        ]
        .iter()
        .all(|v| std::env::var(v).is_err());
        if env_free {
            assert_eq!(min_chunk(), 16);
            assert_eq!(par_min_work(), 64);
            assert_eq!(batch_min_keys(), 64);
        }
        set_min_chunk(Some(3));
        set_par_min_work(Some(1));
        set_batch_min_keys(Some(100));
        assert_eq!(min_chunk(), 3);
        assert_eq!(par_min_work(), 1);
        assert_eq!(batch_min_keys(), 100);
        // min_chunk of 0 would loop forever in chunk_ranges; clamped to 1.
        set_min_chunk(Some(0));
        assert_eq!(min_chunk(), 1);
        set_min_chunk(None);
        set_par_min_work(None);
        set_batch_min_keys(None);
        if env_free {
            assert_eq!(min_chunk(), 16);
            assert_eq!(par_min_work(), 64);
            assert_eq!(batch_min_keys(), 64);
        }
    }
}
