//! One home for the engine's parallelism **gate threshold** and the
//! parsers of its environment knobs.
//!
//! The threshold has exactly one definition, an environment override (read
//! once per process, at first use) so a bench sweep can vary it without
//! recompiling, and a runtime override for in-process sweeps:
//!
//! | Threshold | Default | Env override | Used by |
//! |---|---|---|---|
//! | [`min_chunk`] | 16 | `INVERDA_MIN_CHUNK` | every [`crate::parallel::chunk_ranges`] split of the chunked rule scans ([`crate::eval`]) |
//!
//! **Determinism contract:** the threshold only decides *how work is
//! split* — never what is computed. Any value produces byte-identical
//! results (the differential suites hold the engine to that), so sweeping
//! it is always safe.
//!
//! The threshold, the on/off switch `INVERDA_FUSION` and the width
//! `INVERDA_THREADS` are read through the parsers here (`parse_threshold`,
//! `env_switch`, `env_width`), which panic on a value they cannot read
//! rather than let a typo silently mean the default.

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

/// A gate threshold: a non-negative integer, `None` for anything else.
fn parse_threshold(value: &str) -> Option<usize> {
    value.trim().parse().ok()
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
        *self.env.get_or_init(|| match std::env::var(self.var) {
            Ok(v) => parse_threshold(&v).unwrap_or_else(|| {
                panic!("{}: expected a non-negative integer, got '{v}'", self.var)
            }),
            Err(_) => self.default,
        })
    }

    fn write(&self, value: Option<usize>) {
        self.over.store(value.unwrap_or(UNSET), Ordering::Relaxed);
    }
}

static MIN_CHUNK: Threshold = Threshold::new("INVERDA_MIN_CHUNK", 16);

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

    #[test]
    fn threshold_spellings() {
        for (value, n) in [("0", 0), ("1", 1), ("64", 64), (" 16\n", 16)] {
            assert_eq!(parse_threshold(value), Some(n), "{value}");
        }
        for unknown in ["", "abc", "-1", "2.5", "sixteen"] {
            assert_eq!(parse_threshold(unknown), None, "{unknown}");
        }
    }

    /// One body for everything that toggles the process-global override —
    /// separate `#[test]` fns would race under libtest's parallel runner.
    #[test]
    fn overrides_win_and_restore() {
        let env_free = std::env::var("INVERDA_MIN_CHUNK").is_err();
        if env_free {
            assert_eq!(min_chunk(), 16);
        }
        set_min_chunk(Some(3));
        assert_eq!(min_chunk(), 3);
        // min_chunk of 0 would loop forever in chunk_ranges; clamped to 1.
        set_min_chunk(Some(0));
        assert_eq!(min_chunk(), 1);
        set_min_chunk(None);
        if env_free {
            assert_eq!(min_chunk(), 16);
        }
    }
}
