//! # inverda-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 8). Each `bin/` target prints one artifact:
//!
//! | binary        | artifact  |
//! |---------------|-----------|
//! | `table2`      | Table 2 — valid materialization schemas of TasKy |
//! | `table3`      | Table 3 — BiDEL vs SQL code sizes |
//! | `table4`      | Table 4 — Wikimedia SMO histogram |
//! | `fig8`        | Figure 8 — generated vs handwritten delta code |
//! | `fig9`        | Figure 9 — fixed vs flexible materialization (TasKy→TasKy2) |
//! | `fig10`       | Figure 10 — three-version adoption (Do!→TasKy2) |
//! | `fig11`       | Figure 11 — workloads × all materializations |
//! | `fig12`       | Figure 12 — Wikimedia optimization potential |
//! | `fig13`       | Figure 13 — two-SMO scaling & calculated-vs-measured |
//! | `gen_latency` | Section 8.1 — delta-code generation latency |
//! | `formal`      | Section 5 / Appendix A — mechanical bidirectionality proofs |
//!
//! Scale knobs (environment): `INVERDA_TASKS` (default 10 000 or 5 000;
//! paper 100 000), `INVERDA_WRITES`, `INVERDA_SLICES`, `INVERDA_OPS`,
//! `INVERDA_PAIR_ROWS`, `INVERDA_WIKI_SCALE` (default 0.1; paper 1.0). A
//! value that does not parse panics rather than run at the default scale.
//! Absolute times differ from the paper's PostgreSQL setup; the *shapes*
//! (who wins, crossovers, asymmetries) are the reproduction target — see
//! EXPERIMENTS.md. The engine's performance is measured by the benchmark
//! of record in `benchmark/`, not here.

#![warn(missing_docs)]

use std::str::FromStr;
use std::time::{Duration, Instant};

/// Read an environment scale knob: `default` when unset. Panics on a value
/// that does not parse rather than letting a typo silently mean "default".
pub fn env_usize(name: &str, default: usize) -> usize {
    env_parse(name, default)
}

/// Read a float environment knob, as [`env_usize`] does.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_parse(name, default)
}

fn env_parse<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}: expected a number, got '{v}'")),
        Err(_) => default,
    }
}

/// Time a closure, returning (duration, result).
pub fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median duration of `reps` runs of `f` (result discarded).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let d = start.elapsed();
            std::hint::black_box(out);
            d
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a header for a reproduction artifact.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref})");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_usize("INVERDA_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_f64("INVERDA_NO_SUCH_VAR", 0.5), 0.5);
    }

    #[test]
    #[should_panic(expected = "INVERDA_TEST_TASKS_TYPO: expected a number, got '10k'")]
    fn env_usize_rejects_a_typo() {
        std::env::set_var("INVERDA_TEST_TASKS_TYPO", "10k");
        env_usize("INVERDA_TEST_TASKS_TYPO", 10_000);
    }

    #[test]
    #[should_panic(expected = "INVERDA_TEST_SCALE_TYPO: expected a number, got '0,002'")]
    fn env_f64_rejects_a_typo() {
        std::env::set_var("INVERDA_TEST_SCALE_TYPO", "0,002");
        env_f64("INVERDA_TEST_SCALE_TYPO", 0.1);
    }

    #[test]
    fn median_is_stable() {
        let d = median_time(3, || 21 + 21);
        assert!(d < Duration::from_secs(1));
        assert!(!ms(d).is_empty());
    }
}
