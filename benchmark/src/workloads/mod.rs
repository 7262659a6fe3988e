//! The five workloads. Sizes are committed constants; the costs quoted beside
//! them were measured on the 2-core reference box and are there for sizing
//! only.

pub mod serving;
pub mod tasky;
pub mod wiki;

use crate::harness::{Fnv, Recorder};
use inverda_workloads::tasky as tasky_gen;
use inverda_workloads::wikimedia;

pub const NAMES: [&str; 5] = [
    "tasky_do_mix",
    "tasky2_mint_mix",
    "wiki_evolve",
    "wiki_migrate",
    "serving_pinned",
];

pub const WHY: [&str; 5] = [
    "warm write through a virtual version (Do!), read back through all three: delta path, reverse maintenance, snapshot patching",
    "same reads, writes through TasKy2 (FK DECOMPOSE): skolem-minting staged path, sibling snapshot invalidated and re-resolved cold",
    "171-version Wikimedia history: create a version on the head, read and write through it cold 63 hops from the data, drop it",
    "MATERIALIZE the Wikimedia data 62 hops forward and back, verifying row counts through four versions after each move",
    "durable served request: group-commit pipeline ack with an epoch pin outstanding, then reads through the old pin",
];

/// How much of each workload to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured sizes: a round is about four seconds on the reference box.
    Full,
    /// The traced run: the same data, a shorter round.
    Trace,
    /// `--smoke` and the unit tests: everything, in a second or two.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "trace" => Some(Scale::Trace),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Trace => "trace",
            Scale::Smoke => "smoke",
        }
    }
}

/// The window's rounds, and the iterations of the discarded warm-up round and
/// of each window round.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub rounds: usize,
    pub warmup: usize,
    pub round: usize,
}

impl Plan {
    /// `(full-size warm-up, full-size round)`; the traced run halves the
    /// round, the smoke run cuts both to a few iterations.
    fn of(scale: Scale, rounds: usize, warmup: usize, round: usize, smoke: usize) -> Plan {
        let (warmup, round) = match scale {
            Scale::Full => (warmup, round),
            Scale::Trace => (warmup, round / 2),
            Scale::Smoke => (smoke, smoke),
        };
        Plan {
            rounds,
            warmup,
            round,
        }
    }
}

pub trait Workload {
    /// Run `n` iterations of the closed loop.
    fn iterate(&mut self, rec: &mut Recorder, n: usize);

    /// Checks that are too dear for the timed loop, run with the round clock
    /// stopped.
    fn between_rounds(&mut self, _rec: &mut Recorder) {}

    /// After the window: the cross-version invariants, and the digest of the
    /// final state.
    fn verify(&mut self, rec: &mut Recorder) -> u64;

    /// Traced run only, after `verify`: run the after-window probes and
    /// report this workload's layer metrics.
    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>);
}

/// Everything before the warm-up round: engine, genealogy, bulk load, first
/// cold resolution, and the generated operations of `rounds` rounds.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    rounds: usize,
    rec: &mut Recorder,
) -> Option<(Box<dyn Workload>, Plan)> {
    Some(match name {
        "tasky_do_mix" => tasky::build(tasky::Via::Do, seed, scale, rounds, rec),
        "tasky2_mint_mix" => tasky::build(tasky::Via::Tasky2, seed, scale, rounds, rec),
        "wiki_evolve" => wiki::build_evolve(seed, scale, rounds, rec),
        "wiki_migrate" => wiki::build_migrate(scale, rounds, rec),
        "serving_pinned" => serving::build(seed, scale, rounds, rec),
        _ => return None,
    })
}

/// FNV-1a over every BiDEL script a workload installs: a changed genealogy
/// changes what is measured, so it must change this hash too.
pub fn input_hash() -> u64 {
    let mut h = Fnv::default();
    for s in [
        tasky_gen::SCRIPT_TASKY,
        tasky_gen::SCRIPT_DO,
        tasky_gen::SCRIPT_TASKY2,
    ] {
        h.str(s);
    }
    for s in wikimedia::history_scripts() {
        h.str(&s);
    }
    h.finish()
}
