//! Pinned inputs and outputs. A change to the genealogy scripts, to the
//! operation generator or to what the engine answers changes one of these
//! constants' live counterparts, and the run is reported incorrect.

use crate::workloads::Scale;

/// `workloads::input_hash()`: the TasKy scripts and the Wikimedia history.
pub const INPUT_HASH: u64 = 0xffc3_67c3_2734_a028;

/// Final-state digest of each workload for seed 1 and three rounds, at the
/// measured sizes and at the smoke sizes.
const STATE_DIGESTS: [(&str, u64, u64); 5] = [
    ("tasky_do_mix", 0xbfa3_e5e3_6035_851f, 0x683e_4794_5d25_36ff),
    (
        "tasky2_mint_mix",
        0x6643_4e8a_e1c9_7ea8,
        0x683e_4794_5d25_36ff,
    ),
    ("wiki_evolve", 0x07fa_9d1e_3454_fc26, 0xd178_1957_d2d7_b43d),
    ("wiki_migrate", 0x07fa_9d1e_3454_fc26, 0xd178_1957_d2d7_b43d),
    (
        "serving_pinned",
        0x52bd_5d45_4941_7481,
        0x7e0a_bd09_d20d_3ed4,
    ),
];

pub fn state_digest(workload: &str, scale: Scale) -> Option<u64> {
    let (_, full, smoke) = STATE_DIGESTS.iter().find(|(name, ..)| *name == workload)?;
    match scale {
        Scale::Full => Some(*full),
        Scale::Smoke => Some(*smoke),
        Scale::Trace => None,
    }
}
