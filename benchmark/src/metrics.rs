//! The metric registry: every end-to-end and per-layer metric the benchmark
//! reports, with its unit, its direction, and — for a layer metric — the
//! workload whose traced run measures it and the end-to-end metric it should
//! move. `BENCHMARK.json` at the root of the repo lists the same names; a unit
//! test keeps the two in step.

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// ISSUE.md asked for a tenth (a twentieth for memory). The reference box
/// does not resolve that: over ten runs with other seeds the quartile distance
/// of a time metric is 1-8 % of its median in a calm hour and 4-13 % in a
/// stormy one (README, "Noise"), and the driver rejects the benchmark when a
/// distance exceeds the bound and wants it below a third of it. Every time
/// metric therefore has the widest bound the driver's contract allows;
/// `peak_rss_mb`, whose distance stays below 7.5 %, has a fifth.
pub const END_TO_END: &[EndToEndMetric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "txn/s", true, 0.25),
    e2e("write_p50_us", "us", false, 0.25),
    e2e("write_p90_us", "us", false, 0.25),
    e2e("read_p50_us", "us", false, 0.25),
    e2e("read_p90_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.20),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The workload whose traced run measures it; `*` for the two harness
    /// ratios, which the workload named on the command line reports.
    pub owner: &'static str,
    /// `workload/metric` this layer metric should move.
    pub moves: &'static str,
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    owner: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better: false,
        owner,
        moves,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    owner: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better: true,
        owner,
        moves,
    }
}

const DO: &str = "tasky_do_mix";
const MINT: &str = "tasky2_mint_mix";
const EVOLVE: &str = "wiki_evolve";
const MIGRATE: &str = "wiki_migrate";
const SERVING: &str = "serving_pinned";

/// One row per metric: direction(name, unit, measured by, moves).
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    // bidel
    lower("bidel.parse_us", "us", EVOLVE, "wiki_evolve/ops_per_s"),
    lower("bidel.parse_history_ms", "ms", EVOLVE, "wiki_evolve/setup_s"),
    // catalog / core.database
    lower("core.database.create_version_us", "us", EVOLVE, "wiki_evolve/ops_per_s"),
    lower("core.database.drop_version_us", "us", EVOLVE, "wiki_evolve/ops_per_s"),
    lower("catalog.register_us", "us", EVOLVE, "wiki_evolve/ops_per_s"),
    lower("core.database.install_history_ms", "ms", EVOLVE, "wiki_evolve/setup_s"),
    // storage
    higher("storage.load_rows_per_s", "1/s", DO, "tasky_do_mix/setup_s"),
    lower("storage.physical_rows", "count", DO, "tasky_do_mix/peak_rss_mb"),
    lower("storage.rows_per_logical_row", "ratio", DO, "tasky_do_mix/peak_rss_mb"),
    // core.write
    lower("core.write.physical_apply_us", "us", DO, "tasky_do_mix/write_p50_us"),
    lower("core.write.delta_insert_us", "us", DO, "tasky_do_mix/write_p50_us"),
    lower("core.write.delta_update_us", "us", DO, "tasky_do_mix/write_p50_us"),
    lower("core.write.delta_delete_us", "us", DO, "tasky_do_mix/write_p50_us"),
    lower("core.write.mint_insert_us", "us", MINT, "tasky2_mint_mix/write_p50_us"),
    lower("core.write.mint_update_us", "us", MINT, "tasky2_mint_mix/write_p50_us"),
    lower("core.write.mint_delete_us", "us", MINT, "tasky2_mint_mix/write_p50_us"),
    lower("core.write.chain_cold_us", "us", EVOLVE, "wiki_evolve/write_p90_us"),
    lower("core.write.chain_warm_us", "us", EVOLVE, "wiki_evolve/write_p50_us"),
    lower("core.write.chain_warm_us_per_hop", "us", EVOLVE, "wiki_evolve/write_p50_us"),
    // core.query / core.edb / core.snapshot
    lower("core.query.get_us", "us", DO, "tasky_do_mix/read_p50_us"),
    lower("core.query.filter_us", "us", DO, "tasky_do_mix/read_p50_us"),
    lower("core.query.scan_us", "us", DO, "tasky_do_mix/read_p50_us"),
    lower("core.query.rows_per_read", "count", DO, "tasky_do_mix/read_p50_us"),
    lower("core.edb.cold_scan_us", "us", MINT, "tasky2_mint_mix/read_p50_us"),
    lower("core.edb.chain_cold_probe_us", "us", EVOLVE, "wiki_evolve/read_p50_us"),
    lower("core.edb.chain_cold_scan_page_us", "us", EVOLVE, "wiki_evolve/read_p50_us"),
    lower("core.edb.chain_cold_scan_links_us", "us", EVOLVE, "wiki_evolve/read_p50_us"),
    lower("core.edb.chain_cold_scan_fresh_us", "us", EVOLVE, "wiki_evolve/read_p50_us"),
    lower("core.edb.chain_warm_scan_us", "us", EVOLVE, "wiki_evolve/read_p50_us"),
    // core.migrate
    lower("core.migrate.forward_s", "s", MIGRATE, "wiki_migrate/write_p50_us"),
    lower("core.migrate.back_s", "s", MIGRATE, "wiki_migrate/write_p50_us"),
    lower("core.migrate.rows_moved", "count", MIGRATE, "wiki_migrate/write_p50_us"),
    higher("core.migrate.rows_per_s", "1/s", MIGRATE, "wiki_migrate/write_p50_us"),
    lower("core.migrate.verify_ms", "ms", MIGRATE, "wiki_migrate/read_p50_us"),
    // core.durability
    lower("core.durability.wal_bytes_per_write", "B", SERVING, "serving_pinned/write_p50_us"),
    lower("core.durability.memory_write_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.durability.direct_write_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.durability.overhead_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.durability.flush_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.durability.checkpoint_ms", "ms", SERVING, "serving_pinned/setup_s"),
    lower("core.durability.recovery_ms", "ms", SERVING, "serving_pinned/setup_s"),
    lower("core.durability.recovery_records", "count", SERVING, "serving_pinned/setup_s"),
    // core.serving
    lower("core.serving.ack_pinned_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.serving.ack_unpinned_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.serving.pin_retention_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.serving.pipeline_overhead_us", "us", SERVING, "serving_pinned/write_p50_us"),
    lower("core.serving.pin_us", "us", SERVING, "serving_pinned/ops_per_s"),
    lower("core.serving.pinned_get_us", "us", SERVING, "serving_pinned/read_p50_us"),
    lower("core.serving.pinned_count_us", "us", SERVING, "serving_pinned/read_p50_us"),
    lower("core.serving.epochs", "count", SERVING, "serving_pinned/ops_per_s"),
    // harness
    lower("harness.overhead_ratio", "ratio", "*", "*/ops_per_s"),
    lower("trace.overhead_ratio", "ratio", "*", "*/ops_per_s"),
    lower("harness.slowdown", "ratio", "*", "none: the box, not the engine"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEndMetric> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| layer(name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}
