//! Which end-to-end metric each per-layer metric should move, and on which
//! workload. `README.md` carries the same table.

/// (metric, layer, end-to-end metrics it moves, workload it shows on).
pub const LAYERS: [(&str, &str, &str, &str); 30] = [
    ("rdf.parse_s", "rdf parser", "setup_s", "all"),
    ("storage.build_s", "storage build", "setup_s", "all"),
    ("reasoning.saturate_s", "reasoning", "setup_s", "all"),
    (
        "reasoning.apply_us_p50",
        "reasoning",
        "write_p50_us",
        "churn",
    ),
    (
        "reasoning.sat_delta_per_batch",
        "reasoning",
        "write_p50_us",
        "churn",
    ),
    (
        "query.parse_us_p50",
        "query parser",
        "lat_p50_us",
        "cold_mix",
    ),
    ("share.parse", "query parser", "lat_p50_us", "cold_mix"),
    ("share.plan_cache", "core::cache", "qps", "cold_mix"),
    (
        "share.plan_ucq",
        "core::reformulate",
        "ref_ucq_mix_us, qps",
        "cold_mix (no change on hot_mix)",
    ),
    (
        "share.plan_scq",
        "core::reformulate",
        "ref_scq_mix_us",
        "cold_mix (no change on hot_mix)",
    ),
    (
        "share.gcov",
        "core::gcov",
        "ref_gcov_mix_us, lat_p50_us",
        "cold_mix",
    ),
    (
        "reformulate.cqs_per_req",
        "core::reformulate",
        "ref_ucq_mix_us, qps",
        "cold_mix",
    ),
    (
        "gcov.covers_per_search",
        "core::gcov",
        "ref_gcov_mix_us",
        "cold_mix",
    ),
    (
        "cost.qerror_p50",
        "storage::cost",
        "ref_gcov_mix_us",
        "cold_mix",
    ),
    ("cache.hit_ratio", "core::cache", "qps", "cold_mix"),
    ("cache.evictions", "core::cache", "qps", "cold_mix"),
    (
        "cache.invalidations",
        "core::cache",
        "ref_gcov_mix_us",
        "churn",
    ),
    (
        "share.eval",
        "storage evaluator",
        "qps, lat_p99_us, ref_*_mix_us",
        "hot_mix",
    ),
    (
        "eval.scan_rows_per_result",
        "storage evaluator",
        "qps, ref_*_mix_us",
        "hot_mix",
    ),
    (
        "eval.bind_join_rows_per_req",
        "storage evaluator",
        "qps, ref_*_mix_us",
        "hot_mix",
    ),
    (
        "eval.union_rows_per_req",
        "storage evaluator",
        "qps, ref_*_mix_us",
        "hot_mix",
    ),
    (
        "eval.peak_rows_p50",
        "storage evaluator",
        "lat_p99_us",
        "hot_mix",
    ),
    ("share.decode", "decode", "qps, lat_p50_us", "hot_mix"),
    (
        "write_p99_us",
        "core::serving",
        "(tail of write_p50_us)",
        "churn",
    ),
    (
        "serving.queue_wait_us_p50",
        "core::serving",
        "write_p50_us",
        "churn",
    ),
    (
        "serving.snapshot_age_us_p50",
        "core::serving",
        "write_p50_us",
        "churn",
    ),
    (
        "serving.publishes",
        "core::serving",
        "write_p50_us",
        "churn",
    ),
    (
        "churn.gen_late_us_p99",
        "generator",
        "(validity of write_*)",
        "churn",
    ),
    ("obs.trace_overhead", "obs", "-", "all"),
    ("calib.kernel_ms", "machine", "(scale of every time)", "all"),
];

pub fn print_table(metrics: &[(&str, f64, &str)]) {
    println!(
        "{:<32} {:>14} {:<6} {:<18} {:<30} on",
        "metric", "value", "unit", "layer", "moves"
    );
    for (name, value, unit) in metrics {
        let (_, layer, moves, on) = LAYERS
            .iter()
            .find(|l| l.0 == *name)
            .copied()
            .unwrap_or(("", "?", "?", "?"));
        println!("{name:<32} {value:>14.4} {unit:<6} {layer:<18} {moves:<30} {on}");
    }
}
