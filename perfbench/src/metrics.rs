//! The metric and workload tables — the Rust mirror of `BENCHMARK.json`
//! (a test keeps the two identical) — and the ledger a run fills.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening of the median as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// `(name, why)` — names are fixed; later issues cite them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "loh1-serial",
        "plain single-threaded solve; velocity/stress/attenuation kernels dominate, so a kernel, layout or subnormal change shows here first",
    ),
    (
        "loh1-mpml",
        "same medium under the paper's M-PML boundary, which dominates here: an M-PML change shows here and must not move loh1-serial",
    ),
    (
        "basin-lts",
        "the solver through clustered local time stepping; a stepper change that helps global dt but hurts LTS shows as opposite signs vs loh1-serial",
    ),
    (
        "shakeout-workflow",
        "2-rank end-to-end workflow; the only workload where halo exchange, checkpoint/output/archive I/O and rank spawn carry a visible share",
    ),
    (
        "catalog-ensemble",
        "ensemble writes: queue, mesh cache, per-scenario solver construction and store.put behind drain(2); bypasses the wire",
    ),
    (
        "serve-mix",
        "ensemble reads beside the writes: closed loop, 1 client, seeded hit/hazard/miss mix over the wire; wire and store reads dominate",
    ),
];

/// What a user of the system sees; printed by `--trace 0`.
///
/// The bounds are what the 2-core reference host resolves, not what one
/// would wish for: over ten seeds the quartile spread of `wall_s` reaches
/// 6% on the one-thread workloads and 10% on the two-thread ones, and the
/// median of ten runs drifts by up to 8% from one quarter of an hour to the
/// next. A bound is three times the spread it has to sit above.
///
/// Peak memory is not here: with two rank threads `VmHWM` depends on how
/// far their transient buffers coincide, which the scheduler decides (68 MB
/// when the ranks share a core, 82 MB side by side on shakeout-workflow),
/// so it is `harness.peak_rss_mb` of the traced run, without a bound.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
];

/// Single-layer numbers; printed by `--trace 1`. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [MetricDef; 109] = [
    hi("host.nproc", "count"),
    hi("host.llc_bytes", "B"),
    hi("host.triad_array_bytes", "B"),
    hi("host.triad_gbs", "GB/s"),
    hi("host.fma_gflops", "GFLOP/s"),
    // solver — moves wall_s on loh1-serial, loh1-mpml, basin-lts.
    hi("solver.mcells_per_s", "Mcell/s"),
    lo("solver.velocity_ms_per_step", "ms"),
    lo("solver.stress_ms_per_step", "ms"),
    lo("solver.mpml_ms_per_step", "ms"),
    lo("solver.sponge_ms_per_step", "ms"),
    lo("solver.free_surface_ms_per_step", "ms"),
    lo("solver.source_ms_per_step", "ms"),
    lo("solver.record_ms_per_step", "ms"),
    lo("solver.step_ms_p50", "ms"),
    lo("solver.step_ms_fast_decile", "ms"),
    lo("solver.step_ms_slow_decile", "ms"),
    lo("solver.step_drift_ratio", "ratio"),
    lo("solver.subnormal_frac", "ratio"),
    lo("solver.construct_s", "s"),
    lo("solver.unattributed_s", "s"),
    lo("solver.flops_per_cell_step", "count"),
    lo("solver.computed_bytes_per_cell", "B"),
    hi("solver.gflops", "GFLOP/s"),
    hi("solver.computed_gbs", "GB/s"),
    hi("solver.flops_per_byte", "ratio"),
    hi("solver.roofline_frac", "ratio"),
    hi("solver.lts_clusters", "count"),
    hi("solver.lts_flop_ratio", "ratio"),
    lo("solver.lts_plan_s", "s"),
    hi("solver.lts_speedup_vs_global", "ratio"),
    lo("solver.lts_unexplained_ratio", "ratio"),
    // solver, parallel path — moves wall_s on shakeout-workflow.
    lo("solver.t_comp_s", "s"),
    lo("solver.t_comm_s", "s"),
    lo("solver.t_sync_s", "s"),
    lo("solver.t_out_s", "s"),
    lo("solver.shell_frac", "ratio"),
    lo("solver.comp_inflation_2r", "ratio"),
    // vcluster — moves wall_s and core.scaling_eff on shakeout-workflow.
    lo("vcluster.alpha_us", "us"),
    hi("vcluster.beta_gbs", "GB/s"),
    lo("vcluster.msgs_per_step", "count"),
    lo("vcluster.bytes_per_step", "B"),
    lo("vcluster.send_s", "s"),
    lo("vcluster.wait_s_max_rank", "s"),
    lo("vcluster.inject_s", "s"),
    hi("vcluster.hidden_comm_frac", "ratio"),
    lo("vcluster.load_imbalance", "ratio"),
    lo("vcluster.spawn_join_ms", "ms"),
    // pario — moves wall_s on shakeout-workflow.
    lo("pario.prepartition_s", "s"),
    hi("pario.prepartition_mbs", "MB/s"),
    lo("pario.checkpoint_s", "s"),
    lo("pario.checkpoint_bytes", "B"),
    hi("pario.checkpoint_mbs", "MB/s"),
    lo("pario.output_s", "s"),
    lo("pario.output_bytes", "B"),
    lo("pario.output_transactions", "count"),
    lo("pario.archive_s", "s"),
    hi("pario.archive_mbs", "MB/s"),
    hi("pario.md5_mbs", "MB/s"),
    lo("pario.io_frac", "ratio"),
    // cvm / source — move setup_s on the solver workloads, wall_s on
    // catalog-ensemble, serve.miss_p50_ms on serve-mix.
    lo("cvm.mesh_generate_s", "s"),
    hi("cvm.mesh_generate_mcells_per_s", "Mcell/s"),
    hi("cvm.write_mesh_mbs", "MB/s"),
    lo("source.prepare_s", "s"),
    lo("source.partition_s", "s"),
    // core (scenario + workflow) — moves wall_s on shakeout-workflow.
    lo("core.prepare_s", "s"),
    lo("core.execute_s", "s"),
    lo("core.stage_sum_s", "s"),
    lo("core.unaccounted_frac", "ratio"),
    hi("core.scaling_eff", "ratio"),
    // ensemble — moves wall_s on catalog-ensemble, setup_s on serve-mix.
    hi("ensemble.scenarios_per_s", "1/s"),
    lo("ensemble.spec_hash_us", "us"),
    lo("ensemble.queue_submit_ms", "ms"),
    lo("ensemble.queue_claim_complete_ms", "ms"),
    lo("ensemble.mesh_build_s", "s"),
    lo("ensemble.mesh_builds", "count"),
    hi("ensemble.mesh_reuses", "count"),
    lo("ensemble.store_put_ms", "ms"),
    lo("ensemble.store_load_ms", "ms"),
    lo("ensemble.store_verify_ms", "ms"),
    lo("ensemble.store_bytes_per_result", "B"),
    lo("ensemble.overhead_ms_per_scenario", "ms"),
    hi("ensemble.solve_frac", "ratio"),
    hi("ensemble.worker_speedup", "ratio"),
    // serve — moves wall_s on serve-mix; predicted no move elsewhere.
    hi("serve.requests_per_s", "1/s"),
    lo("serve.hit_p50_ms", "ms"),
    lo("serve.hazard_p50_ms", "ms"),
    lo("serve.miss_p50_ms", "ms"),
    lo("serve.connect_ms", "ms"),
    lo("serve.hit_inproc_ms", "ms"),
    lo("serve.hazard_inproc_ms", "ms"),
    lo("serve.wire_overhead_ms", "ms"),
    lo("serve.hit_tail_ms", "ms"),
    hi("serve.hit_tail_pct", "%"),
    lo("serve.hazard_tail_ms", "ms"),
    lo("serve.req_bytes_hit", "B"),
    lo("serve.resp_bytes_hit", "B"),
    lo("serve.resp_bytes_hazard", "B"),
    hi("serve.store_scenarios", "count"),
    hi("serve.requests", "count"),
    lo("serve.errors", "count"),
    // model, telemetry and the harness's own accounting.
    hi("perfmodel.eq8_eff_predicted", "ratio"),
    lo("perfmodel.eq8_residual", "ratio"),
    lo("telemetry.overhead_frac", "ratio"),
    hi("harness.reps", "count"),
    hi("harness.spans", "count"),
    hi("harness.checks", "count"),
    lo("harness.peak_rss_mb", "MB"),
    lo("harness.trace_overhead_frac", "ratio"),
    lo("harness.unaccounted_frac", "ratio"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.0).collect()
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Metric values a run has produced, keyed by table name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Record `value` under `name`. Panics on a name missing from the
    /// tables: that is a bug in this crate, not a property of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric '{name}' is not in the tables"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The value for every metric of `table`, in table order; metrics the
    /// run did not touch (an unexercised layer) and non-finite values read 0.
    pub fn complete(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        table
            .iter()
            .map(|def| {
                let v = self.values.get(def.name).copied().unwrap_or(0.0);
                (def, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn names(v: &Value) -> Vec<String> {
        v.as_array()
            .expect("array")
            .iter()
            .map(|e| e["name"].as_str().expect("name").to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
    }

    /// The committed `BENCHMARK.json` and the tables must agree on every
    /// workload, metric, unit, direction and bound.
    #[test]
    fn tables_match_benchmark_json() {
        let doc: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(names(&doc["workloads"]), workload_names());
        for (entry, (_, why)) in doc["workloads"].as_array().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(entry["why"].as_str(), Some(why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let entries = doc[key].as_array().expect(key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (e, m) in entries.iter().zip(table) {
                assert_eq!(e["name"].as_str(), Some(m.name));
                assert_eq!(e["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(e["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(e["bound"].as_f64(), m.bound, "{}", m.name);
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn ledger_completes_tables_with_zeros() {
        let mut l = Ledger::default();
        l.set("wall_s", 1.5);
        l.set("cpu_s", f64::NAN);
        let out = l.complete(&END_TO_END);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[1].1, 1.5);
        assert_eq!(out[2].1, 0.0, "non-finite values must not reach the JSON");
        assert_eq!(l.get("setup_s"), None);
    }
}
