//! Metric catalogue, per-run outcome, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what the
//! benchmark reports: name, unit, the layer (crate) a per-layer metric
//! measures, the section that measures it, and the end-to-end metric it
//! should move. Every run reports every metric of its mode. A test
//! keeps `BENCHMARK.json` in step with them.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (model runs or jobs), each output-checked.
    pub attempted: u64,
    /// Attempts that failed or failed their output check.
    pub failed: u64,
    /// First few failure descriptions, for the run log.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (trace mode).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Count one failed attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    /// Fold in a side section of a trace run: its attempts and failures
    /// count, and its per-layer metrics fill in those not yet measured.
    pub fn absorb_side(&mut self, side: Outcome) {
        self.attempted += side.attempted;
        self.failed += side.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(side.failures.into_iter().take(room));
        for m in side.layers {
            if !self.layers.iter().any(|l| l.name == m.name) {
                self.layers.push(m);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let failed = self.failed;
        let metrics = if trace { &self.layers } else { &self.e2e };
        let mut s = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{"#,
            failed == 0,
            self.attempted.max(1)
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest exact round-trip form of an f64.
            let _ = write!(
                s,
                r#"{sep}"{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Layer measured: a crate name, or `end-to-end`.
    pub layer: &'static str,
    /// The section that measures it: the timed loop of `model_paper`
    /// or of a serving workload. A trace run of another workload runs
    /// a short side section of that kind to fill it in.
    pub section: Section,
    /// The end-to-end metric (and workload) a change here should move.
    pub moves: &'static str,
}

/// Where a metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The `model_paper` batch loop and its probes.
    Model,
    /// A serving closed loop and the store it leaves behind.
    Serve,
    /// Every workload's own timed phase.
    Own,
}

use Section::{Model, Own, Serve};

const fn spec(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    section: Section,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        layer,
        section,
        moves,
    }
}

/// End-to-end metrics.
#[rustfmt::skip]
pub const END_TO_END: &[Spec] = &[
    spec("sim_day_s", "s", "end-to-end", Own, "wall seconds per simulated day: 1x2 mesh, or the whole service"),
    spec("sim_day_s_serial", "s", "end-to-end", Own, "wall seconds per simulated day: 1x1 mesh, or one job at a time"),
    spec("setup_s", "s", "end-to-end", Own, "set-up time, median of several set-ups per run"),
    spec("jobs_per_s", "1/s", "end-to-end", Own, "completed jobs per second"),
    spec("ack_p50_ms", "ms", "end-to-end", Own, "job sent until accepted: the 202, or the first model step done"),
    spec("ack_p90_ms", "ms", "end-to-end", Own, "job sent until accepted: the 202, or the first model step done"),
    spec("result_p50_ms", "ms", "end-to-end", Own, "job sent until its result is in hand"),
    spec("result_p90_ms", "ms", "end-to-end", Own, "job sent until its result is in hand"),
];

/// Per-layer metrics.
#[rustfmt::skip]
pub const PER_LAYER: &[Spec] = &[
    spec("filtering.redist_fwd_ms", "ms", "agcm-filtering", Model, "sim_day_s on model_paper"),
    spec("filtering.redist_bwd_ms", "ms", "agcm-filtering", Model, "sim_day_s on model_paper"),
    spec("filtering.filter_local_ms", "ms", "agcm-filtering", Model, "sim_day_s and sim_day_s_serial on model_paper"),
    spec("kernels.tendencies_ms", "ms", "agcm-kernels", Model, "sim_day_s and sim_day_s_serial on model_paper"),
    spec("kernels.advection_ms", "ms", "agcm-kernels", Model, "sim_day_s and sim_day_s_serial on model_paper"),
    spec("dynamics.fd_self_ms", "ms", "agcm-dynamics", Model, "sim_day_s and sim_day_s_serial on model_paper"),
    spec("grid.halo_ms", "ms", "agcm-grid", Model, "sim_day_s on model_paper"),
    spec("physics.columns_ms", "ms", "agcm-physics", Model, "sim_day_s on model_paper"),
    spec("physics.balance_ms", "ms", "agcm-physics", Model, "sim_day_s on model_paper"),
    spec("physics.imbalance", "ratio", "agcm-physics", Model, "sim_day_s on model_paper"),
    spec("model.rank_skew_ms", "ms", "agcm-core", Model, "sim_day_s on model_paper"),
    spec("mps.messages_per_step", "count", "agcm-mps", Model, "none unless the algorithm changes"),
    spec("mps.bytes_per_step", "B", "agcm-mps", Model, "none unless the algorithm changes"),
    spec("model.flops_per_step", "flop", "agcm-core", Model, "none unless the algorithm changes"),
    spec("mps.latency_us", "us", "agcm-mps", Model, "sim_day_s on model_paper"),
    spec("mps.barrier_us", "us", "agcm-mps", Model, "sim_day_s on model_paper"),
    spec("mps.bandwidth_mb_s", "MB/s", "agcm-mps", Model, "sim_day_s on model_paper"),
    spec("mps.spawn_us", "us", "agcm-mps", Model, "result_p50_ms and setup_s on serve_reuse"),
    spec("fft.filter_ns_per_line", "ns", "agcm-fft", Model, "sim_day_s_serial on model_paper"),
    spec("server.post_ms", "ms", "agcm-server", Serve, "ack_* and result_* on serve_reuse"),
    spec("server.get_ms", "ms", "agcm-server", Serve, "ack_* and result_* on serve_reuse"),
    spec("journal.lines_per_job", "count", "agcm-server", Serve, "ack_p50_ms on serve_reuse"),
    spec("ensemble.queue_ms", "ms", "agcm-ensemble", Serve, "result_p50_ms on serve_reuse (dispatch latency: no job waits behind another)"),
    spec("ensemble.run_ms", "ms", "agcm-ensemble", Serve, "result_p50_ms on serve_reuse"),
    spec("ensemble.overhead_ms", "ms", "agcm-ensemble", Serve, "result_p50_ms on serve_reuse"),
    spec("ckptstore.put_commit_ms", "ms", "agcm-ckptstore", Serve, "setup_s on serve_reuse (warm-up checkpoints)"),
    spec("ckptstore.put_commit_ms_empty", "ms", "agcm-ckptstore", Serve, "setup_s on serve_reuse (warm-up checkpoints)"),
    spec("ckptstore.get_shard_ms", "ms", "agcm-ckptstore", Serve, "result_p50_ms on serve_reuse"),
    spec("ckptstore.open_ms", "ms", "agcm-ckptstore", Serve, "setup_s on serve_reuse"),
    spec("ckptstore.manifests", "count", "agcm-ckptstore", Serve, "none (store size)"),
    spec("ckptstore.write_amplification", "ratio", "agcm-ckptstore", Serve, "none (bytes written / bytes ingested)"),
    spec("ckptstore.prefix_hit_ratio", "ratio", "agcm-ckptstore", Serve, "none (hits / lookups)"),
    spec("resilience.encode_ms", "ms", "agcm-resilience", Serve, "setup_s on serve_reuse (warm-up checkpoints)"),
    spec("disk.mb_per_run", "MB", "perfbench", Serve, "none (disk used by one run, removed after)"),
];

/// The catalogue entry for `name`.
pub fn lookup(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Catalogue mismatches of one run's metrics: every metric the
/// catalogue lists for the mode must be present with its unit and a
/// finite value, and nothing else may be.
pub fn catalogue_mismatches(trace: bool, metrics: &[Metric]) -> Vec<String> {
    let specs = if trace { PER_LAYER } else { END_TO_END };
    let mut problems = Vec::new();
    for s in specs {
        match metrics.iter().find(|m| m.name == s.name) {
            None => problems.push(format!("metric {} was not measured", s.name)),
            Some(m) if m.unit != s.unit => problems.push(format!(
                "metric {} reported in {}, listed in {}",
                s.name, m.unit, s.unit
            )),
            Some(m) if !m.value.is_finite() => {
                problems.push(format!("metric {} is not a finite number", s.name))
            }
            Some(_) => {}
        }
    }
    for m in metrics {
        if !specs.iter().any(|s| s.name == m.name) {
            problems.push(format!("metric {} is not listed", m.name));
        }
    }
    problems
}

/// The traced run's per-layer table, one row per metric: value, unit,
/// layer, the section that measured it, and the end-to-end metric it
/// should move.
pub fn layer_table(workload: &str, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{:<32} {:>14} {:<6} {:<16} {:<8} moves (trace run of {workload})\n",
        "metric", "value", "unit", "layer", "section"
    );
    for m in metrics {
        let (layer, section, moves) = lookup(m.name).map_or(("?", "?", "?"), |s| {
            let section = match s.section {
                Model => "model",
                Serve => "serve",
                Own => "own",
            };
            (s.layer, section, s.moves)
        });
        let _ = writeln!(
            s,
            "{:<32} {:>14.4} {:<6} {:<16} {section:<8} {moves}",
            m.name, m.value, m.unit, layer
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_telemetry::json::Value;

    fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |specs: &[Spec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(names_units(&v, "end_to_end"), listed(END_TO_END));
        assert_eq!(names_units(&v, "per_layer"), listed(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn every_listed_metric_is_required_and_nothing_else() {
        let all: Vec<Metric> = END_TO_END
            .iter()
            .map(|s| Metric::new(s.name, 1.0, s.unit))
            .collect();
        assert!(catalogue_mismatches(false, &all).is_empty());
        assert_eq!(catalogue_mismatches(false, &all[1..]).len(), 1);
        assert_eq!(
            catalogue_mismatches(true, &all).len(),
            PER_LAYER.len() + all.len()
        );
        let mut extra = all.clone();
        extra.push(Metric::new("grid.halo_ms", 1.0, "ms"));
        assert_eq!(catalogue_mismatches(false, &extra).len(), 1);
        let mut bad = all.clone();
        bad[0].value = f64::NAN;
        bad[1].unit = "ms";
        assert_eq!(catalogue_mismatches(false, &bad).len(), 2);
    }

    #[test]
    fn side_section_counts_and_fills_only_missing_layers() {
        let mut own = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        own.layer(Metric::new("grid.halo_ms", 1.0, "ms"));
        let mut side = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        side.layer(Metric::new("grid.halo_ms", 9.0, "ms"));
        side.layer(Metric::new("server.get_ms", 2.0, "ms"));
        side.fail("side".into());
        own.absorb_side(side);
        assert_eq!((own.attempted, own.failed), (5, 1));
        let layers: Vec<(&str, f64)> = own.layers.iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(layers, vec![("grid.halo_ms", 1.0), ("server.get_ms", 2.0)]);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e(Metric::new("setup_s", 0.25, "s"));
        o.layer(Metric::new("grid.halo_ms", 1.5, "ms"));
        let line = o.result_json(false);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let m = v.get("metrics").unwrap();
        assert!(m.get("setup_s").is_some() && m.get("grid.halo_ms").is_none());
        o.fail("x".into());
        let v = Value::parse(&o.result_json(true)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert!(v.get("metrics").unwrap().get("grid.halo_ms").is_some());
    }
}
