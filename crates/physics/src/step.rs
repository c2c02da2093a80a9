//! The per-column physics step and its cost structure.
//!
//! One physics pass visits every owned column, runs longwave radiation
//! (always), shortwave (sunlit columns only) and cumulus adjustment
//! (unstable columns only), mutating the column profile and recording the
//! floating-point work. The *cost* of a column is a deterministic function
//! of (lat, lon, t) — which is what makes load estimation from the
//! previous pass a sensible strategy, exactly as the paper found.

use crate::convection::{adjust, adjustment_iterations};
use crate::forcing::ColumnForcing;
use crate::radiation::{longwave, shortwave};
use agcm_grid::decomp::Subdomain;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use agcm_mps::comm::Comm;
use std::cell::RefCell;

/// Static configuration of the physics emulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicsConfig {
    /// Vertical layers per column.
    pub n_lev: usize,
    /// Per-column fixed overhead charged in flops (boundary layer, surface
    /// fluxes and the rest of the always-on parameterizations).
    pub base_flops: f64,
}

impl PhysicsConfig {
    /// Configuration matching a grid.
    pub fn for_grid(grid: &GridSpec) -> PhysicsConfig {
        PhysicsConfig {
            n_lev: grid.n_lev,
            base_flops: 500.0 * grid.n_lev as f64,
        }
    }
}

/// Breakdown of one column's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnCost {
    /// Whether the column is sunlit (shortwave runs).
    pub day: bool,
    /// Convective adjustment iterations triggered.
    pub convection_iters: usize,
    /// Total predicted flops.
    pub flops: f64,
}

/// Predict the cost of the column at global grid point (i, j) without
/// doing the work — used to pick which columns to delegate when
/// balancing. `forcing` is the pass's table ([`ColumnForcing`]).
pub fn column_cost(cfg: &PhysicsConfig, forcing: &ColumnForcing, i: usize, j: usize) -> ColumnCost {
    let inputs = forcing.at(i, j);
    let k = cfg.n_lev as f64;
    let day = inputs.cos_zenith > 0.0;
    let iters = adjustment_iterations(inputs.instability);
    let mut flops = cfg.base_flops + crate::radiation::LW_FLOPS_PER_PAIR * k * k; // longwave
    if day {
        flops += crate::radiation::SW_FLOPS_PER_LEVEL * k; // shortwave
    }
    flops += crate::convection::ADJ_FLOPS_PER_PAIR * (iters * (cfg.n_lev - 1)) as f64; // convection
    ColumnCost {
        day,
        convection_iters: iters,
        flops,
    }
}

/// Execute the physics on the column profile of global grid point
/// (i, j) in place; returns the flops actually performed (matches
/// [`column_cost`] by construction). `net` is longwave scratch of the
/// column's length.
pub fn run_column(
    cfg: &PhysicsConfig,
    forcing: &ColumnForcing,
    i: usize,
    j: usize,
    column: &mut [f64],
    net: &mut [f64],
) -> f64 {
    assert_eq!(column.len(), cfg.n_lev);
    let inputs = forcing.at(i, j);
    let cloud = inputs.cloud;
    let mut flops = cfg.base_flops;
    // Base parameterizations: a cheap smoothing sweep standing in for PBL
    // and surface fluxes.
    for v in column.iter_mut() {
        *v += 1.0e-4 * (cloud - 0.5);
    }
    flops += longwave(column, cloud, forcing.longwave_denominators(), net);
    if inputs.cos_zenith > 0.0 {
        flops += shortwave(column, inputs.cos_zenith, cloud);
    }
    flops += adjust(column, adjustment_iterations(inputs.instability));
    flops
}

/// Reusable per-pass state: the forcing table and one column's buffers.
#[derive(Default)]
pub(crate) struct ColumnScratch {
    pub(crate) forcing: ColumnForcing,
    column: Vec<f64>,
    pub(crate) net: Vec<f64>,
}

impl ColumnScratch {
    /// Ready the scratch for a pass over `grid` at time `t`.
    pub(crate) fn prepare(&mut self, grid: &GridSpec, t: f64) {
        self.forcing.rebuild(grid, t);
        self.column.resize(grid.n_lev, 0.0);
        self.net.resize(grid.n_lev, 0.0);
    }

    /// Run the physics on local column (i, j) of `theta`, the field of
    /// subdomain `sub`, through the column buffer.
    pub(crate) fn run_in_place(
        &mut self,
        cfg: &PhysicsConfig,
        sub: &Subdomain,
        theta: &mut Field3D,
        i: usize,
        j: usize,
    ) -> f64 {
        for (k, v) in self.column.iter_mut().enumerate() {
            *v = theta.get(i, j, k);
        }
        let (gi, gj) = (sub.i0 + i, sub.j0 + j);
        let flops = run_column(cfg, &self.forcing, gi, gj, &mut self.column, &mut self.net);
        theta.set_column(i, j, &self.column);
        flops
    }
}

/// The physics driver for one rank's subdomain.
pub struct PhysicsStep {
    cfg: PhysicsConfig,
    grid: GridSpec,
    sub: Subdomain,
    /// Forcing table and column buffers, reused across passes so a pass
    /// allocates nothing. `RefCell`: passes take `&self` and each rank
    /// owns its own driver.
    scratch: RefCell<ColumnScratch>,
}

impl PhysicsStep {
    /// Driver for one rank.
    pub fn new(grid: GridSpec, sub: Subdomain) -> PhysicsStep {
        PhysicsStep {
            cfg: PhysicsConfig::for_grid(&grid),
            grid,
            sub,
            scratch: RefCell::new(ColumnScratch::default()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhysicsConfig {
        &self.cfg
    }

    /// Run physics on every owned column without load balancing. Records
    /// the flops on `comm` and returns the measured local load (flops) —
    /// the estimate used for the *next* pass's balancing, per §3.4:
    /// "a timing on the previous pass of physics component was performed
    /// at each processor and the result was used as an estimate".
    pub fn run_local(&self, comm: &Comm, theta: &mut Field3D, t: f64) -> f64 {
        let mut total = 0.0;
        let (ni, nj, _) = theta.shape();
        assert_eq!(
            (ni, nj),
            (self.sub.ni, self.sub.nj),
            "field must match the subdomain"
        );
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.prepare(&self.grid, t);
        for j in 0..nj {
            for i in 0..ni {
                total += scratch.run_in_place(&self.cfg, &self.sub, theta, i, j);
            }
        }
        comm.record_flops(total);
        total
    }

    /// Predicted total load (flops) of this subdomain at time `t`.
    pub fn predicted_load(&self, t: f64) -> f64 {
        let forcing = &mut self.scratch.borrow_mut().forcing;
        forcing.rebuild(&self.grid, t);
        let mut total = 0.0;
        for j in self.sub.lats() {
            for i in self.sub.lons() {
                total += column_cost(&self.cfg, forcing, i, j).flops;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::decomp::Decomp;
    use agcm_mps::runtime::{run, run_traced};

    fn grid() -> GridSpec {
        GridSpec::new(36, 24, 9)
    }

    #[test]
    fn prediction_matches_execution() {
        let g = grid();
        let cfg = PhysicsConfig::for_grid(&g);
        let forcing = ColumnForcing::new(&g, 7200.0);
        for (i, j) in [(0, 0), (17, 11), (35, 23), (9, 12)] {
            let predicted = column_cost(&cfg, &forcing, i, j).flops;
            let mut col = vec![0.5; g.n_lev];
            let mut net = vec![0.0; g.n_lev];
            let actual = run_column(&cfg, &forcing, i, j, &mut col, &mut net);
            assert_eq!(predicted, actual, "column ({i},{j})");
        }
    }

    #[test]
    fn day_columns_cost_more() {
        let g = grid();
        let cfg = PhysicsConfig::for_grid(&g);
        // Scan a latitude circle at high latitude (no convection noise
        // there — instability is negligible poleward) and compare day/night.
        let j = 22; // near-polar row
        let forcing = ColumnForcing::new(&g, 0.0);
        let costs: Vec<ColumnCost> = (0..g.n_lon)
            .map(|i| column_cost(&cfg, &forcing, i, j))
            .collect();
        let day_avg: f64 = {
            let d: Vec<f64> = costs.iter().filter(|c| c.day).map(|c| c.flops).collect();
            d.iter().sum::<f64>() / d.len() as f64
        };
        let night_avg: f64 = {
            let n: Vec<f64> = costs.iter().filter(|c| !c.day).map(|c| c.flops).collect();
            n.iter().sum::<f64>() / n.len() as f64
        };
        assert!(day_avg > night_avg, "day {day_avg} vs night {night_avg}");
    }

    #[test]
    fn tropics_cost_more_than_midlatitudes() {
        let g = grid();
        let cfg = PhysicsConfig::for_grid(&g);
        let forcing = ColumnForcing::new(&g, 3600.0);
        let row_cost = |j: usize| -> f64 {
            (0..g.n_lon)
                .map(|i| column_cost(&cfg, &forcing, i, j).flops)
                .sum()
        };
        let equator = row_cost(12);
        let midlat = row_cost(20);
        assert!(equator > midlat, "equator {equator} vs midlat {midlat}");
    }

    #[test]
    fn run_local_returns_recorded_flops() {
        let g = grid();
        let d = Decomp::new(g, 2, 2);
        let (loads, trace) = run_traced(4, |c| {
            let sub = d.subdomain_of_rank(c.rank());
            let step = PhysicsStep::new(g, sub);
            let mut theta =
                Field3D::from_fn(sub.ni, sub.nj, g.n_lev, |i, j, k| (i + j + k) as f64 * 0.01);
            step.run_local(c, &mut theta, 1800.0)
        });
        let stats = trace.stats();
        for (rank, &load) in loads.iter().enumerate() {
            assert!((stats[rank].flops - load).abs() < 1e-6);
            assert!(load > 0.0);
        }
    }

    #[test]
    fn load_is_imbalanced_without_balancing() {
        // The situation of Tables 1-3: day/night plus convection produce a
        // double-digit percentage imbalance on a 2D mesh.
        let g = GridSpec::new(72, 46, 9);
        let d = Decomp::new(g, 4, 4);
        let loads = run(16, |c| {
            let sub = d.subdomain_of_rank(c.rank());
            PhysicsStep::new(g, sub).predicted_load(0.0)
        });
        let imb = crate::load::imbalance(&loads);
        assert!(imb > 0.10, "expected >10% imbalance, got {imb}");
    }

    #[test]
    fn predicted_load_matches_summed_columns() {
        let g = grid();
        let d = Decomp::new(g, 2, 3);
        let sub = d.subdomain_of_rank(4);
        let step = PhysicsStep::new(g, sub);
        let forcing = ColumnForcing::new(&g, 500.0);
        let by_hand: f64 = sub
            .lats()
            .flat_map(|j| sub.lons().map(move |i| (i, j)))
            .map(|(i, j)| column_cost(step.config(), &forcing, i, j).flops)
            .sum();
        assert_eq!(step.predicted_load(500.0), by_hand);
    }
}
