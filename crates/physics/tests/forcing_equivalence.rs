//! The forcing table is an exact refactoring of the direct definitions.
//!
//! `cloud_fraction`, `instability` and `solar_zenith_cos` stay the
//! definitions of the column forcing; `ColumnForcing` factors them by
//! latitude and longitude once per pass. This test evaluates every column
//! of two grids both ways, at times on either side of the half-hour and
//! hour noise buckets and of a day boundary, and demands the same bits:
//! the same inputs, the same profile after a full physics pass (including
//! the lane-parallel longwave sweep, checked against the textbook
//! receiving-level-outer loop), and the same flop counts from
//! `run_column` and `column_cost`.

use agcm_grid::latlon::GridSpec;
use agcm_physics::clouds::cloud_fraction;
use agcm_physics::convection::{adjust, adjustment_iterations, instability};
use agcm_physics::forcing::ColumnForcing;
use agcm_physics::radiation::{is_day, shortwave, solar_zenith_cos, LW_FLOPS_PER_PAIR};
use agcm_physics::step::{column_cost, run_column, PhysicsConfig};

/// Times straddling the 1800 s and 3600 s noise buckets and a day.
const TIMES: [f64; 9] = [
    0.0, 1_799.5, 1_800.0, 3_599.9, 3_600.0, 5_400.0, 86_399.0, 86_400.0, 88_200.0,
];

/// The longwave exchange as a receiving-level-outer loop over a snapshot.
fn longwave_reference(column: &mut [f64], cloud: f64) -> f64 {
    let k = column.len();
    let emissivity = 0.8 + 0.15 * cloud;
    let snapshot: Vec<f64> = column.to_vec();
    for i in 0..k {
        let mut net = 0.0;
        for (j, &tj) in snapshot.iter().enumerate() {
            if i == j {
                continue;
            }
            let dist = (i as f64 - j as f64).abs();
            net += emissivity * (tj - snapshot[i]) / (1.0 + dist * dist);
        }
        column[i] += 1.0e-3 * net;
    }
    LW_FLOPS_PER_PAIR * (k * k) as f64
}

/// One column's physics from the direct definitions.
fn run_column_direct(
    cfg: &PhysicsConfig,
    grid: &GridSpec,
    i: usize,
    j: usize,
    t: f64,
    column: &mut [f64],
) -> f64 {
    let (lat, lon) = (grid.latitude(j), grid.longitude(i));
    let cloud = cloud_fraction(lat, lon, t);
    let mut flops = cfg.base_flops;
    for v in column.iter_mut() {
        *v += 1.0e-4 * (cloud - 0.5);
    }
    flops += longwave_reference(column, cloud);
    let cosz = solar_zenith_cos(lat, lon, t);
    if cosz > 0.0 {
        flops += shortwave(column, cosz, cloud);
    }
    flops += adjust(column, adjustment_iterations(instability(lat, lon, t)));
    flops
}

/// A column profile that varies across the grid and is convectively
/// unstable in places, so every branch of the physics runs.
fn profile(i: usize, j: usize, n_lev: usize) -> Vec<f64> {
    (0..n_lev)
        .map(|k| (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() - 0.17 * k as f64)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_grid(grid: GridSpec) {
    let cfg = PhysicsConfig::for_grid(&grid);
    let mut net = vec![0.0; grid.n_lev];
    let (mut day, mut convective) = (0usize, 0usize);
    for t in TIMES {
        let forcing = ColumnForcing::new(&grid, t);
        for j in 0..grid.n_lat {
            for i in 0..grid.n_lon {
                let (lat, lon) = (grid.latitude(j), grid.longitude(i));
                let inputs = forcing.at(i, j);
                assert_eq!(
                    inputs.cloud.to_bits(),
                    cloud_fraction(lat, lon, t).to_bits(),
                    "cloud at ({i},{j}) t={t}"
                );
                assert_eq!(
                    inputs.cos_zenith.to_bits(),
                    solar_zenith_cos(lat, lon, t).to_bits(),
                    "zenith at ({i},{j}) t={t}"
                );
                assert_eq!(
                    inputs.instability.to_bits(),
                    instability(lat, lon, t).to_bits(),
                    "instability at ({i},{j}) t={t}"
                );

                let mut direct = profile(i, j, grid.n_lev);
                let mut tabled = direct.clone();
                let want = run_column_direct(&cfg, &grid, i, j, t, &mut direct);
                let got = run_column(&cfg, &forcing, i, j, &mut tabled, &mut net);
                assert_eq!(bits(&tabled), bits(&direct), "profile at ({i},{j}) t={t}");
                assert_eq!(got.to_bits(), want.to_bits(), "flops at ({i},{j}) t={t}");

                let cost = column_cost(&cfg, &forcing, i, j);
                assert_eq!(
                    cost.flops.to_bits(),
                    got.to_bits(),
                    "cost at ({i},{j}) t={t}"
                );
                assert_eq!(cost.day, is_day(lat, lon, t), "day at ({i},{j}) t={t}");
                assert_eq!(
                    cost.convection_iters,
                    adjustment_iterations(instability(lat, lon, t)),
                    "convection at ({i},{j}) t={t}"
                );
                day += usize::from(cost.day);
                convective += usize::from(cost.convection_iters > 0);
            }
        }
    }
    // The comparison must have exercised shortwave and convection.
    assert!(
        day > 0 && convective > 0,
        "day {day}, convective {convective}"
    );
}

#[test]
fn paper_grid_columns_match_the_direct_definitions() {
    check_grid(GridSpec::paper_9_layer());
}

#[test]
fn odd_grid_columns_match_the_direct_definitions() {
    check_grid(GridSpec::new(95, 32, 5));
}
