//! The per-pass forcing table: every column input that does not depend on
//! the column's own profile, factored by latitude and by longitude.
//!
//! [`cloud_fraction`](crate::clouds::cloud_fraction),
//! [`instability`](crate::convection::instability) and
//! [`solar_zenith_cos`](crate::radiation::solar_zenith_cos) are the
//! definitions; each is a product or sum of a latitude-only factor and a
//! longitude-and-time factor, plus a lattice-noise lookup. Evaluating them
//! per column costs about nine transcendentals (the cloud fraction twice,
//! since instability needs it too). A [`ColumnForcing`] evaluates each
//! factor once per latitude row and once per longitude for one model time
//! `t`, and [`ColumnForcing::at`] recombines them with the *same* IEEE
//! operations in the *same* order as the definitions, so every column
//! input is bit-identical to the direct evaluation.
//!
//! The table covers the global grid, not one rank's subdomain: load
//! balancing runs columns of other ranks, and they read the same table.

use crate::clouds::lattice_noise;
use crate::radiation::DAY_SECONDS;
use agcm_grid::latlon::GridSpec;
use std::f64::consts::PI;

/// Latitude-only factors of one row.
#[derive(Debug, Clone, Copy)]
struct LatFactors {
    /// `0.15 + itcz`: the first two terms of the cloud-fraction sum.
    cloud_base: f64,
    /// `0.25 · max(sin(|φ|/0.9 · π), 0)`: storm-track amplitude.
    storm_amp: f64,
    /// `1.6 · exp(−(φ/0.45)²)`: convective background.
    background: f64,
    /// `cos φ`.
    cos_lat: f64,
    /// Cloud-noise lattice row, `⌊20 φ⌋`.
    cloud_cell: i64,
    /// Trigger-noise lattice row, `⌊40 φ⌋`.
    trigger_cell: i64,
}

/// Longitude factors of one column line at the table's time.
#[derive(Debug, Clone, Copy)]
struct LonFactors {
    /// `0.5 + 0.5 · sin(3λ − drift)`: storm-track phase.
    storm_phase: f64,
    /// `cos(hour angle)`.
    cos_hour: f64,
    /// Cloud-noise lattice column, `⌊20 λ⌋`.
    cloud_cell: i64,
    /// Trigger-noise lattice column, `⌊40 λ⌋`.
    trigger_cell: i64,
}

/// The forcing of one column, as the physics kernels consume it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnInputs {
    /// Cloud fraction in [0, 1].
    pub cloud: f64,
    /// Cosine of the solar zenith angle (positive by day).
    pub cos_zenith: f64,
    /// CAPE-like instability index.
    pub instability: f64,
}

/// Per-pass forcing factors over the global grid at one model time.
#[derive(Debug, Default)]
pub struct ColumnForcing {
    lats: Vec<LatFactors>,
    lons: Vec<LonFactors>,
    /// Cloud-noise time bucket (one simulated hour).
    cloud_bucket: i64,
    /// Trigger-noise time bucket (half a simulated hour).
    trigger_bucket: i64,
    /// Longwave denominators `1 + d²` for signed level offsets
    /// `d = −(K−1) ..= K−1`: the denominators one source level sees form
    /// one contiguous slice indexed by the receiving level.
    lw_den: Vec<f64>,
}

impl ColumnForcing {
    /// The table for `grid` at time `t` seconds.
    pub fn new(grid: &GridSpec, t: f64) -> ColumnForcing {
        let mut table = ColumnForcing::default();
        table.rebuild(grid, t);
        table
    }

    /// Refill the table for `grid` at time `t`, reusing its storage (no
    /// allocation once it has held a grid of this size).
    pub fn rebuild(&mut self, grid: &GridSpec, t: f64) {
        self.lats.clear();
        self.lats.extend((0..grid.n_lat).map(|j| {
            let lat = grid.latitude(j);
            LatFactors {
                cloud_base: 0.15 + 0.35 * (-(lat / 0.15).powi(2)).exp(),
                storm_amp: 0.25 * (lat.abs() / 0.9 * PI).sin().max(0.0),
                background: 1.6 * (-(lat / 0.45).powi(2)).exp(),
                cos_lat: lat.cos(),
                cloud_cell: (lat * 20.0).floor() as i64,
                trigger_cell: (lat * 40.0).floor() as i64,
            }
        }));
        let drift = 2.0 * PI * t / (10.0 * 86_400.0);
        let sun = 2.0 * PI * (t / DAY_SECONDS);
        self.lons.clear();
        self.lons.extend((0..grid.n_lon).map(|i| {
            let lon = grid.longitude(i);
            LonFactors {
                storm_phase: 0.5 + 0.5 * (3.0 * lon - drift).sin(),
                cos_hour: (lon - sun).cos(),
                cloud_cell: (lon * 20.0).floor() as i64,
                trigger_cell: (lon * 40.0).floor() as i64,
            }
        }));
        self.cloud_bucket = (t / 3600.0).floor() as i64;
        self.trigger_bucket = (t / 1800.0).floor() as i64;
        let k = grid.n_lev as isize;
        self.lw_den.clear();
        self.lw_den.extend((1 - k..k).map(|d| {
            let dist = d.unsigned_abs() as f64;
            1.0 + dist * dist
        }));
    }

    /// The inputs of the column at global grid point `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> ColumnInputs {
        let (la, lo) = (&self.lats[j], &self.lons[i]);
        let noise = 0.3 * lattice_noise(lo.cloud_cell, la.cloud_cell, self.cloud_bucket);
        let cloud = (la.cloud_base + la.storm_amp * lo.storm_phase + noise).clamp(0.0, 1.0);
        let trigger = lattice_noise(lo.trigger_cell, la.trigger_cell, self.trigger_bucket);
        ColumnInputs {
            cloud,
            cos_zenith: la.cos_lat * lo.cos_hour,
            instability: la.background * (0.8 * cloud) * (0.4 + 1.2 * trigger),
        }
    }

    /// Longwave denominators `1 + d²` for the signed level offsets
    /// `d = −(K−1) ..= K−1`, the layout
    /// [`longwave`](crate::radiation::longwave) reads.
    #[inline]
    pub fn longwave_denominators(&self) -> &[f64] {
        &self.lw_den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denominators_cover_every_level_offset() {
        let table = ColumnForcing::new(&GridSpec::new(8, 6, 4), 0.0);
        assert_eq!(
            table.longwave_denominators(),
            &[10.0, 5.0, 2.0, 1.0, 2.0, 5.0, 10.0]
        );
    }

    #[test]
    fn rebuild_reuses_storage() {
        let g = GridSpec::new(36, 24, 9);
        let mut table = ColumnForcing::new(&g, 0.0);
        let ptr = table.lons.as_ptr();
        table.rebuild(&g, 5_400.0);
        assert_eq!(table.lons.as_ptr(), ptr);
        assert_eq!(table.trigger_bucket, 3);
        assert_eq!(table.cloud_bucket, 1);
    }
}
