//! Radiative transfer emulation: solar geometry and longwave exchange.
//!
//! Day/night is the single largest systematic driver of physics load
//! imbalance — half the planet skips shortwave radiation entirely, and
//! with a longitude-decomposed mesh the day hemisphere lands on a fixed
//! subset of processors at any instant.
//!
//! The longwave kernel is the class of routine the paper picked for
//! single-node optimization ("a routine involved in the longwave radiation
//! calculation"): an emissivity exchange between every pair of layers,
//! O(K²) per column.

/// Seconds per simulated day.
pub const DAY_SECONDS: f64 = 86_400.0;

/// Charged flops per level of the shortwave sweep. Like
/// `agcm_dynamics::tendencies::flops`, these constants are cost-model
/// parameters sized to the full UCLA parameterization suite (see
/// DESIGN.md): the reduced kernels here perform the same *pattern* of work
/// with less arithmetic per element.
pub const SW_FLOPS_PER_LEVEL: f64 = 450.0;

/// Charged flops per level-pair of the longwave exchange (O(K²) total).
pub const LW_FLOPS_PER_PAIR: f64 = 70.0;

/// Cosine of the solar zenith angle at (lat, lon) radians and simulation
/// time `t` seconds, for equinox conditions (solar declination 0).
/// Positive means the Sun is up.
pub fn solar_zenith_cos(lat: f64, lon: f64, t_seconds: f64) -> f64 {
    // Hour angle: the Sun starts over longitude 0 at t = 0 and sweeps west.
    let hour_angle = lon - 2.0 * std::f64::consts::PI * (t_seconds / DAY_SECONDS);
    lat.cos() * hour_angle.cos()
}

/// Whether the column at (lat, lon) is sunlit at time `t`.
pub fn is_day(lat: f64, lon: f64, t_seconds: f64) -> bool {
    solar_zenith_cos(lat, lon, t_seconds) > 0.0
}

/// Shortwave heating of one column: a two-stream sweep, O(K). Only called
/// for sunlit columns. Returns the heating profile and the flop count.
pub fn shortwave(column: &mut [f64], cos_zenith: f64, cloud: f64) -> f64 {
    let k = column.len();
    let mut transmitted = cos_zenith.max(0.0) * (1.0 - 0.6 * cloud);
    for v in column.iter_mut().rev() {
        // Absorb a layer-dependent fraction on the way down.
        let absorbed = 0.12 * transmitted;
        *v += absorbed;
        transmitted -= absorbed;
    }
    SW_FLOPS_PER_LEVEL * k as f64
}

/// Longwave emissivity exchange of one column: every layer exchanges with
/// every other, O(K²) — the heavy, always-on part of radiation. Returns
/// the flop count.
///
/// Layer `i` moves toward layer `j` by `ε (T_j − T_i) / (1 + (i − j)²)`,
/// all from the incoming profile. The sweep runs over source levels `j`
/// in ascending order and, for each, updates every receiving level at
/// once (independent lanes, no loop-carried dependency), skipping the
/// self term. Each `net[i]` therefore sums the same terms in the same
/// ascending-`j` order as a receiving-level-outer loop would.
///
/// `denominators` holds `1 + d²` for the signed level offsets
/// `d = −(K−1) ..= K−1` (see
/// [`ColumnForcing::longwave_denominators`](crate::forcing::ColumnForcing::longwave_denominators)),
/// so source level `j` reads one contiguous slice indexed by `i`. `net`
/// is caller-owned scratch of the column's length.
pub fn longwave(column: &mut [f64], cloud: f64, denominators: &[f64], net: &mut [f64]) -> f64 {
    let k = column.len();
    assert_eq!(net.len(), k, "net buffer must match the column");
    assert_eq!(
        denominators.len() + 1,
        2 * k,
        "one denominator per level offset"
    );
    let emissivity = 0.8 + 0.15 * cloud;
    net.fill(0.0);
    for (j, &tj) in column.iter().enumerate() {
        let den = &denominators[k - 1 - j..2 * k - 1 - j];
        let (net_lo, net_hi) = net.split_at_mut(j);
        let (col_lo, col_hi) = column.split_at(j);
        for ((n, &ti), &d) in net_lo.iter_mut().zip(col_lo).zip(&den[..j]) {
            *n += emissivity * (tj - ti) / d;
        }
        for ((n, &ti), &d) in net_hi[1..].iter_mut().zip(&col_hi[1..]).zip(&den[j + 1..]) {
            *n += emissivity * (tj - ti) / d;
        }
    }
    for (v, &n) in column.iter_mut().zip(net.iter()) {
        *v += 1.0e-3 * n;
    }
    LW_FLOPS_PER_PAIR * (k * k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcing::ColumnForcing;
    use agcm_grid::latlon::GridSpec;

    /// Longwave on one column with its own table and scratch.
    fn lw(column: &mut [f64], cloud: f64) -> f64 {
        let table = ColumnForcing::new(&GridSpec::new(1, 1, column.len()), 0.0);
        let mut net = vec![0.0; column.len()];
        longwave(column, cloud, table.longwave_denominators(), &mut net)
    }

    #[test]
    fn noon_at_greenwich_at_t0() {
        // t=0: hour angle 0 at lon 0 → Sun overhead on the equator.
        assert!((solar_zenith_cos(0.0, 0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!(is_day(0.0, 0.0, 0.0));
    }

    #[test]
    fn midnight_on_far_side() {
        let lon = std::f64::consts::PI; // 180°E at t=0
        assert!(solar_zenith_cos(0.0, lon, 0.0) < 0.0);
        assert!(!is_day(0.0, lon, 0.0));
    }

    #[test]
    fn subsolar_point_moves_with_time() {
        // A quarter day later the subsolar longitude has advanced by 90°:
        // longitude 90° is now at local noon.
        let quarter_day = DAY_SECONDS / 4.0;
        let lon_90 = std::f64::consts::FRAC_PI_2;
        assert!((solar_zenith_cos(0.0, lon_90, quarter_day) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_the_planet_is_dark() {
        let n = 1000;
        let day_count = (0..n)
            .filter(|&i| {
                let lon = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                is_day(0.3, lon, 12_345.0)
            })
            .count();
        let frac = day_count as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "day fraction {frac}");
    }

    #[test]
    fn shortwave_conserves_deposit_order() {
        let mut col = vec![0.0; 9];
        let flops = shortwave(&mut col, 1.0, 0.0);
        assert_eq!(flops, 9.0 * SW_FLOPS_PER_LEVEL);
        // Top layer (last index) absorbs first and most.
        assert!(col[8] > col[0]);
        assert!(col.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn cloud_reduces_shortwave() {
        let mut clear = vec![0.0; 9];
        let mut cloudy = vec![0.0; 9];
        shortwave(&mut clear, 1.0, 0.0);
        shortwave(&mut cloudy, 1.0, 1.0);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        assert!(sum(&cloudy) < sum(&clear));
    }

    #[test]
    fn longwave_relaxes_toward_uniformity() {
        let mut col: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let spread_before = col[8] - col[0];
        for _ in 0..100 {
            lw(&mut col, 0.3);
        }
        let spread_after = col[8] - col[0];
        assert!(
            spread_after < spread_before,
            "{spread_before} -> {spread_after}"
        );
    }

    #[test]
    fn longwave_flops_quadratic_in_levels() {
        let mut a = vec![1.0; 9];
        let mut b = vec![1.0; 18];
        let fa = lw(&mut a, 0.0);
        let fb = lw(&mut b, 0.0);
        assert_eq!(fb / fa, 4.0);
    }

    #[test]
    fn longwave_conserves_mean_approximately() {
        let mut col: Vec<f64> = (0..9).map(|i| (i as f64 * 1.7).sin()).collect();
        let mean_before: f64 = col.iter().sum::<f64>() / 9.0;
        lw(&mut col, 0.5);
        let mean_after: f64 = col.iter().sum::<f64>() / 9.0;
        assert!(
            (mean_before - mean_after).abs() < 1e-9,
            "exchange is pairwise-antisymmetric"
        );
    }
}
