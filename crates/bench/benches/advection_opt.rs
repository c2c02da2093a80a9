//! The advection routine: original loops vs the paper's restructuring
//! (§3.4: ~35% reduction on one T3D node).

use agcm_bench::harness::bench;
use agcm_dynamics::advection::{advect_naive, advect_restructured, AdvShape};
use agcm_grid::latlon::GridSpec;

fn inputs(shape: AdvShape) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = shape.ni * shape.nj * shape.nk;
    (
        (0..n).map(|i| (i as f64 * 0.01).sin()).collect(),
        (0..n).map(|i| 10.0 + (i as f64 * 0.02).cos()).collect(),
        (0..n).map(|i| -(i as f64 * 0.03).sin()).collect(),
    )
}

fn main() {
    // The paper's grid and a larger one (cache pressure ablation).
    for (label, ni, nj) in [("paper_144x90x9", 144, 90), ("large_288x180x9", 288, 180)] {
        let shape = AdvShape { ni, nj, nk: 9 };
        let grid = GridSpec::new(shape.ni, shape.nj, shape.nk);
        let (q, u, v) = inputs(shape);
        bench(&format!("advection_{label}/original"), || {
            advect_naive(&q, &u, &v, shape, &grid, 0)
        });
        bench(&format!("advection_{label}/restructured"), || {
            advect_restructured(&q, &u, &v, shape, &grid, 0)
        });
    }
}
