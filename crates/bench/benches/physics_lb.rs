//! Physics load-balancing schemes: planning cost and end-to-end balanced
//! execution (Tables 1–3 / Figures 4–6 ablations).

use agcm_bench::harness::bench;
use agcm_grid::decomp::Decomp;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::scheme1::CyclicShuffle;
use agcm_physics::balance::scheme2::SortedGreedy;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::balance::BalanceScheme;
use agcm_physics::step::PhysicsStep;

fn synthetic_loads(p: usize) -> Vec<f64> {
    (0..p).map(|i| 100.0 + ((i * 7919) % 101) as f64).collect()
}

fn main() {
    // Scheme 1 plans O(P²) transfers, schemes 2-3 O(P): visible directly
    // in planning time at P = 240.
    for p in [64usize, 240] {
        let loads = synthetic_loads(p);
        bench(&format!("plan_cost/scheme1_cyclic/{p}"), || {
            CyclicShuffle.plan(&loads)
        });
        bench(&format!("plan_cost/scheme2_greedy/{p}"), || {
            SortedGreedy::default().plan(&loads)
        });
        bench(&format!("plan_cost/scheme3_pairwise/{p}"), || {
            PairwiseExchange::default().plan(&loads)
        });
    }

    let grid = GridSpec::new(48, 24, 9);
    let decomp = Decomp::new(grid, 2, 2);
    let t = 21_600.0;
    let loads: Vec<f64> = (0..decomp.size())
        .map(|r| PhysicsStep::new(grid, decomp.subdomain_of_rank(r)).predicted_load(t))
        .collect();
    let plan = PairwiseExchange::default().plan(&loads);
    let group = "physics_pass_48x24x9_2x2";
    bench(&format!("{group}/unbalanced"), || {
        run(decomp.size(), |comm| {
            let sub = decomp.subdomain_of_rank(comm.rank());
            let mut theta = Field3D::zeros(sub.ni, sub.nj, grid.n_lev);
            PhysicsStep::new(grid, sub).run_local(comm, &mut theta, t)
        })
    });
    bench(&format!("{group}/scheme3_balanced"), || {
        run(decomp.size(), |comm| {
            let sub = decomp.subdomain_of_rank(comm.rank());
            let mut theta = Field3D::zeros(sub.ni, sub.nj, grid.n_lev);
            run_balanced(comm, &grid, &sub, &mut theta, t, &plan).performed
        })
    });
}
