//! The three filter modules end to end (Tables 8–11 in wall-clock
//! miniature): real parallel runs on a small mesh, plus the ablation the
//! DESIGN.md calls out (concurrent vs per-variable movement).

use agcm_bench::harness::bench;
use agcm_filtering::driver::{FilterVariant, PolarFilter};
use agcm_filtering::lines::FilterSetup;
use agcm_filtering::reference::{local_from_global, synthetic_field};
use agcm_grid::decomp::Decomp;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_mps::topology::CartComm;

fn apply_variant(grid: GridSpec, mesh: (usize, usize), variant: FilterVariant) {
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    run(decomp.size(), |comm| {
        let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
        let setup = FilterSetup::new(grid, decomp);
        let filter = PolarFilter::new(&setup, variant);
        let sub = decomp.subdomain_of_rank(comm.rank());
        let mut fields: Vec<Field3D> = globals.iter().map(|g| local_from_global(g, &sub)).collect();
        filter.apply(&setup, &cart, &mut fields);
    });
}

fn main() {
    let grid = GridSpec::new(72, 46, 3);
    for variant in FilterVariant::ALL {
        bench(
            &format!("filter_variants_72x46x3_2x2/{}", variant.label()),
            || apply_variant(grid, (2, 2), variant),
        );
    }

    // The paper's point about the set-up: "done only once" and "nearly
    // independent of AGCM problem size".
    for (label, grid) in [
        ("9_layer", GridSpec::paper_9_layer()),
        ("15_layer", GridSpec::paper_15_layer()),
    ] {
        let decomp = Decomp::new(grid, 4, 8);
        bench(&format!("filter_setup/{label}"), || {
            FilterSetup::new(grid, decomp)
        });
    }
}
