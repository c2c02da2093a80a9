//! Separate vs block array layouts on the 7-point Laplace stencil —
//! the paper's §3.4 cache experiment (5× on Paragon, 2.6× on T3D at 32³).

use agcm_bench::harness::bench;
use agcm_grid::field::{BlockField, Field3D};
use agcm_singlenode::blockarray::{laplace_block, laplace_separate};
use std::hint::black_box;

fn fields(m: usize, n: usize) -> Vec<Field3D> {
    (0..m)
        .map(|v| {
            Field3D::from_fn(n, n, n, |i, j, k| {
                ((i + 2 * j + 3 * k + 7 * v) as f64 * 0.13).sin()
            })
        })
        .collect()
}

fn main() {
    for n in [16usize, 32, 48] {
        let f = fields(12, n);
        let blk = BlockField::from_fields(&f);
        let group = format!("laplace_12_fields_{n}cubed");
        bench(&format!("{group}/separate_arrays/{n}"), || {
            laplace_separate(black_box(&f))
        });
        bench(&format!("{group}/block_array/{n}"), || {
            laplace_block(black_box(&blk))
        });
    }

    // The paper's observed conflict: the block layout helps only loops
    // touching *all* variables. Vary the field count at fixed size.
    for m in [2usize, 6, 12] {
        let f = fields(m, 32);
        let blk = BlockField::from_fields(&f);
        let group = "laplace_32cubed_by_field_count";
        bench(&format!("{group}/separate/{m}"), || {
            laplace_separate(black_box(&f))
        });
        bench(&format!("{group}/block/{m}"), || {
            laplace_block(black_box(&blk))
        });
    }
}
