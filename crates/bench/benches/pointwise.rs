//! The pointwise vector-multiply primitive (§3.4, Eq. 4) and the
//! mini-BLAS kernels: naive vs unrolled vs iterator-fused.

use agcm_bench::harness::bench;
use agcm_singlenode::blas::{daxpy, daxpy_unrolled, ddot, ddot_unrolled};
use agcm_singlenode::pointwise::{
    cyclic_multiply, pv_multiply_fused, pv_multiply_naive, pv_multiply_unrolled,
};
use std::hint::black_box;

fn main() {
    let (m, n) = (512usize, 512usize);
    let a: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.003).cos()).collect();
    let b: Vec<f64> = (0..m).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
    let group = "pointwise_multiply_512x512";
    bench(&format!("{group}/naive"), || {
        pv_multiply_naive(&a, &b, m, n)
    });
    bench(&format!("{group}/unrolled"), || {
        pv_multiply_unrolled(&a, &b, m, n)
    });
    bench(&format!("{group}/iterator_fused"), || {
        pv_multiply_fused(&a, &b, m, n)
    });
    bench(&format!("{group}/cyclic_eq4"), || cyclic_multiply(&a, &b));

    let n = 1 << 18;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut y = vec![0.0; n];
    let group = "mini_blas_262144";
    bench(&format!("{group}/daxpy_loop"), || {
        daxpy(1.5, &x, black_box(&mut y))
    });
    bench(&format!("{group}/daxpy_unrolled"), || {
        daxpy_unrolled(1.5, &x, black_box(&mut y))
    });
    bench(&format!("{group}/ddot_loop"), || ddot(&x, &x));
    bench(&format!("{group}/ddot_unrolled"), || ddot_unrolled(&x, &x));
}
