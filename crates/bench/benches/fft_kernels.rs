//! FFT vs DFT vs direct convolution — the arithmetic core of the paper's
//! filter comparison (§3.1: O(N²) convolution vs O(N logN) FFT).

use agcm_bench::harness::bench;
use agcm_fft::complex::Complex64;
use agcm_fft::convolution::{circular_convolve_direct, circular_convolve_fft};
use agcm_fft::dft::dft;
use agcm_fft::plan::FftPlan;
use std::hint::black_box;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|j| Complex64::new((j as f64 * 0.7).sin(), (j as f64 * 0.3).cos()))
        .collect()
}

fn main() {
    let x = signal(144);
    let plan = FftPlan::new(144);
    bench("transform_n144/fft_mixed_radix", || {
        plan.forward(black_box(&x))
    });
    bench("transform_n144/dft_direct", || dft(black_box(&x)));

    for n in [36usize, 72, 144, 288] {
        let x = signal(n);
        let plan = FftPlan::new(n);
        bench(&format!("fft_scaling/{n}"), || plan.forward(black_box(&x)));
    }

    // One filtered latitude line: the paper's Eq. (2) vs Eq. (1) evaluation.
    let n = 144;
    let plan = FftPlan::new(n);
    let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.21).sin()).collect();
    let kernel: Vec<f64> = (0..n)
        .map(|j| ((j * j) as f64 * 0.01).cos() / n as f64)
        .collect();
    bench("one_line_n144/convolution_direct", || {
        circular_convolve_direct(&x, &kernel)
    });
    bench("one_line_n144/convolution_via_fft", || {
        circular_convolve_fft(&plan, &x, &kernel)
    });
}
