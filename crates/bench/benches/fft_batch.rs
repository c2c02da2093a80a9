//! Batched, allocation-free FFT filtering vs the per-line paths.
//!
//! The three rungs of the optimization ladder for one filtered latitude
//! group (paper §3.2, Eq. 1):
//!
//! 1. `per_line_complex` — the original organization: every real line is
//!    widened to a full complex transform, with fresh allocations per call
//!    (`apply_spectral_multiplier`);
//! 2. `per_line_real` — one line at a time through the workspace-backed
//!    half-complex real transform (no allocations, still no batching);
//! 3. `batched_real` — the production path: pairs of real lines packed
//!    into single complex transforms (`filter_lines_flat`), workspace
//!    reused across the whole batch.
//!
//! Acceptance: `batched_real` beats `per_line_complex` by ≥2× at n=144.

use agcm_bench::harness::bench;
use agcm_fft::batch::{filter_line, filter_lines_flat};
use agcm_fft::convolution::apply_spectral_multiplier;
use agcm_fft::plan::FftPlan;

/// Lines per batch: one strongly-filtered polar latitude moves 4 variables
/// × 9 levels in the paper's 9-layer configuration.
const BATCH: usize = 36;

fn lines(n: usize) -> Vec<f64> {
    (0..BATCH * n)
        .map(|j| (j as f64 * 0.37).sin() + 0.3 * (j as f64 * 0.11).cos())
        .collect()
}

/// A strong-filter-shaped symmetric multiplier (damps high wavenumbers).
fn multiplier(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let s = k.min(n - k) as f64 / (n as f64 / 2.0);
            1.0 / (1.0 + 8.0 * s * s)
        })
        .collect()
}

fn main() {
    for n in [144usize, 90] {
        let plan = FftPlan::new(n);
        let mult = multiplier(n);
        let base = lines(n);
        let group = format!("filter_batch_n{n}");

        let mut buf = base.clone();
        bench(&format!("{group}/per_line_complex/{BATCH}"), || {
            for line in buf.chunks_mut(n) {
                let out = apply_spectral_multiplier(&plan, line, &mult);
                line.copy_from_slice(&out);
            }
        });

        let mut buf = base.clone();
        let mut ws = plan.workspace();
        bench(&format!("{group}/per_line_real/{BATCH}"), || {
            for line in buf.chunks_mut(n) {
                filter_line(&plan, line, &mult, &mut ws);
            }
        });

        let mut buf = base.clone();
        let mut ws = plan.workspace();
        bench(&format!("{group}/batched_real/{BATCH}"), || {
            filter_lines_flat(&plan, &mut buf, &mult, &mut ws)
        });
    }
}
