//! Golden output bits of the production configuration on a small grid.
//!
//! The model is a deterministic function of its configuration, and every
//! optimisation of its hot path is meant to be bit-identical. This test
//! pins the exact IEEE bits a 6-step run produces — the global maximum
//! wind and a fold over every rank's final prognostic fields — on a 1×1
//! and a 1×2 mesh, with the load-balanced FFT filter and scheme-3 physics
//! balancing (which moves columns between ranks on 1×2). Any change to
//! these constants is a change to the model's answer, not a speed-up.

use std::path::PathBuf;
use ucla_agcm_repro::agcm::{run_model, run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::resilience::coordinator::CheckpointStore;

const STEPS: usize = 6;
/// Global max-wind bits after `STEPS` steps, identical on both meshes.
const MAX_WIND_BITS: u64 = 0x403c_26e6_8270_587a;

fn cfg(mesh_lon: usize) -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 1, mesh_lon, FilterVariant::LbFft)
        .with_physics_balancing()
        .with_steps(STEPS)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("agcm-bitwise-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(max-wind bits, fold over every rank's final field bits)` of one run.
fn golden_bits(mesh_lon: usize) -> (u64, u64) {
    let plain = run_model(cfg(mesh_lon));
    let wind = plain
        .ranks
        .iter()
        .map(|r| r.max_wind)
        .fold(f64::NEG_INFINITY, f64::max)
        .to_bits();

    // The plain driver returns no fields, so take them from a final
    // checkpoint of the resilient driver, whose outcomes must be the
    // plain run's exactly.
    let dir = scratch(&format!("1x{mesh_lon}"));
    let resilient = run_model_resilient(
        cfg(mesh_lon).with_checkpointing(STEPS),
        ResilienceOpts::new(&dir),
    )
    .unwrap();
    assert_eq!(resilient.ranks, plain.ranks);
    let store = CheckpointStore::new(&dir);
    let mut fold: u64 = 0xcbf2_9ce4_8422_2325;
    for rank in 0..mesh_lon as u32 {
        let shard = store.load_shard(STEPS as u64, rank).unwrap();
        for field in &shard.fields {
            for v in field.as_slice() {
                fold = (fold ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (wind, fold)
}

#[test]
fn one_by_one_output_bits_are_pinned() {
    let (wind, fold) = golden_bits(1);
    assert_eq!(wind, MAX_WIND_BITS, "max wind bits {wind:#018x}");
    assert_eq!(fold, 0xed4a_b4af_eeac_a61f, "field fold {fold:#018x}");
}

#[test]
fn one_by_two_output_bits_are_pinned() {
    let (wind, fold) = golden_bits(2);
    assert_eq!(wind, MAX_WIND_BITS, "max wind bits {wind:#018x}");
    assert_eq!(fold, 0x00f2_12a0_48cc_5202, "field fold {fold:#018x}");
}
