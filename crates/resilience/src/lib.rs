//! # agcm-resilience — checkpoint/restart and fault recovery
//!
//! The paper's production runs were long: multi-year simulations at
//! hundreds of node-hours, on machines whose nodes failed. This crate adds
//! the fault-tolerance layer the reproduction needs to run at that scale:
//!
//! * [`checkpoint`] — a versioned, checksummed multi-field model
//!   checkpoint record (dynamics state, physics state, RNG seeds, timestep
//!   counter), extending the single-field history snapshot of
//!   `agcm_grid::history` and sharing its explicit byte-order discipline;
//! * [`coordinator`] — a per-rank shard store with an atomic rename commit
//!   protocol: a checkpoint exists only once every shard is in place and
//!   the `COMMIT` manifest has been published;
//! * [`recovery`] — the restart loop: run under a fault plan, detect rank
//!   deaths (surfaced by `agcm-mps` as typed failures, not panics), resume
//!   from the latest committed checkpoint, and verify nothing by luck —
//!   the model being a deterministic function of (state, step) makes
//!   recovered runs bit-identical to uninterrupted ones;
//! * [`metrics`] — counters aggregating what the fault plane and recovery
//!   loop did.
//!
//! Fault *injection* itself lives in `agcm_mps::fault`, inside the
//! message-passing substrate, so collectives and the model exercise faults
//! without code changes; this crate is the consumer that turns those
//! faults into recoveries.

pub mod checkpoint;
pub mod coordinator;
pub mod metrics;
pub mod recovery;

/// 64-bit FNV-1a over a byte slice: the repo's one integrity and
/// content-address hash (checkpoint records, the fleet store's chunks and
/// index lines, the server journal, `AgcmConfig::lineage`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub use checkpoint::{CheckpointError, ModelCheckpoint};
pub use coordinator::{write_coordinated, CheckpointStore, ShardBackend, StoreError};
pub use metrics::ResilienceMetrics;
pub use recovery::{
    run_recovered, AttemptFailure, RecoveryError, RecoveryOptions, RunProgress, RunReport,
};

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
