//! Per-layer probes: timed calls into one crate's public functions,
//! each repeated and summarized by its median.

use crate::loadgen::Rng;
use crate::report::{Metric, Outcome};
use crate::stats::median;
use agcm_bench::harness::time_median;
use agcm_ckptstore::Store;
use agcm_fft::batch::filter_lines;
use agcm_fft::{FftPlan, FftWorkspace};
use agcm_filtering::FilterKind;
use agcm_grid::history::ByteOrder;
use agcm_grid::latlon::GridSpec;
use agcm_mps::{Comm, Payload};
use agcm_resilience::checkpoint::ModelCheckpoint;
use std::path::Path;
use std::time::Instant;

/// Median per-operation seconds of `rounds` rounds of `per_round` calls
/// each, synchronized across the world (rank 0's clock).
fn rounds_median(comm: &Comm, rounds: usize, per_round: usize, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..per_round {
            op();
        }
        samples.push(t0.elapsed().as_secs_f64() / per_round as f64);
    }
    median(&samples)
}

const PAYLOAD_BYTES: usize = 1 << 20;

/// `mps` inside one open 2-rank world: one-way latency (half a
/// ping-pong round trip), barrier, and bandwidth of a 1 MiB message
/// packed from and unpacked into field buffers as the filter engine
/// does. Spawn is timed separately over whole `run` calls.
pub fn mps(out: &mut Outcome) {
    let (latency_s, barrier_s, round_s) = {
        let results = agcm_mps::run(2, |comm| {
            let peer = 1 - comm.rank();
            let ping = || {
                if comm.rank() == 0 {
                    comm.send(peer, 1, Payload::Empty);
                    comm.recv(peer, 1);
                } else {
                    comm.recv(peer, 1);
                    comm.send(peer, 1, Payload::Empty);
                }
            };
            let latency = rounds_median(comm, 30, 200, ping) / 2.0;
            let barrier = rounds_median(comm, 30, 200, || comm.barrier());
            let src = vec![1.0f64; PAYLOAD_BYTES / 8];
            let mut dst = vec![0.0f64; PAYLOAD_BYTES / 8];
            let mut transfer = || {
                if comm.rank() == 0 {
                    comm.send(peer, 2, Payload::F64(src.clone()));
                    comm.recv(peer, 3);
                } else {
                    if let Payload::F64(v) = comm.recv(peer, 2).payload {
                        dst.copy_from_slice(&v);
                    }
                    comm.send(peer, 3, Payload::Empty);
                }
            };
            let round = rounds_median(comm, 30, 4, &mut transfer);
            (latency, barrier, round)
        });
        results[0]
    };
    out.layer(Metric::new("mps.latency_us", latency_s * 1e6, "us"));
    out.layer(Metric::new("mps.barrier_us", barrier_s * 1e6, "us"));
    out.layer(Metric::new(
        "mps.bandwidth_mb_s",
        PAYLOAD_BYTES as f64 / 1e6 / (round_s - latency_s).max(1e-9),
        "MB/s",
    ));
    // A whole 2-rank `run`: spawn, trivial body, join.
    let spawn_s = time_median(200, || {
        agcm_mps::run(2, |comm| comm.rank());
    });
    out.layer(Metric::new("mps.spawn_us", spawn_s * 1e6, "us"));
}

/// `fft::batch::filter_lines` on the paper grid's 144-point lines with
/// the strong filter's polar-row multiplier.
pub fn fft(out: &mut Outcome) {
    const LINES: usize = 64;
    let grid = GridSpec::paper_9_layer();
    let n = grid.n_lon;
    let plan = FftPlan::new(n);
    let mult = FilterKind::Strong.multiplier(&grid, 0);
    let mut ws = FftWorkspace::new();
    let mut rng = Rng::new(144);
    let input: Vec<f64> = (0..LINES * n)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let mut buf = input.clone();
    let mut samples = Vec::new();
    for _ in 0..200 {
        buf.copy_from_slice(&input);
        let mut rows: Vec<&mut [f64]> = buf.chunks_exact_mut(n).collect();
        let t0 = Instant::now();
        filter_lines(&plan, std::hint::black_box(&mut rows), &mult, &mut ws);
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / LINES as f64);
        std::hint::black_box(&rows);
    }
    let ns = median(&samples);
    out.layer(Metric::new("fft.filter_ns_per_line", ns, "ns"));
}

/// Seconds for one put plus commit of a fresh `len`-byte shard, median
/// of several, each under a new synthetic lineage so nothing dedups.
fn put_commit_s(store: &Store, len: usize, rng: &mut Rng) -> Result<f64, String> {
    let mut samples = Vec::new();
    for i in 0..7u64 {
        let record: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let lineage = 0xbe9c_0000_0000_0000 | (rng.next_u64() >> 16) | i;
        let t0 = Instant::now();
        store
            .put_shard(lineage, 1, 0, 1, &record)
            .and_then(|()| store.commit(lineage, 1, 1))
            .map_err(|e| format!("probe put/commit: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// `ckptstore` and `resilience` probes on the store a serving run left
/// behind (`root`), reading the shards at `(lineage, step, rank)` in
/// `shards`, plus one put/commit probe on an empty store at `empty`.
pub fn store(
    out: &mut Outcome,
    root: &Path,
    empty: &Path,
    shards: &[(u64, u64, u32)],
    seed: u64,
) -> Result<(), String> {
    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let s = Store::open(root).map_err(|e| format!("reopen store: {e}"))?;
        opens.push(t0.elapsed().as_secs_f64());
        store = Some(s);
    }
    let store = store.expect("opened three times");

    let mut reads = Vec::new();
    let mut sizes = Vec::new();
    let mut sample = None;
    for &(lineage, step, rank) in shards {
        let t0 = Instant::now();
        let bytes = store
            .get_shard(lineage, step, rank)
            .map_err(|e| format!("get_shard {lineage:016x}/{step}/{rank}: {e}"))?;
        reads.push(t0.elapsed().as_secs_f64());
        sizes.push(bytes.len() as f64);
        sample.get_or_insert(bytes);
    }
    let record = sample.ok_or("no shard to probe")?;
    let (ckpt, order) =
        ModelCheckpoint::decode(&record).map_err(|e| format!("decode stored shard: {e}"))?;
    if ckpt.encode(order) != record {
        return Err("re-encoding a stored shard changed its bytes".into());
    }
    let encode_s = time_median(15, || {
        std::hint::black_box(ckpt.encode(ByteOrder::Little));
    });

    let len = median(&sizes) as usize;
    let mut rng = Rng::new(seed ^ 0x5707e);
    let put_s = put_commit_s(&store, len, &mut rng)?;
    let empty_store = Store::open(empty).map_err(|e| format!("open empty store: {e}"))?;
    let put_empty_s = put_commit_s(&empty_store, len, &mut rng)?;

    eprintln!(
        "ckptstore: {} shards read, median shard {:.1} KiB",
        shards.len(),
        len as f64 / 1024.0
    );
    out.layer(Metric::new("ckptstore.put_commit_ms", put_s * 1e3, "ms"));
    out.layer(Metric::new(
        "ckptstore.put_commit_ms_empty",
        put_empty_s * 1e3,
        "ms",
    ));
    out.layer(Metric::new(
        "ckptstore.get_shard_ms",
        median(&reads) * 1e3,
        "ms",
    ));
    out.layer(Metric::new("ckptstore.open_ms", median(&opens) * 1e3, "ms"));
    out.layer(Metric::new("resilience.encode_ms", encode_s * 1e3, "ms"));
    Ok(())
}
