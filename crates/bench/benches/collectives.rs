//! Message-passing substrate collectives — the communication primitives
//! underneath every parallel algorithm in the reproduction.
//!
//! Each collective is timed inside one open world, so no thread spawn
//! lands in its number; spawning a world is timed on its own.

use agcm_bench::harness::{bench, smoke};
use agcm_mps::collectives::Op;
use agcm_mps::message::Payload;
use agcm_mps::runtime::run;
use agcm_mps::Comm;
use std::hint::black_box;
use std::time::Instant;

/// Median ns per call of `op` over 20 rounds of 50 calls. Every round
/// starts with a barrier, so all ranks time the same calls; rank 0 prints.
fn in_world(comm: &Comm, name: &str, mut op: impl FnMut()) {
    let (rounds, per_round) = if smoke() { (1, 1) } else { (20, 50) };
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..per_round {
            op();
        }
        samples.push(t0.elapsed().as_secs_f64() / per_round as f64);
    }
    if comm.rank() != 0 {
        return;
    }
    if smoke() {
        println!("{name}: ok (smoke, 1 iteration)");
    } else {
        samples.sort_by(f64::total_cmp);
        println!("{name}: median {:.0} ns/iter", samples[rounds / 2] * 1e9);
    }
}

fn main() {
    run(8, |comm| {
        let group = "collectives_8_ranks";
        in_world(comm, &format!("{group}/barrier"), || comm.barrier());
        let data = vec![comm.rank() as f64; 1024];
        in_world(comm, &format!("{group}/allreduce_1k_f64"), || {
            black_box(comm.allreduce_f64(Op::Sum, &data));
        });
        in_world(comm, &format!("{group}/alltoallv_4kB_each"), || {
            let send: Vec<Payload> = (0..comm.size())
                .map(|_| Payload::F64(vec![1.0; 512]))
                .collect();
            black_box(comm.alltoallv(send));
        });
    });

    for p in [4usize, 16, 64] {
        run(p, |comm| {
            let data = if comm.rank() == 0 {
                vec![42.0; 2048]
            } else {
                vec![]
            };
            in_world(comm, &format!("bcast_scaling/{p}"), || {
                black_box(comm.bcast_f64(0, &data));
            });
        });
    }

    bench("spawn/8_ranks", || run(8, |comm| comm.rank()));
}
