//! Seeded job list for `serve_reuse`, and the generator `model_paper`
//! draws its step counts from. The seed is the only input; the server
//! receives the generated request bodies.

use agcm_core::AgcmConfig;
use agcm_server::JobRequest;
use agcm_telemetry::json::Value;

/// SplitMix64: a small, fast, seedable generator (no external crates).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_a6c3_b3c4_0001)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One model job as the serving API describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Longitudes.
    pub lon: usize,
    /// Latitudes.
    pub lat: usize,
    /// Levels.
    pub lev: usize,
    /// Processors along longitude (the mesh is 1 × `mesh_lon`).
    pub mesh_lon: usize,
    /// Horizon in steps.
    pub steps: usize,
    /// Steps between checkpoints.
    pub checkpoint_every: usize,
}

impl Job {
    /// The `POST /v1/jobs` body.
    pub fn body(&self, name: &str) -> String {
        format!(
            r#"{{"name":"{name}","grid":{{"lon":{},"lat":{},"lev":{}}},"mesh":{{"lat":1,"lon":{}}},"steps":{},"checkpoint_every":{}}}"#,
            self.lon, self.lat, self.lev, self.mesh_lon, self.steps, self.checkpoint_every
        )
    }

    /// The model configuration the server derives from [`Job::body`].
    pub fn config(&self) -> AgcmConfig {
        let v = Value::parse(&self.body("probe")).expect("generated body is JSON");
        JobRequest::from_value(&v)
            .expect("generated body is a valid job")
            .config
    }
}

/// Horizon the warm-up jobs commit every pool lineage to. They
/// checkpoint only there: with a checkpoint every step, set-up was 64
/// fsync-bound shard puts and `setup_s` followed the host disk's latency
/// (0.5–0.9 s between runs).
pub const REUSE_HORIZON: usize = 8;

/// A pool lineage: lon × lat × 5 levels on 1×2, warmed to
/// [`REUSE_HORIZON`].
const fn pool_job(lon: usize, lat: usize) -> Job {
    Job {
        lon,
        lat,
        lev: 5,
        mesh_lon: 2,
        steps: REUSE_HORIZON,
        checkpoint_every: REUSE_HORIZON,
    }
}

/// The `serve_reuse` pool: four fixed lineages of near-equal size on
/// 1×2, so set-up time and shard sizes do not depend on the seed, and
/// every timed job costs about the same. With pool grids of different
/// sizes the result-latency distribution had one mode per grid, and its
/// median moved by 10–20% from run to run as it fell between modes.
pub const REUSE_POOL: [Job; 4] = [
    pool_job(96, 32),
    pool_job(96, 33),
    pool_job(97, 32),
    pool_job(95, 32),
];

/// `serve_reuse` timed jobs: each a seed-chosen pool lineage at the
/// warmed horizon, so every one resumes from its committed last step.
#[derive(Debug, Clone)]
pub struct ReusePlan(Rng);

impl ReusePlan {
    /// The plan for `seed`.
    pub fn new(seed: u64) -> ReusePlan {
        ReusePlan(Rng::new(seed))
    }

    /// The next timed job.
    pub fn next_job(&mut self) -> Job {
        REUSE_POOL[self.0.range(0, REUSE_POOL.len() - 1)]
    }
}

/// Load-generator self-test, run at the start of every serving run:
/// the pool lineages are distinct, the same seed gives the same jobs,
/// and each of the first `len` jobs targets a warmed lineage at or
/// below its committed horizon. Returns the failures found.
pub fn self_test(seed: u64, len: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let mut warmed: Vec<u64> = REUSE_POOL.iter().map(|j| j.config().lineage()).collect();
    warmed.sort_unstable();
    warmed.dedup();
    if warmed.len() != REUSE_POOL.len() {
        failures.push("reuse pool jobs share a lineage".into());
    }
    let (mut a, mut b) = (ReusePlan::new(seed), ReusePlan::new(seed));
    for _ in 0..len {
        let (x, y) = (a.next_job(), b.next_job());
        if x != y {
            failures.push("reuse job list is not a function of the seed".into());
            break;
        }
        if warmed.binary_search(&x.config().lineage()).is_err()
            || x.steps == 0
            || x.steps > REUSE_HORIZON
        {
            failures.push(format!("reuse job {x:?} is not a warmed prefix"));
            break;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let jobs = |seed| {
            let mut plan = ReusePlan::new(seed);
            (0..100).map(|_| plan.next_job()).collect::<Vec<_>>()
        };
        assert_eq!(jobs(7), jobs(7));
        assert_ne!(jobs(7), jobs(8));
    }

    #[test]
    fn reuse_jobs_target_warmed_prefixes() {
        let mut plan = ReusePlan::new(11);
        for _ in 0..500 {
            let j = plan.next_job();
            assert!(REUSE_POOL.contains(&j));
            assert_eq!(j.steps, REUSE_HORIZON);
        }
    }

    #[test]
    fn self_test_passes() {
        assert!(self_test(42, 300).is_empty());
    }

    #[test]
    fn body_round_trips_through_the_server_parser() {
        let j = Job {
            lon: 97,
            lat: 31,
            lev: 5,
            mesh_lon: 2,
            steps: 9,
            checkpoint_every: 3,
        };
        let cfg = j.config();
        assert_eq!(
            (cfg.grid.n_lon, cfg.grid.n_lat, cfg.grid.n_lev),
            (97, 31, 5)
        );
        assert_eq!((cfg.mesh_lat, cfg.mesh_lon, cfg.steps), (1, 2, 9));
        assert_eq!(cfg.checkpoint_every, 3);
        // The horizon and checkpoint interval are not part of the lineage.
        let other = Job {
            steps: 4,
            checkpoint_every: 4,
            ..j
        };
        assert_eq!(other.config().lineage(), cfg.lineage());
    }
}
