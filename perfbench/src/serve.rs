//! `serve_reuse`: a closed loop of one HTTP client against one
//! in-process `AgcmServer`. The client POSTs a job, polls until the job
//! is terminal, checks it, then sends the next. Every timed job
//! resubmits a warmed lineage at its committed horizon, so it resumes
//! there and recomputes no step.
//!
//! The section runs on one CPU, [`CPU`]: the client, the server and
//! every thread the server starts. Unpinned, a POST's wake-up of the
//! dispatcher on the other virtual CPU stalled the connection thread for
//! 1–4 ms in 6–35% of acks, a share that changed with the host's load
//! from run to run, so `ack_p90_ms` jumped between the two modes.
//! Pinned, the dispatcher and the job it starts take the CPU before
//! the client reads the 202 on nearly every job, so `ack_*` include the
//! dispatch and the start of the job just submitted.
//!
//! Only that CPU gets an idle spinner. With the section on CPU 0 and a
//! spinner on CPU 1, where the block device's interrupt was delivered,
//! 8 of 31 set-ups had a warm-up checkpoint fsync that had not returned
//! after 60 s; with no spinner on CPU 1, none of 40 did.

use crate::loadgen::{self, Job, ReusePlan, REUSE_POOL};
use crate::report::{Metric, Outcome};
use crate::stats::{median, windowed_quantile, windowed_rate, windows, Latency};
use agcm_ensemble::EnsembleConfig;
use agcm_server::client::{get, post_job};
use agcm_server::{AgcmServer, ServerConfig};
use agcm_telemetry::json::Value;
use agcm_telemetry::HistogramSnapshot;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The CPU the section runs on.
const CPU: usize = 0;
/// Rank budget of the scheduler: one 1×2 job or two 1×1 jobs at once.
const RANK_BUDGET: usize = 2;
/// Time windows of the timed phase; each latency quantile and the
/// throughput are taken per window and summarized by their median.
const WINDOWS: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Timed jobs the load-generator self-test covers.
const SELF_TEST_JOBS: usize = 400;

/// A scratch directory removed on drop, so a run leaves nothing behind
/// whichever way it ends.
pub struct TempRoot(pub PathBuf);

impl TempRoot {
    /// Create `path` (and parents).
    pub fn create(path: PathBuf) -> std::io::Result<TempRoot> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot(path))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes under `path`, recursively.
fn disk_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

fn start_server(dir: &Path) -> Result<AgcmServer, String> {
    AgcmServer::start(ServerConfig {
        journal_dir: dir.join("journal"),
        ensemble: EnsembleConfig {
            rank_budget: RANK_BUDGET,
            ..EnsembleConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// One finished job as the client saw it.
#[derive(Debug)]
struct Done {
    /// Seconds from the start of the timed phase to the POST.
    sent_s: f64,
    ack_ms: f64,
    result_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    /// Terminal record from `GET /v1/jobs/{id}`.
    record: Value,
    id: u64,
}

/// Poll interval: a fixed share of the time waited so far, so short
/// jobs are observed promptly and long ones are not flooded with GETs.
fn poll_interval(waited: Duration) -> Duration {
    (waited / 8).clamp(Duration::from_micros(200), Duration::from_millis(5))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// POST `job`, poll until terminal.
fn submit_and_wait(
    addr: SocketAddr,
    job: &Job,
    name: &str,
    epoch: Instant,
) -> Result<Done, String> {
    let body = job.body(name);
    let t0 = Instant::now();
    let sent_s = t0.duration_since(epoch).as_secs_f64();
    let ack = post_job(addr, None, &body).map_err(|e| format!("POST: {e}"))?;
    let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
    if ack.status != 202 {
        return Err(format!("POST answered {}: {}", ack.status, ack.body));
    }
    let ack = Value::parse(&ack.body).map_err(|e| format!("ack body: {e}"))?;
    let id = num(&ack, "id").ok_or("ack has no id")? as u64;
    let path = format!("/v1/jobs/{id}");
    loop {
        std::thread::sleep(poll_interval(t0.elapsed()));
        let resp = get(addr, &path).map_err(|e| format!("GET: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET {path} answered {}", resp.status));
        }
        let view = Value::parse(&resp.body).map_err(|e| format!("job view: {e}"))?;
        let state = view.get("state").and_then(Value::as_str).unwrap_or("");
        if state != "queued" && state != "running" {
            let result_ms = t0.elapsed().as_secs_f64() * 1e3;
            return Ok(Done {
                sent_s,
                ack_ms,
                result_ms,
                queue_ms: num(&view, "queue_seconds").unwrap_or(f64::NAN) * 1e3,
                run_ms: num(&view, "run_seconds").unwrap_or(f64::NAN) * 1e3,
                record: view,
                id,
            });
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} not terminal after {JOB_TIMEOUT:?}"));
        }
    }
}

/// The output check on one terminal job: it `completed`, ran the
/// lineage of the config sent, and resumed from `resumed_from` (`None`:
/// ran from the start).
fn check(job: &Job, done: &Done, resumed_from: Option<usize>) -> Result<(), String> {
    let r = &done.record;
    let state = r.get("state").and_then(Value::as_str).unwrap_or("");
    if state != "completed" {
        return Err(format!("job {} ended {state}", done.id));
    }
    let lineage = format!("{:016x}", job.config().lineage());
    if r.get("lineage").and_then(Value::as_str) != Some(lineage.as_str()) {
        return Err(format!(
            "job {} ran lineage {:?}, sent {lineage}",
            done.id,
            r.get("lineage")
        ));
    }
    let resumed = r.get("resumed_from").and_then(Value::as_f64);
    if resumed != resumed_from.map(|s| s as f64) {
        return Err(format!(
            "job {} resumed from {resumed:?}, expected {resumed_from:?}",
            done.id
        ));
    }
    Ok(())
}

/// Run `jobs` concurrently (one thread each) and check them: the
/// untimed warm-up. Every warm-up job is a fresh lineage.
fn warm_up(addr: SocketAddr, jobs: &[Job], out: &Mutex<&mut Outcome>) {
    std::thread::scope(|s| {
        for (i, job) in jobs.iter().enumerate() {
            s.spawn(move || {
                let res = submit_and_wait(addr, job, &format!("warm-{i}"), Instant::now())
                    .and_then(|d| check(job, &d, None));
                let mut out = out.lock().expect("a client thread panicked");
                out.attempted += 1;
                if let Err(e) = res {
                    out.fail(format!("warm-up: {e}"));
                }
            });
        }
    });
}

/// What the timed closed loop collected.
#[derive(Default)]
struct Timed {
    /// `(seconds into the timed phase, ms)` per job, keyed by send time.
    ack_ms: Vec<(f64, f64)>,
    result_ms: Vec<(f64, f64)>,
    /// Seconds into the timed phase at which each job was seen done.
    done_s: Vec<f64>,
    /// Submit to dispatch. With one client and each job taking the
    /// whole rank budget, no job waits behind another: this is
    /// dispatch latency, not queue wait.
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    /// Jobs that completed, for the store probes.
    completed: Vec<Job>,
}

/// The `serve_reuse` workload.
pub fn run(seed: u64, seconds: u64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    for failure in loadgen::self_test(seed, SELF_TEST_JOBS) {
        out.fail(format!("load generator self-test: {failure}"));
    }
    // A thread of its own, so the pin (inherited by every server thread)
    // does not outlive the section.
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Err(e) = crate::cpu::pin_to(CPU) {
                eprintln!(
                    "warning: serving section not pinned to CPU {CPU} ({e}); acks will be bimodal"
                );
            }
            let _spinner = crate::cpu::IdleSpinners::on(&[CPU]);
            if let Err(e) = run_inner(seed, seconds, trace, work, &mut out) {
                out.fail(e);
            }
        });
    });
    out
}

fn run_inner(
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let root = TempRoot::create(work.to_path_buf()).map_err(|e| format!("temp root: {e}"))?;
    let mut plan = ReusePlan::new(seed);

    // Set-up: start on an empty journal directory plus the warm-up
    // jobs, several times; the last set-up serves the timed phase.
    let mut setups = Vec::new();
    let mut server = None;
    let mut dir = PathBuf::new();
    for rep in 0..SETUPS {
        dir = root.0.join(format!("setup{rep}"));
        let t0 = Instant::now();
        let srv = start_server(&dir)?;
        warm_up(srv.local_addr(), &REUSE_POOL, &Mutex::new(&mut *out));
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            srv.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(srv);
        }
    }
    let server = server.expect("last set-up kept");
    let addr = server.local_addr();

    // Timed closed loop: one client, on this thread.
    let mut timed = Timed::default();
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs(seconds);
    let mut k = 0u64;
    while Instant::now() < deadline {
        let job = plan.next_job();
        out.attempted += 1;
        let res = submit_and_wait(addr, &job, &format!("job-{k}"), t_start)
            .and_then(|d| check(&job, &d, Some(job.steps)).map(|()| d));
        k += 1;
        match res {
            Ok(d) => {
                timed.ack_ms.push((d.sent_s, d.ack_ms));
                timed.result_ms.push((d.sent_s, d.result_ms));
                timed.done_s.push(t_start.elapsed().as_secs_f64());
                timed.queue_ms.push(d.queue_ms);
                timed.run_ms.push(d.run_ms);
                timed.overhead_ms.push(d.result_ms - d.queue_ms - d.run_ms);
                timed.completed.push(job);
            }
            Err(e) => out.fail(e),
        }
    }
    let wall_s = t_start.elapsed().as_secs_f64();

    let span = seconds as f64;
    let ack = Latency::of(&windows(&timed.ack_ms, span, WINDOWS));
    let result = Latency::of(&windows(&timed.result_ms, span, WINDOWS));
    // `result_ms`, `done_s` and `completed` were pushed together.
    let days: Vec<f64> = timed
        .completed
        .iter()
        .map(|job| job.steps as f64 / job.config().steps_per_day())
        .collect();
    let done = |weight: &dyn Fn(usize) -> f64| -> Vec<(f64, f64)> {
        timed
            .done_s
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, weight(i)))
            .collect()
    };
    let jobs_per_s = windowed_rate(&done(&|_| 1.0), span, WINDOWS);
    // Wall seconds per simulated day as the whole service delivers them,
    // and as one client receives them: each job's result latency over
    // the simulated days it delivers. Every timed job resumes at its
    // horizon and computes no step, yet is credited with the days it
    // returns, so these two are rescalings of `jobs_per_s` and of the
    // result latency.
    let sim_day_s = 1.0 / windowed_rate(&done(&|i| days[i]), span, WINDOWS);
    let per_job_day: Vec<(f64, f64)> = timed
        .result_ms
        .iter()
        .zip(&days)
        .map(|(&(t, ms), &d)| (t, ms / 1e3 / d))
        .collect();
    let (sim_day_s_serial, _) = windowed_quantile(&windows(&per_job_day, span, WINDOWS), 0.5);
    eprintln!(
        "serve_reuse: {} jobs in {wall_s:.2} s",
        timed.completed.len()
    );
    eprintln!("{}", ack.describe("ack_ms"));
    eprintln!("{}", result.describe("result_ms"));
    if ack.supported.is_none_or(|p| p < 90.0) {
        eprintln!("warning: fewer than 100 timed jobs; p90 has under 10 samples beyond it");
    }
    out.e2e(Metric::new("sim_day_s", sim_day_s, "s"));
    out.e2e(Metric::new("sim_day_s_serial", sim_day_s_serial, "s"));
    out.e2e(Metric::new("setup_s", median(&setups), "s"));
    out.e2e(Metric::new("jobs_per_s", jobs_per_s, "1/s"));
    out.e2e(Metric::new("ack_p50_ms", ack.p50, "ms"));
    out.e2e(Metric::new("ack_p90_ms", ack.p90, "ms"));
    out.e2e(Metric::new("result_p50_ms", result.p50, "ms"));
    out.e2e(Metric::new("result_p90_ms", result.p90, "ms"));

    let jobs_total = (timed.completed.len() + REUSE_POOL.len()) as f64;
    let metrics = if trace {
        Some(get(addr, "/v1/metrics").map_err(|e| format!("GET /v1/metrics: {e}"))?)
    } else {
        None
    };
    let health = if trace {
        Some(get(addr, "/healthz").map_err(|e| format!("GET /healthz: {e}"))?)
    } else {
        None
    };
    server.shutdown();
    let store_dir = dir.join("journal").join("store");
    let bytes = disk_bytes(&root.0);
    eprintln!(
        "disk: {:.1} MB under the run's temporary root ({:.2} MB per job), removed at exit",
        bytes as f64 / 1e6,
        bytes as f64 / 1e6 / jobs_total
    );

    if let (Some(metrics), Some(health)) = (metrics, health) {
        let m = Value::parse(&metrics.body).map_err(|e| format!("metrics body: {e}"))?;
        let h = Value::parse(&health.body).map_err(|e| format!("healthz body: {e}"))?;
        let hist_p50_ms = |route: &str| -> f64 {
            let key = format!("http.latency_seconds.{route}");
            let h = m
                .get("server")
                .and_then(|s| s.get("histograms"))
                .and_then(|hs| hs.get(&key));
            let snapshot = HistogramSnapshot {
                count: h.and_then(|h| num(h, "count")).unwrap_or(0.0) as u64,
                sum: h.and_then(|h| num(h, "sum")).unwrap_or(0.0),
                buckets: h
                    .and_then(|h| h.get("buckets"))
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| {
                        let b = b.as_arr()?;
                        Some((b.first()?.as_f64()?, b.get(1)?.as_f64()? as u64))
                    })
                    .collect(),
            };
            snapshot.quantile(0.5) * 1e3
        };
        let store = |key: &str| m.get("store").and_then(|s| num(s, key)).unwrap_or(f64::NAN);
        let lines = h
            .get("journal")
            .and_then(|j| num(j, "appended_lines"))
            .unwrap_or(f64::NAN);
        out.layer(Metric::new(
            "server.post_ms",
            hist_p50_ms("post_jobs"),
            "ms",
        ));
        out.layer(Metric::new("server.get_ms", hist_p50_ms("get_job"), "ms"));
        out.layer(Metric::new(
            "journal.lines_per_job",
            lines / jobs_total,
            "count",
        ));
        out.layer(Metric::new(
            "ensemble.queue_ms",
            median(&timed.queue_ms),
            "ms",
        ));
        out.layer(Metric::new("ensemble.run_ms", median(&timed.run_ms), "ms"));
        out.layer(Metric::new(
            "ensemble.overhead_ms",
            median(&timed.overhead_ms),
            "ms",
        ));
        out.layer(Metric::new(
            "ckptstore.manifests",
            store("manifests"),
            "count",
        ));
        out.layer(Metric::new(
            "ckptstore.write_amplification",
            store("bytes_written") / store("bytes_ingested"),
            "ratio",
        ));
        let hits = store("prefix_hits");
        out.layer(Metric::new(
            "ckptstore.prefix_hit_ratio",
            hits / (hits + store("prefix_misses")),
            "ratio",
        ));

        // Shards to read back: each completed job's final step, every
        // rank (a bounded sample of the completed jobs).
        let shards: Vec<(u64, u64, u32)> = timed
            .completed
            .iter()
            .take(64)
            .flat_map(|j| {
                let lineage = j.config().lineage();
                (0..j.mesh_lon as u32).map(move |r| (lineage, j.steps as u64, r))
            })
            .collect();
        crate::probes::store(out, &store_dir, &root.0.join("empty-store"), &shards, seed)?;
        out.layer(Metric::new("disk.mb_per_run", bytes as f64 / 1e6, "MB"));
    }
    Ok(())
}
