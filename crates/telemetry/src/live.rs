//! Streaming live-telemetry aggregation for served jobs.
//!
//! [`LiveCollector`] is the serving layer's in-memory observability state:
//! one collector per server, fed *incrementally* by [`TelemetrySink`]
//! events as jobs execute — never by post-hoc trace replay. Each job gets
//! a [`JobSink`] handle (job id + shared collector) wired into its
//! `JobSpec`, so attempt starts, checkpoint commits, live wall-clock phase
//! durations and the end-of-run authoritative virtual phase totals all
//! fold into the collector as they happen.
//!
//! Two time domains are kept deliberately separate:
//!
//! * **wall/live** — per-phase wall-clock seconds accumulated from
//!   [`TelemetrySink::record_live_phase`] while the job runs. Approximate
//!   (threads share cores), but available *now* for a running job.
//! * **virtual/final** — per-(rank, phase) virtual seconds from
//!   [`TelemetrySink::record_rank_phase`], streamed once from the
//!   successful attempt's timeline. The per-phase view is the max over
//!   ranks — by construction identical (not just close) to the post-hoc
//!   `RunSummary::phase_seconds` for the same run.
//!
//! The collector also maintains windowed rollups: a ring of fixed-width
//! wall-clock windows, each accumulating per-phase seconds and per-tenant
//! completion counts, so `/v1/metrics` can show what the fleet did in the
//! last minute without replaying anything.

use crate::json::Value;
use crate::run::{RunSummary, StepMetrics};
use crate::sink::TelemetrySink;
use crate::tracectx::TraceContext;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One execution attempt of a job, as seen live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptView {
    /// Attempt index (0 = first).
    pub attempt: u64,
    /// Deterministic span context of this attempt (child of the root).
    pub span: TraceContext,
    /// Checkpoint step the attempt resumed from (`None` = cold start).
    pub resumed_from: Option<u64>,
}

/// Live state of one job.
#[derive(Debug, Clone, Default)]
struct JobLive {
    trace: Option<TraceContext>,
    tenant: String,
    attempts: Vec<AttemptView>,
    last_checkpoint_step: Option<u64>,
    /// Wall-clock seconds per phase, accumulated live.
    wall_phase: BTreeMap<String, f64>,
    /// Authoritative virtual seconds and span counts per (rank, phase).
    rank_phase: BTreeMap<(u32, String), (f64, u64)>,
    /// Steps recorded so far (from `record_step`, so it fills at end of
    /// attempt; live progress comes from checkpoints).
    steps_recorded: u64,
    /// Virtual seconds of the finished run.
    virt_seconds: Option<f64>,
    /// Sampled wall-clock profile (with optional skew join), delivered
    /// once when the job finishes with profiling enabled.
    profile: Option<Value>,
    finished: bool,
}

/// One wall-clock rollup window.
#[derive(Debug, Clone, Default)]
struct Window {
    index: u64,
    phase_wall: BTreeMap<String, f64>,
    tenant_finished: BTreeMap<String, u64>,
    tenant_attempts: BTreeMap<String, u64>,
}

/// Server-wide live telemetry state. Cheap to share (`Arc`), fed by
/// [`JobSink`] handles, read by the HTTP endpoints.
pub struct LiveCollector {
    epoch: Instant,
    window_secs: f64,
    keep_windows: usize,
    jobs: Mutex<HashMap<u64, JobLive>>,
    windows: Mutex<VecDeque<Window>>,
}

impl Default for LiveCollector {
    fn default() -> LiveCollector {
        LiveCollector::new()
    }
}

impl LiveCollector {
    /// 10-second windows, last 6 kept (one minute of rollups).
    pub fn new() -> LiveCollector {
        LiveCollector::with_windows(10.0, 6)
    }

    /// Custom rollup windowing.
    pub fn with_windows(window_secs: f64, keep_windows: usize) -> LiveCollector {
        LiveCollector {
            epoch: Instant::now(),
            window_secs: window_secs.max(0.001),
            keep_windows: keep_windows.max(1),
            jobs: Mutex::new(HashMap::new()),
            windows: Mutex::new(VecDeque::new()),
        }
    }

    /// Register a job the moment it is admitted, with its root span
    /// context and tenant label. Idempotent: re-registration after a
    /// journal-replay resubmit keeps the accumulated state.
    pub fn begin_job(&self, job: u64, trace: TraceContext, tenant: &str) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = jobs.entry(job).or_default();
        entry.trace = Some(trace);
        if entry.tenant.is_empty() {
            entry.tenant = tenant.to_string();
        }
    }

    /// A sink handle that attributes records to `job`.
    pub fn sink(self: &Arc<Self>, job: u64) -> Arc<JobSink> {
        Arc::new(JobSink {
            collector: Arc::clone(self),
            job,
        })
    }

    /// Root span context of a job, if registered.
    pub fn trace_of(&self, job: u64) -> Option<TraceContext> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&job)
            .and_then(|j| j.trace)
    }

    /// Drop a job's live state (after terminal records are served it can
    /// be reaped by the caller's retention policy; the collector itself
    /// never forgets on its own).
    pub fn forget(&self, job: u64) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&job);
    }

    /// Number of jobs currently tracked.
    pub fn tracked_jobs(&self) -> usize {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The sampled profile of a job (with its skew join), once recorded.
    /// Served at `GET /v1/jobs/{id}/profile`; `None` while the job is
    /// still running or if profiling was not enabled for it.
    pub fn job_profile(&self, job: u64) -> Option<Value> {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let j = jobs.get(&job)?;
        let mut pairs = vec![("job", Value::Num(job as f64))];
        if let Some(t) = &j.trace {
            pairs.push(("trace", Value::Str(t.trace_hex())));
        }
        match &j.profile {
            Some(p) => pairs.push(("data", p.clone())),
            None => return None,
        }
        Some(Value::obj(pairs))
    }

    /// Per-phase totals of a *finished* job in the virtual domain:
    /// max-over-ranks of the streamed per-rank sums — the same reduction
    /// `RunSummary::phase_seconds` applies, so the two agree exactly.
    pub fn final_phase_totals(&self, job: u64) -> Option<Vec<(String, f64)>> {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let j = jobs.get(&job)?;
        if j.rank_phase.is_empty() {
            return None;
        }
        let mut acc: BTreeMap<&str, f64> = BTreeMap::new();
        for ((_rank, phase), (secs, _spans)) in &j.rank_phase {
            let slot = acc.entry(phase.as_str()).or_insert(0.0);
            *slot = slot.max(*secs);
        }
        Some(acc.into_iter().map(|(p, s)| (p.to_string(), s)).collect())
    }

    /// The live view served at `GET /v1/jobs/{id}/trace`: trace identity,
    /// attempts so far, last committed checkpoint, and the phase
    /// breakdown — virtual totals once finished, live wall accumulations
    /// while running.
    pub fn job_view(&self, job: u64) -> Option<Value> {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let j = jobs.get(&job)?;
        let attempts = Value::Arr(
            j.attempts
                .iter()
                .map(|a| {
                    Value::obj(vec![
                        ("attempt", Value::Num(a.attempt as f64)),
                        ("span", Value::Str(a.span.span_hex())),
                        ("parent", Value::Str(format!("{:016x}", a.span.parent_span))),
                        (
                            "resumed_from",
                            match a.resumed_from {
                                Some(s) => Value::Num(s as f64),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        let (phases, domain): (Vec<(String, f64)>, &str) = if !j.rank_phase.is_empty() {
            let mut acc: BTreeMap<String, f64> = BTreeMap::new();
            for ((_rank, phase), (secs, _)) in &j.rank_phase {
                let slot = acc.entry(phase.clone()).or_insert(0.0);
                *slot = slot.max(*secs);
            }
            (acc.into_iter().collect(), "virtual")
        } else {
            (
                j.wall_phase.iter().map(|(p, s)| (p.clone(), *s)).collect(),
                "wall",
            )
        };
        let mut ranks: BTreeMap<u32, Vec<(String, f64, u64)>> = BTreeMap::new();
        for ((rank, phase), (secs, spans)) in &j.rank_phase {
            ranks
                .entry(*rank)
                .or_default()
                .push((phase.clone(), *secs, *spans));
        }
        let mut pairs = vec![
            ("job", Value::Num(job as f64)),
            (
                "trace",
                match &j.trace {
                    Some(t) => Value::Str(t.trace_hex()),
                    None => Value::Null,
                },
            ),
            (
                "root_span",
                match &j.trace {
                    Some(t) => Value::Str(t.span_hex()),
                    None => Value::Null,
                },
            ),
            ("tenant", Value::Str(j.tenant.clone())),
            (
                "current_attempt",
                Value::Num(j.attempts.last().map(|a| a.attempt as f64).unwrap_or(-1.0)),
            ),
            ("attempts", attempts),
            (
                "last_checkpoint_step",
                match j.last_checkpoint_step {
                    Some(s) => Value::Num(s as f64),
                    None => Value::Null,
                },
            ),
            ("steps_recorded", Value::Num(j.steps_recorded as f64)),
            ("finished", Value::Bool(j.finished)),
            ("phase_domain", Value::Str(domain.to_string())),
            (
                "phases",
                Value::Obj(
                    phases
                        .into_iter()
                        .map(|(p, s)| (p, Value::Num(s)))
                        .collect(),
                ),
            ),
            (
                "ranks",
                Value::Arr(
                    ranks
                        .into_iter()
                        .map(|(rank, phases)| {
                            Value::obj(vec![
                                ("rank", Value::Num(rank as f64)),
                                (
                                    "phases",
                                    Value::Obj(
                                        phases
                                            .into_iter()
                                            .map(|(p, s, n)| {
                                                (
                                                    p,
                                                    Value::obj(vec![
                                                        ("virt_seconds", Value::Num(s)),
                                                        ("spans", Value::Num(n as f64)),
                                                    ]),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(v) = j.virt_seconds {
            pairs.push(("virt_seconds", Value::Num(v)));
        }
        Some(Value::obj(pairs))
    }

    /// Windowed rollups: the retained windows, oldest first, each with
    /// per-phase wall seconds and per-tenant attempt/finish counts.
    pub fn rollup(&self) -> Value {
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        Value::obj(vec![
            ("window_seconds", Value::Num(self.window_secs)),
            (
                "windows",
                Value::Arr(
                    windows
                        .iter()
                        .map(|w| {
                            Value::obj(vec![
                                ("index", Value::Num(w.index as f64)),
                                (
                                    "phase_wall_seconds",
                                    Value::Obj(
                                        w.phase_wall
                                            .iter()
                                            .map(|(p, s)| (p.clone(), Value::Num(*s)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "tenant_attempts",
                                    Value::Obj(
                                        w.tenant_attempts
                                            .iter()
                                            .map(|(t, c)| (t.clone(), Value::Num(*c as f64)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "tenant_finished",
                                    Value::Obj(
                                        w.tenant_finished
                                            .iter()
                                            .map(|(t, c)| (t.clone(), Value::Num(*c as f64)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn window_mut<R>(&self, f: impl FnOnce(&mut Window) -> R) -> R {
        let index = (self.epoch.elapsed().as_secs_f64() / self.window_secs) as u64;
        let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let fresh = match windows.back() {
            Some(w) => w.index != index,
            None => true,
        };
        if fresh {
            windows.push_back(Window {
                index,
                ..Window::default()
            });
            while windows.len() > self.keep_windows {
                windows.pop_front();
            }
        }
        f(windows.back_mut().expect("window just ensured"))
    }

    fn with_job<R>(&self, job: u64, f: impl FnOnce(&mut JobLive) -> R) -> R {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        f(jobs.entry(job).or_default())
    }
}

/// Per-job sink handle: forwards every record into the shared collector,
/// stamped with the job id.
pub struct JobSink {
    collector: Arc<LiveCollector>,
    job: u64,
}

impl TelemetrySink for JobSink {
    fn record_step(&self, step: &StepMetrics) {
        self.collector.with_job(self.job, |j| {
            j.steps_recorded = j.steps_recorded.max(step.step as u64 + 1);
        });
    }

    fn record_run(&self, run: &RunSummary) {
        let tenant = self.collector.with_job(self.job, |j| {
            j.finished = true;
            j.virt_seconds = Some(run.virt_seconds);
            j.tenant.clone()
        });
        self.collector.window_mut(|w| {
            *w.tenant_finished.entry(tenant).or_insert(0) += 1;
        });
    }

    fn record_attempt(&self, attempt: u64, resumed_from: Option<u64>) {
        let tenant = self.collector.with_job(self.job, |j| {
            // Attempt span ids derive from the root context; a job with no
            // registered trace (direct ensemble use) gets no span linkage
            // but still counts attempts.
            let span = j
                .trace
                .map(|root| root.child(attempt))
                .unwrap_or(TraceContext {
                    trace_id: 0,
                    span_id: attempt.max(1),
                    parent_span: 0,
                });
            if !j.attempts.iter().any(|a| a.attempt == attempt) {
                j.attempts.push(AttemptView {
                    attempt,
                    span,
                    resumed_from,
                });
            }
            j.tenant.clone()
        });
        self.collector.window_mut(|w| {
            *w.tenant_attempts.entry(tenant).or_insert(0) += 1;
        });
    }

    fn record_checkpoint(&self, step: u64) {
        self.collector.with_job(self.job, |j| {
            j.last_checkpoint_step = Some(j.last_checkpoint_step.map_or(step, |s| s.max(step)));
        });
    }

    fn record_live_phase(&self, _rank: u32, phase: &str, wall_seconds: f64) {
        self.collector.with_job(self.job, |j| {
            *j.wall_phase.entry(phase.to_string()).or_insert(0.0) += wall_seconds;
        });
        self.collector.window_mut(|w| {
            *w.phase_wall.entry(phase.to_string()).or_insert(0.0) += wall_seconds;
        });
    }

    fn record_rank_phase(&self, rank: u32, phase: &str, virt_seconds: f64, spans: u64) {
        self.collector.with_job(self.job, |j| {
            j.rank_phase
                .insert((rank, phase.to_string()), (virt_seconds, spans));
        });
    }

    fn record_profile(
        &self,
        profile: &crate::profile::ProfileReport,
        skew: Option<&crate::profile::SkewReport>,
    ) {
        let value = Value::obj(vec![
            ("profile", profile.to_json()),
            (
                "skew",
                match skew {
                    Some(s) => s.to_json(),
                    None => Value::Null,
                },
            ),
        ]);
        self.collector.with_job(self.job, |j| {
            j.profile = Some(value);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> Arc<LiveCollector> {
        Arc::new(LiveCollector::new())
    }

    #[test]
    fn attempts_and_checkpoints_fold_into_the_view() {
        let c = collector();
        let root = TraceContext::new_root();
        c.begin_job(7, root, "alice");
        let sink = c.sink(7);
        sink.record_attempt(0, None);
        sink.record_checkpoint(4);
        sink.record_attempt(1, Some(4));
        sink.record_checkpoint(8);
        let view = c.job_view(7).unwrap();
        assert_eq!(
            view.get("trace").unwrap().as_str(),
            Some(&root.trace_hex()[..])
        );
        assert_eq!(view.get("current_attempt").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            view.get("last_checkpoint_step").unwrap().as_f64(),
            Some(8.0)
        );
        let attempts = view.get("attempts").unwrap().as_arr().unwrap();
        assert_eq!(attempts.len(), 2);
        // Attempt spans parent to the root span, deterministically.
        assert_eq!(
            attempts[1].get("span").unwrap().as_str(),
            Some(&root.child(1).span_hex()[..])
        );
        assert_eq!(
            attempts[1].get("parent").unwrap().as_str(),
            Some(&root.span_hex()[..])
        );
        assert_eq!(attempts[1].get("resumed_from").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn recorded_profile_is_served_with_trace_linkage() {
        let c = collector();
        let root = TraceContext::new_root();
        c.begin_job(3, root, "bob");
        let sink = c.sink(3);
        assert!(c.job_profile(3).is_none(), "no profile before recording");
        let report = crate::profile::ProfileReport {
            hz: 997.0,
            total_samples: 4,
            stacks: vec![crate::profile::FoldedStack {
                frames: vec!["step".into()],
                samples: 4,
            }],
            ..Default::default()
        };
        sink.record_profile(&report, None);
        let view = c.job_profile(3).unwrap();
        assert_eq!(
            view.get("trace").unwrap().as_str(),
            Some(&root.trace_hex()[..])
        );
        let data = view.get("data").unwrap();
        assert_eq!(
            data.get("profile")
                .and_then(|p| p.get("total_samples"))
                .and_then(Value::as_f64),
            Some(4.0)
        );
        assert!(matches!(data.get("skew"), Some(Value::Null)));
    }

    #[test]
    fn duplicate_attempt_events_are_idempotent() {
        let c = collector();
        c.begin_job(1, TraceContext::new_root(), "t");
        let sink = c.sink(1);
        sink.record_attempt(0, None);
        sink.record_attempt(0, None);
        let view = c.job_view(1).unwrap();
        assert_eq!(view.get("attempts").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn view_switches_from_wall_to_virtual_domain() {
        let c = collector();
        c.begin_job(2, TraceContext::new_root(), "t");
        let sink = c.sink(2);
        sink.record_live_phase(0, "fd", 0.25);
        sink.record_live_phase(1, "fd", 0.50);
        let view = c.job_view(2).unwrap();
        assert_eq!(view.get("phase_domain").unwrap().as_str(), Some("wall"));
        assert_eq!(
            view.get("phases").unwrap().get("fd").unwrap().as_f64(),
            Some(0.75)
        );
        // Authoritative totals arrive: the view flips to virtual and takes
        // max over ranks.
        sink.record_rank_phase(0, "fd", 1.5, 3);
        sink.record_rank_phase(1, "fd", 2.0, 3);
        let view = c.job_view(2).unwrap();
        assert_eq!(view.get("phase_domain").unwrap().as_str(), Some("virtual"));
        assert_eq!(
            view.get("phases").unwrap().get("fd").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            c.final_phase_totals(2).unwrap(),
            vec![("fd".to_string(), 2.0)]
        );
    }

    #[test]
    fn final_totals_match_run_summary_reduction_exactly() {
        // Feed the exact per-rank sums a RunSummary would be built from;
        // the collector's max-over-ranks must reproduce phase_seconds
        // bit-for-bit.
        let per_rank: Vec<Vec<(&str, f64)>> = vec![
            vec![("fd", 0.1 + 0.2), ("filter", 1.0 / 3.0)],
            vec![("fd", 0.3), ("filter", 0.2 + 0.1 + 0.033)],
        ];
        let c = collector();
        c.begin_job(3, TraceContext::new_root(), "t");
        let sink = c.sink(3);
        for (rank, phases) in per_rank.iter().enumerate() {
            for (phase, secs) in phases {
                sink.record_rank_phase(rank as u32, phase, *secs, 1);
            }
        }
        let totals = c.final_phase_totals(3).unwrap();
        for (phase, secs) in totals {
            let expect = per_rank
                .iter()
                .map(|r| {
                    r.iter()
                        .find(|(p, _)| *p == phase)
                        .map(|(_, s)| *s)
                        .unwrap_or(0.0)
                })
                .fold(0.0, f64::max);
            assert_eq!(secs, expect, "{phase}");
        }
    }

    #[test]
    fn rollup_windows_accumulate_and_rotate() {
        let c = Arc::new(LiveCollector::with_windows(0.001, 2));
        c.begin_job(4, TraceContext::new_root(), "alice");
        let sink = c.sink(4);
        sink.record_live_phase(0, "physics", 1.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        sink.record_live_phase(0, "physics", 2.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        sink.record_live_phase(0, "physics", 4.0);
        let rollup = c.rollup();
        let windows = rollup.get("windows").unwrap().as_arr().unwrap();
        assert!(windows.len() <= 2, "ring keeps at most 2 windows");
        let total: f64 = windows
            .iter()
            .filter_map(|w| {
                w.get("phase_wall_seconds")
                    .and_then(|p| p.get("physics"))
                    .and_then(|v| v.as_f64())
            })
            .sum();
        // Oldest window (1.0) rotated out.
        assert!((4.0..=6.0).contains(&total), "total {total}");
    }

    #[test]
    fn forget_drops_job_state() {
        let c = collector();
        c.begin_job(9, TraceContext::new_root(), "t");
        assert_eq!(c.tracked_jobs(), 1);
        c.forget(9);
        assert_eq!(c.tracked_jobs(), 0);
        assert!(c.job_view(9).is_none());
    }
}
