//! Launching a world of ranks.
//!
//! [`run`] spawns one OS thread per rank, hands each a world [`Comm`], and
//! returns the per-rank results in rank order. [`run_traced`] additionally
//! enables event tracing and returns the [`WorldTrace`] for cost-model
//! replay. The paper's largest configuration is an 8×30 = 240-node mesh;
//! 240 threads are comfortably within what this runtime handles.
//!
//! [`run_with_faults`] is the fault-aware variant: a [`FaultPlan`] is
//! threaded into every communicator, rank deaths (planned kills, or
//! communication aborts caused by a dead peer) are caught and returned as
//! typed per-rank failures instead of propagating panics, and each rank's
//! injected-fault log is returned for determinism checks.

use crate::cancel::{CancelToken, CancelUnwind};
use crate::comm::{Comm, RankShared, World};
use crate::error::Error;
use crate::fault::{CommAbort, FaultEvent, FaultKill, FaultPlan, FaultState};
use crate::message::WirePacket;
use crate::span::SpanObserver;
use crate::trace::{RankTrace, WorldTrace};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Once};

/// Controlled unwinds (planned kills, comm aborts on a dead peer,
/// cooperative cancellation) are expected control flow in a faulty run;
/// keep the default panic hook from printing a "thread panicked" message
/// and backtrace for them. Installed once, forwards every genuine panic to
/// the previous hook. Public so the regression test in
/// `tests/panic_hook.rs` can install it under a recording hook and prove
/// the forwarding behaviour.
pub fn silence_controlled_unwinds() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<CommAbort>().is_none()
                && payload.downcast_ref::<FaultKill>().is_none()
                && payload.downcast_ref::<CancelUnwind>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Why a rank failed in a fault-aware run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The fault plan killed the rank at the start of this step.
    Killed {
        /// The step at which the plan fired.
        step: u64,
    },
    /// A communication call failed (typically a receive whose peer died).
    Disconnected {
        /// The underlying communication error.
        error: Error,
    },
    /// The world's [`CancelToken`] was cancelled and the rank unwound at a
    /// cancellation point (step boundary or blocked receive).
    Cancelled,
}

/// Outcome of a fault-aware run.
pub struct FaultyRun<R> {
    /// Per-rank results in rank order; `Err` for ranks that died.
    pub results: Vec<Result<R, FailureKind>>,
    /// Event trace (tracing is enabled for fault-aware runs).
    pub trace: WorldTrace,
    /// Per-rank log of injected faults — the run's deterministic fault
    /// trace: same plan, same program ⇒ same log.
    pub fault_events: Vec<Vec<FaultEvent>>,
}

impl<R> FaultyRun<R> {
    /// True if every rank completed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Ranks that failed, with their failure kinds.
    pub fn failures(&self) -> Vec<(usize, FailureKind)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(r, res)| res.as_ref().err().map(|f| (r, f.clone())))
            .collect()
    }

    /// Unwrap per-rank results, panicking if any rank failed.
    pub fn into_results(self) -> Vec<R> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(r, res)| match res {
                Ok(v) => v,
                Err(f) => panic!("rank {r} failed: {f:?}"),
            })
            .collect()
    }
}

fn launch<F, R>(
    n: usize,
    tracing: bool,
    plan: Option<Arc<FaultPlan>>,
    cancel: Option<CancelToken>,
    spans: Option<Arc<dyn SpanObserver>>,
    f: F,
) -> FaultyRun<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    assert!(n > 0, "world size must be at least 1");
    let faulty = plan.is_some();
    debug_assert!(
        cancel.is_none() || faulty,
        "cancellable worlds run in faulty mode so the unwind is caught"
    );
    if faulty {
        silence_controlled_unwinds();
    }
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<WirePacket>();
        senders.push(tx);
        receivers.push(rx);
    }
    let world = Arc::new(World {
        senders,
        alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
        faulty,
    });
    // One epoch for the whole world, so wall-clock stamps are comparable
    // across ranks.
    let epoch = std::time::Instant::now();
    let traces: Vec<Arc<RankTrace>> = (0..n)
        .map(|_| RankTrace::with_epoch(tracing, epoch))
        .collect();
    let faults: Vec<Option<Arc<FaultState>>> = (0..n)
        .map(|_| plan.as_ref().map(|p| FaultState::new(Arc::clone(p))))
        .collect();

    let mut results: Vec<Option<Result<R, FailureKind>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let world = Arc::clone(&world);
            let trace = Arc::clone(&traces[rank]);
            let fault = faults[rank].clone();
            let cancel = cancel.clone();
            let spans = spans.clone();
            let f = &f;
            // Named threads register each rank with the OS (visible in
            // debuggers and sampling profilers); the observer hooks
            // register it with any live SpanObserver.
            let builder = std::thread::Builder::new().name(format!("agcm-rank-{rank}"));
            let handle = builder.spawn_scoped(scope, move || {
                if let Some(s) = &spans {
                    s.rank_started(rank);
                }
                let shared = RankShared::new(
                    Arc::clone(&world),
                    rank,
                    rx,
                    trace,
                    fault.clone(),
                    cancel,
                    spans.clone(),
                );
                let comm = Comm::world(shared);
                let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                // A rank that finishes normally first flushes any packets
                // the injector held back (a delayed message is late, not
                // lost); a rank that dies takes its held packets with it.
                if result.is_ok() {
                    if let Some(fs) = &fault {
                        for (dst, pkt) in fs.drain_held() {
                            let _ = world.senders[dst].send(pkt);
                        }
                    }
                }
                // The liveness flag drops only after the flush above, so a
                // peer that observes the flag down will find every message
                // this rank ever sent already in its channel.
                world.alive[rank].store(false, Ordering::SeqCst);
                if let Some(s) = &spans {
                    s.rank_finished(rank);
                }
                result
            });
            handles.push(handle.expect("spawn rank thread"));
        }
        for (slot, handle) in results.iter_mut().zip(handles) {
            let joined = handle.join().expect("rank thread itself never panics");
            *slot = Some(match joined {
                Ok(value) => Ok(value),
                Err(payload) => {
                    if !faulty {
                        resume_unwind(payload);
                    }
                    if let Some(kill) = payload.downcast_ref::<FaultKill>() {
                        Err(FailureKind::Killed { step: kill.step })
                    } else if let Some(abort) = payload.downcast_ref::<CommAbort>() {
                        Err(FailureKind::Disconnected {
                            error: abort.0.clone(),
                        })
                    } else if payload.downcast_ref::<CancelUnwind>().is_some() {
                        Err(FailureKind::Cancelled)
                    } else {
                        // A genuine panic (assertion failure, model bug):
                        // not a fault-injection outcome, so propagate.
                        resume_unwind(payload);
                    }
                }
            });
        }
    });

    FaultyRun {
        results: results
            .into_iter()
            .map(|r| r.expect("joined rank produced a result"))
            .collect(),
        trace: WorldTrace {
            ranks: traces.iter().map(|t| t.take()).collect(),
            walls: traces.iter().map(|t| t.take_walls()).collect(),
            collectives: traces.iter().map(|t| t.take_collectives()).collect(),
        },
        fault_events: faults
            .iter()
            .map(|f| f.as_ref().map(|fs| fs.take_events()).unwrap_or_default())
            .collect(),
    }
}

/// Run `f` on `n` ranks and return the per-rank results in rank order.
/// Panics in any rank propagate to the caller.
pub fn run<F, R>(n: usize, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    launch(n, false, None, None, None, f)
        .results
        .into_iter()
        .map(|r| r.expect("non-faulty run has no typed failures"))
        .collect()
}

/// Like [`run`], but with event tracing enabled; also returns the
/// [`WorldTrace`] for replay by `agcm-costmodel`.
pub fn run_traced<F, R>(n: usize, f: F) -> (Vec<R>, WorldTrace)
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    let out = launch(n, true, None, None, None, f);
    (
        out.results
            .into_iter()
            .map(|r| r.expect("non-faulty run has no typed failures"))
            .collect(),
        out.trace,
    )
}

/// Run `f` on `n` ranks under a fault plan. Planned kills and
/// communication aborts become typed per-rank failures; genuine panics
/// still propagate. `plan = None` degrades to a plain traced run that
/// still reports per-rank results as `Ok`.
pub fn run_with_faults<F, R>(n: usize, plan: Option<FaultPlan>, f: F) -> FaultyRun<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    run_world(
        n,
        WorldOptions {
            plan,
            ..WorldOptions::default()
        },
        f,
    )
}

/// Options for [`run_world`].
#[derive(Clone, Default)]
pub struct WorldOptions {
    /// Fault plan; `None` degrades to an empty plan (typed failures, no
    /// injected faults).
    pub plan: Option<FaultPlan>,
    /// Cooperative cancellation token shared by every rank of the world.
    pub cancel: Option<CancelToken>,
    /// Live span observer notified at every phase boundary on every rank.
    pub spans: Option<Arc<dyn SpanObserver>>,
}

impl std::fmt::Debug for WorldOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldOptions")
            .field("plan", &self.plan)
            .field("cancel", &self.cancel)
            .field("spans", &self.spans.as_ref().map(|_| "SpanObserver"))
            .finish()
    }
}

/// The most general launcher: tracing on, typed per-rank failures, with an
/// optional fault plan and an optional [`CancelToken`]. Cancelling the
/// token unwinds every rank at its next cancellation point (step boundary
/// or blocked receive) as [`FailureKind::Cancelled`]; ranks that instead
/// observe a cancelled peer's death surface as `Disconnected`. Either way
/// the whole world drains and `run_world` returns.
pub fn run_world<F, R>(n: usize, opts: WorldOptions, f: F) -> FaultyRun<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    // Even with no plan, run in faulty mode (typed failures, empty plan)
    // so recovery drivers and schedulers get a uniform interface.
    let plan = opts.plan.unwrap_or_default();
    launch(n, true, Some(Arc::new(plan)), opts.cancel, opts.spans, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::Op;
    use crate::fault::FaultAction;
    use crate::message::Payload;
    use crate::trace::Event;
    use std::time::Duration;

    #[test]
    fn results_in_rank_order() {
        let out = run(8, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |c| {
            assert_eq!(c.size(), 1);
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn large_world_240_ranks() {
        // The paper's biggest mesh: 8 x 30 = 240 nodes.
        let out = run(240, |c| c.allreduce_i64(Op::Sum, &[1])[0]);
        assert!(out.into_iter().all(|v| v == 240));
    }

    #[test]
    fn traced_run_captures_messages() {
        let (_, trace) = run_traced(2, |c| {
            let other = 1 - c.rank();
            c.record_flops(50.0);
            c.send(other, 0, Payload::F64(vec![0.0; 16]));
            c.recv(other, 0);
        });
        assert_eq!(trace.size(), 2);
        let stats = trace.stats();
        for s in &stats {
            assert_eq!(s.sends, 1);
            assert_eq!(s.bytes_sent, 128);
            assert_eq!(s.recvs, 1);
            assert_eq!(s.flops, 50.0);
        }
        // Sequence numbers must let the replayer match sends to receives.
        for evs in &trace.ranks {
            let send_seq = evs.iter().find_map(|e| match e {
                Event::Send { seq, .. } => Some(*seq),
                _ => None,
            });
            assert_eq!(send_seq, Some(0));
        }
    }

    #[test]
    fn traced_phases_recorded_in_order() {
        let (_, trace) = run_traced(1, |c| {
            c.phase("dynamics", || c.record_flops(10.0));
            c.phase("physics", || c.record_flops(20.0));
        });
        let evs = &trace.ranks[0];
        assert_eq!(
            evs.as_slice(),
            &[
                Event::PhaseBegin("dynamics"),
                Event::Flops(10.0),
                Event::PhaseEnd("dynamics"),
                Event::PhaseBegin("physics"),
                Event::Flops(20.0),
                Event::PhaseEnd("physics"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "world size must be at least 1")]
    fn zero_ranks_rejected() {
        run(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 3 exploded")]
    fn rank_panic_propagates() {
        run(6, |c| {
            if c.rank() == 3 {
                panic!("rank 3 exploded");
            }
        });
    }

    #[test]
    fn kill_surfaces_as_typed_failure() {
        let plan = FaultPlan::seeded(1).with_kill(2, 5);
        let out = run_with_faults(4, Some(plan), |c| {
            for step in 0..10u64 {
                c.begin_step(step);
            }
            c.rank()
        });
        assert_eq!(out.results[2], Err(FailureKind::Killed { step: 5 }));
        for r in [0, 1, 3] {
            assert_eq!(out.results[r], Ok(r));
        }
        assert_eq!(out.fault_events[2], vec![FaultEvent::Kill { step: 5 }]);
    }

    #[test]
    fn peer_death_aborts_blocked_receivers() {
        // Rank 1 dies before sending; rank 0's blocking recv must abort
        // with a typed Disconnected failure rather than hang or panic.
        let plan = FaultPlan::seeded(0).with_kill(1, 0);
        let out = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 1 {
                c.begin_step(0);
            }
            if c.rank() == 0 {
                c.recv(1, 7);
            }
        });
        assert_eq!(out.results[1], Err(FailureKind::Killed { step: 0 }));
        match &out.results[0] {
            Err(FailureKind::Disconnected { error }) => {
                assert_eq!(*error, Error::PeerDisconnected { world_rank: 1 });
            }
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn message_sent_before_death_is_still_received() {
        // The victim sends first, then dies: the receiver must get the
        // message even though the sender is gone by the time it looks.
        let plan = FaultPlan::seeded(0).with_kill(1, 0);
        let out = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 1 {
                c.send(0, 7, Payload::I64(vec![41]));
                c.begin_step(0);
                0
            } else {
                c.recv_i64(1, 7)[0] + 1
            }
        });
        assert_eq!(out.results[0], Ok(42));
    }

    #[test]
    fn collectives_abort_on_dead_rank() {
        // A rank dies before a barrier; every survivor's barrier must
        // surface a typed failure (possibly cascading), never a hang.
        let plan = FaultPlan::seeded(0).with_kill(3, 0);
        let out = run_with_faults(4, Some(plan), |c| {
            if c.rank() == 3 {
                c.begin_step(0);
            }
            c.barrier();
        });
        assert_eq!(out.results[3], Err(FailureKind::Killed { step: 0 }));
        for r in [0, 1, 2] {
            assert!(
                matches!(out.results[r], Err(FailureKind::Disconnected { .. })),
                "rank {r}: {:?}",
                out.results[r]
            );
        }
    }

    #[test]
    fn fault_trace_is_deterministic() {
        let plan = FaultPlan::seeded(99)
            .with_drop_ppm(150_000)
            .with_duplicate_ppm(100_000)
            .with_delay_ppm(100_000);
        let workload = |c: &Comm| {
            // All-to-all chatter with per-pair tags; receipt is not
            // asserted (drops are expected) — only the injector log is.
            for peer in 0..c.size() {
                if peer != c.rank() {
                    for i in 0..20 {
                        c.send(peer, i, Payload::I64(vec![i as i64]));
                    }
                }
            }
        };
        let a = run_with_faults(4, Some(plan.clone()), workload);
        let b = run_with_faults(4, Some(plan), workload);
        assert!(a.all_ok() && b.all_ok());
        assert_eq!(a.fault_events, b.fault_events);
        assert!(
            a.fault_events.iter().any(|evs| !evs.is_empty()),
            "plan with 35% fault rate must inject something"
        );
    }

    #[test]
    fn duplicate_and_delay_preserve_eventual_delivery() {
        // Every non-dropped message is eventually receivable: duplicates
        // arrive twice, delayed messages arrive late (flushed at exit).
        let plan = FaultPlan::seeded(5)
            .with_targeted(0, 1, 0, FaultAction::Delay)
            .with_targeted(0, 1, 1, FaultAction::Duplicate);
        let out = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 0 {
                c.send(1, 10, Payload::I64(vec![1])); // delayed
                c.send(1, 20, Payload::I64(vec![2])); // duplicated
                vec![]
            } else {
                // The duplicated message overtakes the delayed one.
                let first = c.recv(crate::comm::ANY_SRC, crate::comm::ANY_TAG);
                assert_eq!(first.tag, 20);
                let mut tags = vec![first.tag];
                for _ in 0..2 {
                    tags.push(c.recv(crate::comm::ANY_SRC, crate::comm::ANY_TAG).tag);
                }
                tags
            }
        });
        let tags = out.results[1].as_ref().unwrap();
        assert_eq!(tags, &vec![20, 20, 10]);
    }

    #[test]
    fn recv_timeout_expires() {
        // The peer stays alive (blocked on its own receive) past the
        // deadline, so the timed receive expires rather than observing a
        // dead peer.
        let out = run_with_faults(2, None, |c| {
            if c.rank() == 0 {
                let r = c.recv_timeout(1, 9, Duration::from_millis(20));
                c.send(1, 1, Payload::Empty);
                r.err()
            } else {
                c.recv(0, 1);
                None
            }
        });
        assert_eq!(out.results[0], Ok(Some(Error::Timeout)));
    }

    #[test]
    fn recv_timeout_on_dead_peer_reports_disconnect() {
        let plan = FaultPlan::seeded(0).with_kill(1, 0);
        let out = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 1 {
                c.begin_step(0);
            }
            if c.rank() == 0 {
                c.recv_timeout(1, 9, Duration::from_secs(30)).err()
            } else {
                None
            }
        });
        assert_eq!(
            out.results[0],
            Ok(Some(Error::PeerDisconnected { world_rank: 1 }))
        );
    }

    #[test]
    fn pre_cancelled_world_unwinds_at_first_step() {
        let token = CancelToken::new();
        token.cancel();
        let opts = WorldOptions {
            plan: None,
            cancel: Some(token),
            spans: None,
        };
        let out = run_world(4, opts, |c| {
            for step in 0..100u64 {
                c.begin_step(step);
            }
            c.rank()
        });
        for r in 0..4 {
            assert_eq!(out.results[r], Err(FailureKind::Cancelled));
        }
    }

    #[test]
    fn cancel_wakes_blocked_receiver() {
        // Rank 0 blocks forever on a receive nobody will satisfy; the
        // controller cancels after rank 1 signals readiness. The blocked
        // receive must unwind as Cancelled, not hang.
        let token = CancelToken::new();
        let controller = token.clone();
        let opts = WorldOptions {
            plan: None,
            cancel: Some(token),
            spans: None,
        };
        let out = run_world(2, opts, |c| {
            if c.rank() == 0 {
                c.recv(1, 99);
            } else {
                // Give rank 0 time to block, then pull the plug.
                std::thread::sleep(Duration::from_millis(5));
                controller.cancel();
                // This rank also unwinds at its next cancellation point.
                c.begin_step(0);
            }
        });
        assert_eq!(out.results[0], Err(FailureKind::Cancelled));
        assert_eq!(out.results[1], Err(FailureKind::Cancelled));
    }

    #[test]
    fn cancellation_does_not_leak_into_next_world() {
        // A cancelled world must not poison a later world: tokens are
        // per-launch, not process-global.
        let token = CancelToken::new();
        token.cancel();
        let opts = WorldOptions {
            plan: None,
            cancel: Some(token),
            spans: None,
        };
        let cancelled = run_world(2, opts, |c| {
            c.begin_step(0);
        });
        assert!(!cancelled.all_ok());
        let clean = run_world(2, WorldOptions::default(), |c| {
            c.begin_step(0);
            c.rank()
        });
        assert_eq!(clean.results, vec![Ok(0), Ok(1)]);
    }

    #[test]
    fn try_recv_paths() {
        let out = run_with_faults(2, None, |c| {
            if c.rank() == 0 {
                // Nothing sent yet: empty, not an error.
                assert!(matches!(c.try_recv(1, 5), Ok(None)));
                c.send(1, 3, Payload::Empty);
                // Wait for the reply to be in flight, then poll it out.
                loop {
                    match c.try_recv(1, 5) {
                        Ok(Some(pkt)) => return pkt.payload.into_i64()[0],
                        Ok(None) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
            } else {
                c.recv(0, 3);
                c.send(0, 5, Payload::I64(vec![17]));
                0
            }
        });
        assert_eq!(out.results[0], Ok(17));
    }
}
