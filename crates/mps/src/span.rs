//! Live span observation: a hook called as ranks enter and leave phases.
//!
//! The [`trace::RankTrace`](crate::trace::RankTrace) records phase events
//! for *post-hoc* replay; a [`SpanObserver`] sees the same phase
//! boundaries *while the world runs*, so a serving layer can show the
//! phase breakdown of a job that has not finished yet. The observer is
//! optional ([`WorldOptions::spans`](crate::runtime::WorldOptions)); when
//! absent, phase entry/exit costs one `Option` check and nothing else.
//!
//! Observers are called from every rank thread concurrently and must be
//! cheap: a slow observer stalls the rank that called it. Implementations
//! pair `phase_begin`/`phase_end` themselves (calls on one rank are
//! properly nested, in program order).

use std::sync::Arc;

/// Receives phase-boundary notifications from running ranks.
pub trait SpanObserver: Send + Sync {
    /// Rank `rank` entered phase `name`.
    fn phase_begin(&self, rank: usize, name: &'static str);

    /// Rank `rank` left phase `name` (the innermost open phase).
    fn phase_end(&self, rank: usize, name: &'static str);

    /// Rank `rank`'s thread started; called before the rank body runs.
    /// A sampling profiler uses this to mark the rank's slot live.
    fn rank_started(&self, _rank: usize) {}

    /// Rank `rank`'s thread finished (successfully or not); no further
    /// callbacks for this rank will arrive after it.
    fn rank_finished(&self, _rank: usize) {}
}

/// Fans every callback out to several observers, in order. Lets a single
/// [`WorldOptions::spans`](crate::runtime::WorldOptions) slot feed both a
/// live telemetry bridge and a sampling profiler.
pub struct FanoutObserver {
    observers: Vec<Arc<dyn SpanObserver>>,
}

impl FanoutObserver {
    /// A fan-out over `observers`; callbacks are forwarded in this order.
    pub fn new(observers: Vec<Arc<dyn SpanObserver>>) -> FanoutObserver {
        FanoutObserver { observers }
    }
}

impl SpanObserver for FanoutObserver {
    fn phase_begin(&self, rank: usize, name: &'static str) {
        for o in &self.observers {
            o.phase_begin(rank, name);
        }
    }

    fn phase_end(&self, rank: usize, name: &'static str) {
        for o in &self.observers {
            o.phase_end(rank, name);
        }
    }

    fn rank_started(&self, rank: usize) {
        for o in &self.observers {
            o.rank_started(rank);
        }
    }

    fn rank_finished(&self, rank: usize) {
        for o in &self.observers {
            o.rank_finished(rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_world, WorldOptions};
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<(usize, &'static str, bool)>>,
    }

    impl SpanObserver for Recorder {
        fn phase_begin(&self, rank: usize, name: &'static str) {
            self.events.lock().unwrap().push((rank, name, true));
        }
        fn phase_end(&self, rank: usize, name: &'static str) {
            self.events.lock().unwrap().push((rank, name, false));
        }
    }

    #[test]
    fn observer_sees_balanced_phases_per_rank() {
        let rec = Arc::new(Recorder::default());
        let opts = WorldOptions {
            spans: Some(rec.clone()),
            ..WorldOptions::default()
        };
        let out = run_world(3, opts, |c| {
            c.phase("step", || {
                c.phase("fd", || c.record_flops(1.0));
            });
        });
        assert!(out.all_ok());
        let events = rec.events.lock().unwrap();
        for rank in 0..3 {
            let mine: Vec<_> = events.iter().filter(|(r, _, _)| *r == rank).collect();
            assert_eq!(
                mine.iter()
                    .map(|(_, n, begin)| (*n, *begin))
                    .collect::<Vec<_>>(),
                vec![("step", true), ("fd", true), ("fd", false), ("step", false)],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn no_observer_is_the_default_and_harmless() {
        let out = run_world(2, WorldOptions::default(), |c| c.phase("step", || c.rank()));
        assert!(out.all_ok());
    }

    #[derive(Default)]
    struct Lifecycle {
        events: Mutex<Vec<(usize, &'static str)>>,
    }

    impl SpanObserver for Lifecycle {
        fn phase_begin(&self, rank: usize, _name: &'static str) {
            self.events.lock().unwrap().push((rank, "begin"));
        }
        fn phase_end(&self, rank: usize, _name: &'static str) {
            self.events.lock().unwrap().push((rank, "end"));
        }
        fn rank_started(&self, rank: usize) {
            self.events.lock().unwrap().push((rank, "started"));
        }
        fn rank_finished(&self, rank: usize) {
            self.events.lock().unwrap().push((rank, "finished"));
        }
    }

    #[test]
    fn rank_lifecycle_brackets_every_phase_event() {
        let rec = Arc::new(Lifecycle::default());
        let opts = WorldOptions {
            spans: Some(rec.clone()),
            ..WorldOptions::default()
        };
        let out = run_world(2, opts, |c| c.phase("step", || ()));
        assert!(out.all_ok());
        let events = rec.events.lock().unwrap();
        for rank in 0..2 {
            let mine: Vec<&'static str> = events
                .iter()
                .filter(|(r, _)| *r == rank)
                .map(|(_, e)| *e)
                .collect();
            assert_eq!(
                mine,
                vec!["started", "begin", "end", "finished"],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn fanout_forwards_to_every_observer_in_order() {
        let a = Arc::new(Lifecycle::default());
        let b = Arc::new(Lifecycle::default());
        let fan = FanoutObserver::new(vec![
            a.clone() as Arc<dyn SpanObserver>,
            b.clone() as Arc<dyn SpanObserver>,
        ]);
        fan.rank_started(0);
        fan.phase_begin(0, "x");
        fan.phase_end(0, "x");
        fan.rank_finished(0);
        let expect = vec![(0, "started"), (0, "begin"), (0, "end"), (0, "finished")];
        assert_eq!(*a.events.lock().unwrap(), expect);
        assert_eq!(*b.events.lock().unwrap(), expect);
    }
}
