//! Idle-class spinners that keep virtual CPUs from halting.
//!
//! On a shared host, a virtual CPU with nothing to run halts, and waking
//! it again costs the host's scheduling delay: every hand-off between
//! threads that finds the other CPU halted pays it. A busy thread in the
//! `SCHED_IDLE` class keeps its CPU from halting without taking time from
//! the program, whose threads preempt it whenever they wake. Measured on
//! a 2-core virtual machine while the host was busy, 4 alternating pairs
//! of 15 s `model_paper` runs gave 1x2 step medians of 13.7–16.1 ms with
//! spinners against 35–42 ms without, and 1x1 ack p50 of 51–54 against
//! 67–84 ms.
//!
//! A wake-up that crosses to the other virtual CPU can itself wait for
//! the host, so the serving section also runs on one CPU ([`pin_to`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Confine the calling thread, and the threads it starts from then
/// on, to CPU `cpu` (below 1024).
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("CPU {cpu} is beyond cpu_set_t")))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly
    // `size_of_val(&mask)` bytes that the call only reads, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> std::io::Result<()> {
    Err(std::io::Error::other(
        "CPU pinning is implemented for Linux only",
    ))
}

/// Move the calling thread into the `SCHED_IDLE` class, which runs only
/// when nothing else on its CPU wants to.
#[cfg(target_os = "linux")]
fn make_idle_class() -> std::io::Result<()> {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // `struct sched_param` is one int, the priority, 0 for this class.
    let param = 0i32;
    // SAFETY: `param` is a live `sched_param` that the call only reads,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn make_idle_class() -> std::io::Result<()> {
    Err(std::io::Error::other(
        "SCHED_IDLE is implemented for Linux only",
    ))
}

/// One busy `SCHED_IDLE` thread per listed CPU, stopped and joined on
/// drop.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Start a spinner on each of `cpus`.
    pub fn on(cpus: &[usize]) -> IdleSpinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A spinner in the normal class would take time
                    // from the program, and unpinned spinners could
                    // share a CPU: without both, do not spin.
                    if let Err(e) = pin_to(cpu).and_then(|()| make_idle_class()) {
                        eprintln!(
                            "warning: no idle spinner on CPU {cpu} ({e}); figures will be noisier"
                        );
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
