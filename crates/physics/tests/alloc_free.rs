//! Acceptance-criterion test: a warmed-up physics pass performs **zero
//! heap allocations**. A counting global allocator gates the whole
//! binary, so this file holds exactly one test — parallel test threads
//! would otherwise pollute the counter.
//!
//! Scope: `PhysicsStep::run_local` on one rank's subdomain, after a first
//! pass has sized the forcing table and the column buffers. The rank runs
//! untraced, so recording its flops is a no-op; trace events are a
//! runtime concern, outside this gate.

use agcm_grid::decomp::Decomp;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_physics::step::PhysicsStep;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

// Per-thread flag: libtest's harness threads allocate concurrently with
// the test body, so a process-wide flag over-counts. Const-init Cell has
// no lazy allocation or destructor, so reading it inside `alloc` is safe.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warmed_up_physics_pass_allocates_nothing() {
    let grid = GridSpec::new(48, 24, 9);
    let decomp = Decomp::new(grid, 2, 2);
    let dt = 900.0;
    let counts = run(1, |comm| {
        let sub = decomp.subdomain_of_rank(3);
        let physics = PhysicsStep::new(grid, sub);
        let mut theta = Field3D::from_fn(sub.ni, sub.nj, grid.n_lev, |i, j, k| {
            (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() - 0.17 * k as f64
        });

        // Warm-up: the forcing table and column buffers are sized on the
        // first pass.
        physics.run_local(comm, &mut theta, 0.0);

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.with(|c| c.set(true));
        for step in 1..=10 {
            physics.run_local(comm, &mut theta, step as f64 * dt);
        }
        COUNTING.with(|c| c.set(false));
        ALLOCS.load(Ordering::SeqCst)
    });
    assert_eq!(
        counts[0], 0,
        "warmed-up physics passes performed {} heap allocations",
        counts[0]
    );
}
