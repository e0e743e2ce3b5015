//! The two Linux calls the generator needs that `std` does not offer,
//! declared against the C library `std` already links.

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Shrink the calling thread's timer slack from the default 50 µs to 1 ns,
/// so a sleep wakes within a few microseconds of its deadline instead of
/// overshooting by ~55 µs. Best effort: on failure the generator-lateness
/// figures show the cost.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)` only changes the
    // calling thread's timer slack; it takes no pointers.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// vCPU of the load generator, the responder, and the replays.
pub const CLIENT_CPU: usize = 0;
/// vCPU of the server under test (its threads inherit it at spawn).
pub const SERVER_CPU: usize = 1;

/// Pin the calling thread (and the threads it spawns afterwards) to `cpu`,
/// when the host has at least two. Client and server then always sit on
/// different vCPUs: left to the scheduler, the pairing changes from run to
/// run and moved p50 by ~50% between otherwise identical runs.
pub fn pin(cpu: usize) {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly
    // `size_of_val(&mask)` bytes for the duration of the call; pid 0 means
    // the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
