//! Thread placement. On a small host the scheduler moves a benchmark's
//! two busy threads between sharing one CPU and holding one each, and the
//! two placements run at very different speeds. Workloads whose threads
//! contend pin each busy thread to its own allowed CPU, so every run
//! measures the same placement: one busy thread per CPU.

/// The CPUs this process may run on, in increasing order.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; 128];
    // SAFETY: the mask buffer is valid for writes of its full length,
    // which is the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Pin the calling thread to `cpu`; false if the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_current(cpu: usize) -> bool {
    let mut mask = [0u8; 128];
    if cpu >= mask.len() * 8 {
        return false;
    }
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: the mask buffer is valid for reads of its full length,
    // which is the size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current(_cpu: usize) -> bool {
    false
}

/// Pin each worker of `exec` to its own allowed CPU, starting at the
/// `skip`-th one. Every worker runs one pinning task that waits on a
/// barrier until all have started, so no worker can take two of them.
/// Does nothing when the host has too few CPUs.
pub fn pin_workers(exec: &reo_exec::Executor, skip: usize) {
    let cpus = allowed_cpus();
    let n = exec.threads();
    if cpus.len() < skip + n {
        return;
    }
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
    let handles: Vec<_> = cpus[skip..skip + n]
        .iter()
        .map(|&cpu| {
            let barrier = std::sync::Arc::clone(&barrier);
            exec.spawn(async move {
                barrier.wait();
                pin_current(cpu)
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_calling_thread_may_run_somewhere() {
        if cfg!(target_os = "linux") {
            assert!(!allowed_cpus().is_empty());
        }
    }
}
