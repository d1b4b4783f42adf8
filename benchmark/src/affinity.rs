//! Confining a process to one CPU.
//!
//! The broker under test runs on the first CPU this process may use, the
//! generator (and `engine-1m`, and the traced run) on the last. A broker
//! whose threads roam over two virtual CPUs wakes the other one for every
//! hand-off between its reader, worker, delivery and writer threads, and
//! what that costs depends on what else the host is doing: measured in
//! alternation on the same seed, `docs_per_s` of `nitf-1k-sat` spread 6.5%
//! from run to run free and 3.0% confined, `setup_s` of `nitf-100k-sat`
//! 8.5% and 4.7%. Confined, the broker is a one-core deployment: every
//! microsecond it spends on a document is on the path of the next.

use std::io;
use std::sync::OnceLock;

// glibc, which std already links.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// The CPU [`split`] left to the broker children.
static BROKER_CPU: OnceLock<usize> = OnceLock::new();

/// The CPUs the calling thread may run on, ascending.
fn allowed() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is WORDS * 8 writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Confines the calling thread, and every thread and process it spawns
/// from here on, to `cpu`.
pub fn confine(cpu: usize) -> io::Result<()> {
    if cpu >= WORDS * 64 {
        return Err(io::Error::other(format!("no CPU {cpu}")));
    }
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is WORDS * 8 readable bytes, the size passed.
    if unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Divides the CPUs this process may use: confines the caller to the last
/// and leaves the first to the broker children (the same one, if there is
/// only one). Returns `(own, broker's)`.
pub fn split() -> io::Result<(usize, usize)> {
    let cpus = allowed()?;
    let (Some(&first), Some(&last)) = (cpus.first(), cpus.last()) else {
        return Err(io::Error::other("no CPU in the affinity mask"));
    };
    // A second split finds only the CPU the first one chose: the broker
    // keeps the one it was given then.
    let broker = *BROKER_CPU.get_or_init(|| first);
    confine(last)?;
    Ok((last, broker))
}

/// The CPU of the broker children, once [`split`] has run.
pub fn broker_cpu() -> Option<usize> {
    BROKER_CPU.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_and_its_children_stay_on_one_cpu() {
        // On a thread of its own: the test harness's threads stay free.
        std::thread::spawn(|| {
            let before = allowed().unwrap();
            let (own, broker) = split().unwrap();
            assert_eq!((own, broker), (*before.last().unwrap(), before[0]));
            assert_eq!(broker_cpu(), Some(broker));
            assert_eq!(allowed().unwrap(), vec![own]);
            let child = std::thread::spawn(|| allowed().unwrap());
            assert_eq!(child.join().unwrap(), vec![own]);
            // The mask is not a cage: a CPU given up can be taken again.
            confine(broker).unwrap();
            assert_eq!(allowed().unwrap(), vec![broker]);
            assert!(confine(WORDS * 64).is_err());
        })
        .join()
        .unwrap();
    }
}
