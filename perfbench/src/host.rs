//! What the host took from a measured slice, read from outside the
//! program: the guest's steal counter and how long a measuring thread sat
//! runnable on a run queue waiting for a CPU. Slices are kept or dropped
//! on these signals alone, never on how many operations the program
//! completed in them. Neither counts time a thread spends blocked of its
//! own accord (a parked lock waiter, an I/O wait), so a stall of the
//! program's own stays in the figures.

/// A slice counts as disturbed when a measuring thread waited longer than
/// this for a CPU in it (another task ran in its place).
pub const WAIT_MAX_NS: u64 = 400_000;

/// When fewer than this share of the slices are undisturbed (a burst of
/// steal that covers most of the run), the figures come from this share
/// of the least disturbed slices instead.
pub const MIN_CLEAN: f64 = 0.25;

/// Time the calling thread has spent runnable but waiting for a CPU, in
/// nanoseconds: the second field of `/proc/thread-self/schedstat`; 0
/// where it cannot be read.
pub fn run_delay_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Steal time of all CPUs from the `cpu` line of `/proc/stat`, in clock
/// ticks; 0 where the counter cannot be read.
pub fn steal_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The host's interference with one slice, as one thread saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interference {
    /// Steal ticks the guest counted while the slice ran.
    pub steal: u64,
    /// Time the thread waited for a CPU, nanoseconds.
    pub wait_ns: u64,
}

impl Interference {
    pub fn disturbed(&self) -> bool {
        self.steal > 0 || self.wait_ns > WAIT_MAX_NS
    }

    /// The worse of two threads' views of the same slice.
    pub fn worst(self, other: Interference) -> Interference {
        Interference {
            steal: self.steal.max(other.steal),
            wait_ns: self.wait_ns.max(other.wait_ns),
        }
    }
}

/// Counters read at a slice boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wait_ns: u64,
    steal: u64,
}

impl Mark {
    /// Reads the counters; the thread's run-queue wait only if `wait`.
    pub fn now(wait: bool) -> Mark {
        Mark {
            wait_ns: if wait { run_delay_ns() } else { 0 },
            steal: steal_ticks(),
        }
    }

    /// Interference between this mark and a later one.
    pub fn until(&self, later: &Mark) -> Interference {
        Interference {
            steal: later.steal.saturating_sub(self.steal),
            wait_ns: later.wait_ns.saturating_sub(self.wait_ns),
        }
    }
}

/// Why slices were left out of a run's figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dropped {
    /// Slices with steal.
    pub steal: usize,
    /// Slices without steal in which a thread waited too long for a CPU.
    pub wait: usize,
    /// Slices never closed by a mark (the phase ended inside them).
    pub unknown: usize,
    /// True when too few slices were undisturbed and the least disturbed
    /// [`MIN_CLEAN`] share was used instead.
    pub fallback: bool,
}

/// The slices among those `keep` selects that the host left alone, and
/// what was dropped. `host[i]` is `None` for a slice whose interference is
/// unknown.
pub fn calm_slices(
    host: &[Option<Interference>],
    keep: impl Fn(usize) -> bool,
) -> (Vec<usize>, Dropped) {
    let candidates: Vec<usize> = (0..host.len()).filter(|&i| keep(i)).collect();
    let mut dropped = Dropped::default();
    let mut calm = Vec::with_capacity(candidates.len());
    for &i in &candidates {
        match host[i] {
            None => dropped.unknown += 1,
            Some(h) if h.steal > 0 => dropped.steal += 1,
            Some(h) if h.disturbed() => dropped.wait += 1,
            Some(_) => calm.push(i),
        }
    }
    let floor = ((candidates.len() as f64 * MIN_CLEAN).ceil() as usize).max(1);
    if calm.len() < floor.min(candidates.len()) {
        dropped.fallback = true;
        let mut by_noise = candidates;
        by_noise.sort_by_key(|&i| match host[i] {
            Some(h) => (0, h.steal, h.wait_ns, i),
            None => (1, 0, 0, i),
        });
        by_noise.truncate(floor);
        by_noise.sort_unstable();
        calm = by_noise;
    }
    (calm, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(steal: u64, wait_ns: u64) -> Option<Interference> {
        Some(Interference { steal, wait_ns })
    }

    #[test]
    fn counters_never_go_back() {
        let (w, s) = (run_delay_ns(), steal_ticks());
        std::thread::yield_now();
        assert!(run_delay_ns() >= w);
        assert!(steal_ticks() >= s);
    }

    /// Only host signals decide; the slices' operation counts play no part.
    #[test]
    fn drops_stolen_and_waiting_slices() {
        let host = [
            h(0, 0),
            h(1, 0),
            h(0, 900_000),
            h(0, 100_000),
            None,
            h(0, 0),
        ];
        let (calm, d) = calm_slices(&host, |_| true);
        assert_eq!(calm, vec![0, 3, 5]);
        assert_eq!(
            d,
            Dropped {
                steal: 1,
                wait: 1,
                unknown: 1,
                fallback: false
            }
        );
        let (calm, _) = calm_slices(&host, |i| i % 2 == 1);
        assert_eq!(calm, vec![3, 5]);
    }

    #[test]
    fn falls_back_to_the_least_disturbed() {
        let host = [
            h(3, 0),
            h(1, 0),
            h(2, 0),
            h(1, 5_000_000),
            h(0, 800_000),
            None,
            h(4, 0),
            h(5, 0),
        ];
        let (calm, d) = calm_slices(&host, |_| true);
        assert!(d.fallback);
        assert_eq!(calm, vec![1, 4]);
        assert_eq!(calm_slices(&[None], |_| true).0, vec![0]);
    }

    #[test]
    fn worst_view_of_a_slice() {
        let a = Interference {
            steal: 1,
            wait_ns: 10,
        };
        let b = Interference {
            steal: 0,
            wait_ns: 500_000,
        };
        assert_eq!(
            a.worst(b),
            Interference {
                steal: 1,
                wait_ns: 500_000
            }
        );
        assert!(!Interference::default().disturbed());
        assert!(b.disturbed());
    }
}
