//! Global wait-for-graph reconstruction and deadlock diagnosis.
//!
//! Every `ffw-mpi` rank publishes what it is currently blocked on (a
//! [`WaitState`]). When a rank's blocking wait times out, it snapshots all
//! states and calls [`diagnose_deadlock`]. The analysis is conservative: it
//! only reports *definite* deadlocks — a dependency on a rank that has already
//! finished or panicked (and so can never satisfy the wait), or a cycle whose
//! every member is itself blocked. A rank that is merely slow keeps the
//! watchdog silent.

use std::fmt;

/// What a rank is currently doing, as published to the global registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitState {
    /// Executing user code (not blocked in the runtime).
    Running,
    /// Blocked in a receive waiting for a message.
    RecvWait {
        /// The source rank it expects the message from.
        src: usize,
        /// The tag it is matching.
        tag: u32,
    },
    /// Returned from the rank closure normally.
    Finished,
    /// The rank closure panicked.
    Panicked,
}

impl fmt::Display for WaitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitState::Running => f.write_str("running"),
            WaitState::RecvWait { src, tag } => {
                write!(f, "waiting for message (src={src}, tag={tag:#x})")
            }
            WaitState::Finished => f.write_str("finished"),
            WaitState::Panicked => f.write_str("panicked"),
        }
    }
}

/// A definite deadlock found by [`diagnose_deadlock`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The rank states at the time of diagnosis.
    pub states: Vec<WaitState>,
    /// A cycle of mutually-blocked ranks (`cycle[i]` waits on
    /// `cycle[(i+1) % len]`), if the deadlock is cyclic.
    pub cycle: Option<Vec<usize>>,
    /// A blocked rank waiting on a rank that already finished or panicked,
    /// if the deadlock is a dead dependency: `(waiter, dead_rank)`.
    pub dead_dependency: Option<(usize, usize)>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "deadlock detected; global wait-for graph:")?;
        for (rank, state) in self.states.iter().enumerate() {
            writeln!(f, "  rank {rank}: {state}")?;
        }
        if let Some((waiter, dead)) = self.dead_dependency {
            writeln!(
                f,
                "  rank {waiter} waits on rank {dead}, which is already {} and can never satisfy the wait",
                self.states[dead]
            )?;
        }
        if let Some(cycle) = &self.cycle {
            let mut path = cycle
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            if let Some(first) = cycle.first() {
                path.push_str(&format!(" -> {first}"));
            }
            writeln!(f, "  cycle: {path}")?;
        }
        Ok(())
    }
}

/// Reconstructs the wait-for graph from a state snapshot and reports a
/// definite deadlock, if any.
///
/// `has_matching(src, dst, tag)` must report whether a message satisfying
/// rank `dst`'s `RecvWait { src, tag }` is already queued — such a rank is
/// about to wake and is treated as not blocked.
pub fn diagnose_deadlock(
    states: &[WaitState],
    mut has_matching: impl FnMut(usize, usize, u32) -> bool,
) -> Option<DeadlockReport> {
    // A blocked rank waits on exactly one source, so the wait-for graph has
    // at most one outgoing edge per rank: `waits_on[rank]`.
    let waits_on: Vec<Option<usize>> = states
        .iter()
        .enumerate()
        .map(|(rank, state)| match *state {
            WaitState::RecvWait { src, tag } if !has_matching(src, rank, tag) => Some(src),
            _ => None,
        })
        .collect();

    // Dead dependency: a blocked rank waiting on a rank that can never act.
    for (rank, target) in waits_on.iter().enumerate() {
        if let Some(target) = *target {
            if matches!(states[target], WaitState::Finished | WaitState::Panicked) {
                return Some(DeadlockReport {
                    states: states.to_vec(),
                    cycle: None,
                    dead_dependency: Some((rank, target)),
                });
            }
        }
    }

    // Cycle among blocked ranks: follow each chain of waits. A chain that
    // reaches a rank not blocked ends (a running rank can still make
    // progress); one that returns to a rank already on it closes a cycle.
    for start in 0..states.len() {
        let mut path = vec![start];
        let mut node = start;
        while let Some(next) = waits_on[node] {
            if let Some(pos) = path.iter().position(|&r| r == next) {
                return Some(DeadlockReport {
                    states: states.to_vec(),
                    cycle: Some(path[pos..].to_vec()),
                    dead_dependency: None,
                });
            }
            path.push(next);
            node = next;
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_messages(_: usize, _: usize, _: u32) -> bool {
        false
    }

    #[test]
    fn mutual_recv_cycle() {
        let states = vec![
            WaitState::RecvWait { src: 1, tag: 1 },
            WaitState::RecvWait { src: 0, tag: 2 },
        ];
        let report = diagnose_deadlock(&states, no_messages).expect("deadlock");
        let cycle = report.cycle.as_ref().expect("cyclic");
        assert_eq!(cycle.len(), 2);
        let text = report.to_string();
        assert!(text.contains("rank 0") && text.contains("rank 1"));
        assert!(text.contains("cycle"));
    }

    #[test]
    fn wait_on_finished_rank() {
        let states = vec![WaitState::Finished, WaitState::RecvWait { src: 0, tag: 7 }];
        let report = diagnose_deadlock(&states, no_messages).expect("deadlock");
        assert_eq!(report.dead_dependency, Some((1, 0)));
        assert!(report.to_string().contains("can never satisfy"));
    }

    #[test]
    fn queued_message_suppresses_report() {
        let states = vec![WaitState::Finished, WaitState::RecvWait { src: 0, tag: 7 }];
        let report = diagnose_deadlock(&states, |src, dst, tag| (src, dst, tag) == (0, 1, 7));
        assert!(report.is_none(), "rank 1 is about to wake");
    }

    #[test]
    fn running_peer_is_not_a_deadlock() {
        let states = vec![WaitState::Running, WaitState::RecvWait { src: 0, tag: 7 }];
        assert!(diagnose_deadlock(&states, no_messages).is_none());
    }

    #[test]
    fn three_rank_cycle_found() {
        let states = vec![
            WaitState::RecvWait { src: 2, tag: 0 },
            WaitState::RecvWait { src: 0, tag: 0 },
            WaitState::RecvWait { src: 1, tag: 0 },
        ];
        let report = diagnose_deadlock(&states, no_messages).expect("deadlock");
        assert_eq!(report.cycle.map(|c| c.len()), Some(3));
    }
}
