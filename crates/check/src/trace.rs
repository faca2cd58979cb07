//! Per-rank communication events and the post-run static trace validator.
//!
//! `ffw-mpi` records one [`Event`] per runtime operation and calls
//! [`validate_traces`] when `run()` exits normally. Validation is static: it never blocks, and it sees the complete
//! history of every rank plus whatever messages were left undelivered in the
//! mailboxes.

use std::fmt;

/// One traced runtime operation, recorded by the rank that performed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A point-to-point send to `dst`.
    Send {
        /// Destination rank.
        dst: usize,
        /// User tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A completed blocking receive from `src`.
    Recv {
        /// Source rank.
        src: usize,
        /// User tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A fault-injection or fault-handling event (see [`FaultEvent`]).
    Fault(FaultEvent),
}

/// A fault observed by the runtime, recorded in the trace so fault runs
/// remain fully auditable after the fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The watchdog abandoned a wait because the peer rank had ended.
    PeerDeclaredDead {
        /// The dead peer.
        peer: usize,
    },
    /// A received payload disagreed with its ABFT checksum lane: the
    /// sender's data was corrupted before it was sent, and the receive
    /// fails with a typed compute-corruption error naming the sender.
    CorruptRecv {
        /// Source rank of the corrupted message.
        src: usize,
        /// Message tag.
        tag: u32,
    },
    /// A checksum-verified compute panel failed verification on this rank
    /// (a seeded bit flip, or genuine silent data corruption).
    ComputeCorrupt {
        /// 1-based logical panel apply on this rank.
        panel: u64,
        /// 1-based verification attempt that failed.
        attempt: u32,
    },
    /// A corrupted panel was escalated: the apply fails with a typed
    /// compute-corruption error (the halo data a recompute would need is
    /// already consumed).
    ComputeRetriesExhausted {
        /// 1-based logical panel apply on this rank.
        panel: u64,
        /// Total compute attempts made.
        attempts: u32,
    },
}

/// A message still sitting in a mailbox when `run()` exited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakedMessage {
    /// Sending rank.
    pub src: usize,
    /// Destination rank (which never received it).
    pub dst: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A protocol violation found by the post-run static validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A sent message was never received.
    MessageLeak(LeakedMessage),
    /// A rank sent a message to itself.
    SelfSend {
        /// The offending rank.
        rank: usize,
        /// The tag it used.
        tag: u32,
    },
    /// A rank detected compute corruption in a panel but never recorded the
    /// escalation (`ComputeRetriesExhausted`) for it: the detect→escalate
    /// protocol was abandoned.
    UnresolvedComputeCorruption {
        /// The detecting rank.
        rank: usize,
        /// 1-based logical panel apply that was corrupted.
        panel: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MessageLeak(m) => write!(
                f,
                "message leak: src={} dst={} tag={:#x} ({} bytes) was sent but never received",
                m.src, m.dst, m.tag, m.bytes
            ),
            Violation::SelfSend { rank, tag } => {
                write!(f, "self-send: rank {rank} sent to itself (tag={tag:#x})")
            }
            Violation::UnresolvedComputeCorruption { rank, panel } => write!(
                f,
                "unresolved compute corruption: rank {rank} detected a corrupt compute panel \
                 #{panel} but never escalated it"
            ),
        }
    }
}

/// Statically validates the complete per-rank traces of a finished run.
///
/// `traces[r]` is rank `r`'s event history; `leaked` lists messages left
/// undelivered in the mailboxes at exit. Returns every violation found (empty
/// means the run was protocol-clean).
pub fn validate_traces(traces: &[Vec<Event>], leaked: &[LeakedMessage]) -> Vec<Violation> {
    validate_impl(traces, leaked, false)
}

/// Validates the traces of a run in which a rank ended early (a typed
/// error, so its peers declared it dead) or a corruption was detected.
///
/// A rank that ended early legitimately leaves messages undelivered (peers
/// had already sent to it), so this mode skips the message-leak check.
/// Self-sends and unescalated compute corruption are still hard errors.
pub fn validate_traces_faulty(traces: &[Vec<Event>], leaked: &[LeakedMessage]) -> Vec<Violation> {
    validate_impl(traces, leaked, true)
}

fn validate_impl(traces: &[Vec<Event>], leaked: &[LeakedMessage], faulty: bool) -> Vec<Violation> {
    let mut violations = Vec::new();

    if !faulty {
        for msg in leaked {
            violations.push(Violation::MessageLeak(msg.clone()));
        }
    }

    for (rank, trace) in traces.iter().enumerate() {
        for event in trace {
            if let Event::Send { dst, tag, .. } = *event {
                if dst == rank {
                    violations.push(Violation::SelfSend { rank, tag });
                }
            }
        }
    }

    // Compute-corruption rule (both modes): a corrupt panel must end in its
    // escalation.
    for (rank, trace) in traces.iter().enumerate() {
        for (i, event) in trace.iter().enumerate() {
            if let Event::Fault(FaultEvent::ComputeCorrupt { panel, .. }) = *event {
                let resolved = trace[i + 1..].iter().any(|e| {
                    matches!(*e,
                        Event::Fault(FaultEvent::ComputeRetriesExhausted { panel: p, .. })
                        if p == panel)
                });
                if !resolved {
                    violations.push(Violation::UnresolvedComputeCorruption { rank, panel });
                }
            }
        }
    }

    violations
}

/// Renders a violation list as the panic message used by `ffw-mpi`.
pub fn render_report(violations: &[Violation]) -> String {
    let mut out = String::from("ffw-check: post-run trace validation failed:\n");
    for v in violations {
        out.push_str("  - ");
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_trace_passes() {
        let traces = vec![
            vec![Event::Send {
                dst: 1,
                tag: 7,
                bytes: 16,
            }],
            vec![Event::Recv {
                src: 0,
                tag: 7,
                bytes: 16,
            }],
        ];
        assert!(validate_traces(&traces, &[]).is_empty());
    }

    #[test]
    fn leak_is_reported_with_edge_and_tag() {
        let leaked = vec![LeakedMessage {
            src: 0,
            dst: 1,
            tag: 9,
            bytes: 48,
        }];
        let violations = validate_traces(&[Vec::new(), Vec::new()], &leaked);
        assert_eq!(violations.len(), 1);
        let text = violations[0].to_string();
        assert!(text.contains("src=0") && text.contains("dst=1") && text.contains("0x9"));
    }

    #[test]
    fn self_send_detected() {
        let traces = vec![vec![Event::Send {
            dst: 0,
            tag: 3,
            bytes: 8,
        }]];
        let violations = validate_traces(&traces, &[]);
        assert!(matches!(
            violations.as_slice(),
            [Violation::SelfSend { rank: 0, tag: 3 }]
        ));
    }

    #[test]
    fn faulty_mode_tolerates_leaks() {
        let leaked = vec![LeakedMessage {
            src: 0,
            dst: 1,
            tag: 9,
            bytes: 48,
        }];
        // Rank 1 ended before receiving: the leak is tolerated.
        let traces = vec![
            vec![
                Event::Send {
                    dst: 1,
                    tag: 9,
                    bytes: 48,
                },
                Event::Fault(FaultEvent::PeerDeclaredDead { peer: 1 }),
            ],
            Vec::new(),
        ];
        assert!(validate_traces_faulty(&traces, &leaked).is_empty());
        // The strict validator still flags the same run.
        assert!(!validate_traces(&traces, &leaked).is_empty());
    }

    #[test]
    fn compute_corruption_must_be_escalated() {
        let corrupt = Event::Fault(FaultEvent::ComputeCorrupt {
            panel: 5,
            attempt: 1,
        });
        // Resolved by the escalation of the same panel: clean.
        let escalated = vec![vec![
            corrupt.clone(),
            Event::Fault(FaultEvent::ComputeRetriesExhausted {
                panel: 5,
                attempts: 1,
            }),
        ]];
        assert!(validate_traces_faulty(&escalated, &[]).is_empty());
        // Abandoned, or escalated for another panel: a violation in both
        // modes.
        let dangling = vec![vec![
            corrupt,
            Event::Fault(FaultEvent::ComputeRetriesExhausted {
                panel: 6,
                attempts: 1,
            }),
        ]];
        assert!(matches!(
            validate_traces(&dangling, &[]).as_slice(),
            [Violation::UnresolvedComputeCorruption { rank: 0, panel: 5 }]
        ));
        assert!(!validate_traces_faulty(&dangling, &[]).is_empty());
    }
}
