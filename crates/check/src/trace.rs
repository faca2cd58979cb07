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

/// A fault observed (or injected) by the runtime, recorded in the trace so
/// fault runs remain fully auditable after the fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A seeded fault plan crashed this rank at its `op`-th operation.
    InjectedCrash {
        /// 1-based operation index at which the crash fired.
        op: u64,
    },
    /// A delivery attempt of a send was dropped by fault injection.
    SendDropped {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// 1-based delivery attempt that was dropped.
        attempt: u32,
    },
    /// All delivery attempts of a send were dropped; the destination is
    /// declared dead by the sender.
    SendRetriesExhausted {
        /// Destination rank, now considered dead.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// Total attempts made.
        attempts: u32,
    },
    /// Fault injection delayed this rank's operation (straggler model).
    Straggle {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// The watchdog abandoned a wait because the peer rank had died.
    PeerDeclaredDead {
        /// The dead peer.
        peer: usize,
    },
    /// A received delivery attempt failed its CRC-32 integrity check.
    CorruptRecv {
        /// Source rank of the corrupted message.
        src: usize,
        /// Message tag.
        tag: u32,
        /// 1-based verification attempt that failed.
        attempt: u32,
    },
    /// The receiver NACKed a corrupted delivery and requested a retransmit.
    RetransmitRequested {
        /// Source rank being asked to retransmit.
        src: usize,
        /// Message tag.
        tag: u32,
        /// 1-based retransmit request (matches the failed attempt).
        attempt: u32,
    },
    /// Every verification attempt of a receive failed; the receive fails
    /// with a typed corruption error.
    CorruptionRetriesExhausted {
        /// Source rank of the persistently-corrupt message.
        src: usize,
        /// Message tag.
        tag: u32,
        /// Total verification attempts made.
        attempts: u32,
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
    /// A rank detected a corrupted receive but its trace shows neither a
    /// later clean delivery on that edge+tag nor an exhausted retry budget:
    /// the corruption protocol was abandoned mid-recovery.
    UnresolvedCorruption {
        /// The receiving rank.
        rank: usize,
        /// Source of the corrupted message.
        src: usize,
        /// Message tag.
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
            Violation::UnresolvedCorruption { rank, src, tag } => write!(
                f,
                "unresolved corruption: rank {rank} detected a corrupt receive from rank {src} \
                 (tag={tag:#x}) but neither recovered a clean copy nor exhausted its retry budget"
            ),
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

/// Validates the traces of a run in which ranks died (injected crashes or
/// exhausted send retries).
///
/// A dead rank legitimately leaves messages undelivered (peers had already
/// sent to it), so this mode skips the message-leak check. Self-sends and
/// unresolved fault protocols are still hard errors.
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

    // Corruption-protocol rules (both modes): a detected corrupt receive
    // must end in a clean delivery or an exhausted budget, and a corrupt
    // compute panel in its escalation.
    for (rank, trace) in traces.iter().enumerate() {
        for (i, event) in trace.iter().enumerate() {
            match *event {
                Event::Fault(FaultEvent::CorruptRecv { src, tag, .. }) => {
                    let resolved = trace[i + 1..].iter().any(|e| match *e {
                        Event::Recv { src: s, tag: t, .. } => s == src && t == tag,
                        Event::Fault(FaultEvent::CorruptionRetriesExhausted {
                            src: s,
                            tag: t,
                            ..
                        }) => s == src && t == tag,
                        _ => false,
                    });
                    if !resolved {
                        violations.push(Violation::UnresolvedCorruption { rank, src, tag });
                    }
                }
                Event::Fault(FaultEvent::ComputeCorrupt { panel, .. }) => {
                    let resolved = trace[i + 1..].iter().any(|e| {
                        matches!(*e,
                            Event::Fault(FaultEvent::ComputeRetriesExhausted { panel: p, .. })
                            if p == panel)
                    });
                    if !resolved {
                        violations.push(Violation::UnresolvedComputeCorruption { rank, panel });
                    }
                }
                _ => {}
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
        // Rank 1 died before receiving: the leak is tolerated.
        let traces = vec![
            vec![
                Event::Send {
                    dst: 1,
                    tag: 9,
                    bytes: 48,
                },
                Event::Fault(FaultEvent::PeerDeclaredDead { peer: 1 }),
            ],
            vec![Event::Fault(FaultEvent::InjectedCrash { op: 1 })],
        ];
        assert!(validate_traces_faulty(&traces, &leaked).is_empty());
        // The strict validator still flags the same run.
        assert!(!validate_traces(&traces, &leaked).is_empty());
    }

    #[test]
    fn corruption_must_resolve_to_delivery_or_exhaustion() {
        let corrupt = Event::Fault(FaultEvent::CorruptRecv {
            src: 0,
            tag: 5,
            attempt: 1,
        });
        let nack = Event::Fault(FaultEvent::RetransmitRequested {
            src: 0,
            tag: 5,
            attempt: 1,
        });
        // Resolved by a later clean receive on the same edge+tag: clean.
        let recovered = vec![vec![
            corrupt.clone(),
            nack.clone(),
            Event::Recv {
                src: 0,
                tag: 5,
                bytes: 8,
            },
        ]];
        assert!(validate_traces(&recovered, &[]).is_empty());
        // Resolved by an exhausted budget: also clean (the error is typed).
        let exhausted = vec![vec![
            corrupt.clone(),
            nack.clone(),
            Event::Fault(FaultEvent::CorruptionRetriesExhausted {
                src: 0,
                tag: 5,
                attempts: 4,
            }),
        ]];
        assert!(validate_traces_faulty(&exhausted, &[]).is_empty());
        // Abandoned mid-protocol: a violation in both modes.
        let dangling = vec![vec![corrupt, nack]];
        assert!(matches!(
            validate_traces(&dangling, &[]).as_slice(),
            [Violation::UnresolvedCorruption {
                rank: 0,
                src: 0,
                tag: 5
            }]
        ));
        assert!(!validate_traces_faulty(&dangling, &[]).is_empty());
    }
}
