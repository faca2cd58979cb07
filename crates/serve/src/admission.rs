//! Admission control: every submit is either accepted — and journaled —
//! or rejected with a *typed* reason the client can act on.
//!
//! The policy is deliberately load-shedding rather than back-pressuring:
//! a full queue rejects immediately with `queue-full` instead of blocking
//! the connection, so an overloaded service degrades predictably (clients
//! retry elsewhere/later) instead of accumulating unbounded work.

use crate::spec::JobSpec;
use std::fmt;

/// Why a submit was rejected. Every variant has a stable wire code.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The job object failed parsing or validation.
    InvalidSpec(String),
    /// The pending queue is at capacity; retry later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The admission-time FLOP estimate exceeds the applicable budget.
    BudgetInfeasible {
        /// Estimated FLOPs for the job.
        estimated: f64,
        /// The budget it had to fit under.
        budget: f64,
    },
    /// The service is draining (SIGTERM received); no new work is accepted.
    Draining,
    /// A job with this id already exists (any state); ids are write-once.
    DuplicateId,
}

impl RejectReason {
    /// Stable machine-readable code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::InvalidSpec(_) => "invalid-spec",
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::BudgetInfeasible { .. } => "budget-infeasible",
            RejectReason::Draining => "draining",
            RejectReason::DuplicateId => "duplicate-id",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::InvalidSpec(detail) => write!(f, "invalid spec: {detail}"),
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} pending jobs); retry later")
            }
            RejectReason::BudgetInfeasible { estimated, budget } => write!(
                f,
                "estimated cost {estimated:.3e} flops exceeds budget {budget:.3e}"
            ),
            RejectReason::Draining => write!(f, "service is draining; no new jobs accepted"),
            RejectReason::DuplicateId => write!(f, "a job with this id already exists"),
        }
    }
}

/// The tunable admission policy.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Maximum jobs waiting to start (running jobs do not count).
    pub queue_capacity: usize,
    /// Service-wide per-job FLOP ceiling.
    pub flop_ceiling: f64,
}

impl AdmissionPolicy {
    /// Decides whether a validated spec may enter the queue. `queued` is
    /// the current pending-queue depth, `draining`/`duplicate` the current
    /// engine state for this submit. Checks are ordered so the most
    /// permanent reason wins: a duplicate id is rejected as such even
    /// while draining would also apply.
    pub fn admit(
        &self,
        spec: &JobSpec,
        queued: usize,
        draining: bool,
        duplicate: bool,
    ) -> Result<(), RejectReason> {
        if duplicate {
            return Err(RejectReason::DuplicateId);
        }
        if draining {
            return Err(RejectReason::Draining);
        }
        let budget = match spec.max_flops {
            Some(limit) => limit.min(self.flop_ceiling),
            None => self.flop_ceiling,
        };
        let estimated = spec.estimated_flops();
        // An estimate fits only when it compares `<=`: a `NaN` fits no budget.
        let fits = estimated <= budget;
        if !fits {
            return Err(RejectReason::BudgetInfeasible { estimated, budget });
        }
        if queued >= self.queue_capacity {
            return Err(RejectReason::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> JobSpec {
        JobSpec::from_json(
            &Json::parse(r#"{"id":"a","size":32,"tx":4,"rx":8,"iterations":2}"#).expect("json"),
        )
        .expect("spec")
    }

    fn policy() -> AdmissionPolicy {
        AdmissionPolicy {
            queue_capacity: 2,
            flop_ceiling: 1e18,
        }
    }

    #[test]
    fn accepts_within_limits() {
        assert_eq!(policy().admit(&spec(), 0, false, false), Ok(()));
    }

    #[test]
    fn sheds_on_full_queue_with_typed_reason() {
        match policy().admit(&spec(), 2, false, false) {
            Err(RejectReason::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_budget_is_rejected_up_front() {
        let mut s = spec();
        s.max_flops = Some(1.0);
        match policy().admit(&s, 0, false, false) {
            Err(RejectReason::BudgetInfeasible { estimated, budget }) => {
                assert!(estimated > budget);
                assert_eq!(budget, 1.0);
            }
            other => panic!("expected BudgetInfeasible, got {other:?}"),
        }
        // The service-wide ceiling applies even without a per-job limit.
        let tight = AdmissionPolicy {
            flop_ceiling: 1.0,
            ..policy()
        };
        assert!(matches!(
            tight.admit(&spec(), 0, false, false),
            Err(RejectReason::BudgetInfeasible { .. })
        ));
    }

    /// A size whose square overflows `usize`, and a transmitter count whose
    /// solve count does, both pass validation and are both priced far over
    /// any budget.
    #[test]
    fn overflowing_jobs_are_budget_infeasible() {
        for patch in [
            r#"{"id":"a","size":4294967296}"#,
            r#"{"id":"a","tx":9007199254740992,"iterations":1000}"#,
        ] {
            let spec = JobSpec::from_json(&Json::parse(patch).expect(patch)).expect(patch);
            match policy().admit(&spec, 0, false, false) {
                Err(RejectReason::BudgetInfeasible { estimated, budget }) => {
                    assert!(estimated > budget, "{patch}");
                }
                other => panic!("{patch}: expected BudgetInfeasible, got {other:?}"),
            }
        }
    }

    #[test]
    fn draining_and_duplicates_reject() {
        assert_eq!(
            policy().admit(&spec(), 0, true, false),
            Err(RejectReason::Draining)
        );
        assert_eq!(
            policy().admit(&spec(), 0, true, true),
            Err(RejectReason::DuplicateId)
        );
        for r in [
            RejectReason::InvalidSpec("x".into()),
            RejectReason::QueueFull { capacity: 1 },
            RejectReason::BudgetInfeasible {
                estimated: 2.0,
                budget: 1.0,
            },
            RejectReason::Draining,
            RejectReason::DuplicateId,
        ] {
            assert!(!r.code().is_empty());
            assert!(!r.to_string().is_empty());
        }
    }
}
