//! Diagnostics and the stable rule catalog.
//!
//! Every rule has a stable machine code (`FFW001`…`FFW012`) that tooling
//! can match on, plus the historical `R`-number the workspace docs use.
//! Diagnostic ordering is deterministic: file, then line, then column, then
//! code — so reports diff cleanly across runs.

/// One diagnostic: a rule violation anchored to a source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Stable machine code, e.g. `FFW003`.
    pub code: &'static str,
    /// Historical rule name, e.g. `R3`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (1 when the rule is line-granular).
    pub col: u32,
    /// Human-readable message, including the waiver hint where one exists.
    pub message: String,
}

impl Diag {
    /// Renders as `file:line:col: [CODE/RN] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}/{}] {}",
            self.file, self.line, self.col, self.code, self.rule, self.message
        )
    }
}

/// Sorts diagnostics into the canonical (file, line, col, code) order.
pub fn sort_diags(diags: &mut [Diag]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.code).cmp(&(b.file.as_str(), b.line, b.col, b.code))
    });
}

/// Catalog entry for one rule.
pub struct RuleInfo {
    /// Stable machine code.
    pub code: &'static str,
    /// Historical rule name.
    pub rule: &'static str,
    /// Waiver tag recognized in plain comments, empty if the rule has none.
    pub waiver: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog, in rule order.
pub const RULES: [RuleInfo; 12] = [
    RuleInfo {
        code: "FFW001",
        rule: "R1",
        waiver: "",
        summary: "every `unsafe` introduction needs a SAFETY comment above it",
    },
    RuleInfo {
        code: "FFW002",
        rule: "R2",
        waiver: "",
        summary: "crates containing `unsafe` must #![deny(unsafe_op_in_unsafe_fn)] at the root",
    },
    RuleInfo {
        code: "FFW003",
        rule: "R3",
        waiver: "lint:relaxed-ok",
        summary: "no Ordering::Relaxed on completion/panic-flag atomics",
    },
    RuleInfo {
        code: "FFW004",
        rule: "R4",
        waiver: "lint:spawn-ok",
        summary: "thread::spawn confined to ffw-par/ffw-mpi",
    },
    RuleInfo {
        code: "FFW005",
        rule: "R5",
        waiver: "lint:unwrap-ok",
        summary: "no .unwrap() on the fault-tolerant path (ffw-dist/ffw-mpi src)",
    },
    RuleInfo {
        code: "FFW006",
        rule: "R6",
        waiver: "lint:instant-ok",
        summary: "std::time::Instant only inside ffw-obs",
    },
    RuleInfo {
        code: "FFW007",
        rule: "R7",
        waiver: "lint:unchecked-ok",
        summary: "no raw .send(/.recv( in ffw-dist src — use the checked paths",
    },
    RuleInfo {
        code: "FFW008",
        rule: "R8",
        waiver: "lint:single-rhs-ok",
        summary: "no single-RHS operator applies on the inversion hot path",
    },
    RuleInfo {
        code: "FFW009",
        rule: "R9",
        waiver: "lint:atomic-ok",
        summary: "every Release/SeqCst store on a named flag needs a matching acquire load \
                  somewhere in the workspace",
    },
    RuleInfo {
        code: "FFW010",
        rule: "R10",
        waiver: "lint:reduce-ok",
        summary: "no scheduling-order-dependent accumulation in hot-path crates",
    },
    RuleInfo {
        code: "FFW011",
        rule: "R11",
        waiver: "lint:tag-ok",
        summary: "every message tag has a sender and a receiver, and never the reserved bit",
    },
    RuleInfo {
        code: "FFW012",
        rule: "R12",
        waiver: "",
        summary: "every waiver is registered in WAIVERS.md and every ledger entry is live",
    },
];

/// Looks up a rule by its historical name.
pub fn rule_info(rule: &str) -> &'static RuleInfo {
    RULES
        .iter()
        .find(|r| r.rule == rule)
        .expect("unknown rule name")
}
