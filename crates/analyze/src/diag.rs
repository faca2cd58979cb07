//! Diagnostics and the stable rule catalog.
//!
//! Every rule has a stable machine code (`FFW003`, `FFW008`…`FFW011`) that
//! tooling can match on, plus the historical `R`-number the workspace docs
//! use. A retired rule leaves a gap (FFW001, 002, 004–007 and 012): its code
//! is never reused.
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
    /// Human-readable message.
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
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog, in rule order.
pub const RULES: [RuleInfo; 5] = [
    RuleInfo {
        code: "FFW003",
        rule: "R3",
        summary: "no Ordering::Relaxed on completion/panic-flag atomics",
    },
    RuleInfo {
        code: "FFW008",
        rule: "R8",
        summary: "no single-RHS operator applies on the inversion hot path",
    },
    RuleInfo {
        code: "FFW009",
        rule: "R9",
        summary: "every Release/SeqCst store on a named flag needs a matching acquire load \
                  somewhere in the workspace",
    },
    RuleInfo {
        code: "FFW010",
        rule: "R10",
        summary: "no scheduling-order-dependent accumulation in hot-path crates",
    },
    RuleInfo {
        code: "FFW011",
        rule: "R11",
        summary: "every message tag has a sender and a receiver, and no two tags share a value",
    },
];
/// Looks up a rule by its historical name.
pub fn rule_info(rule: &str) -> &'static RuleInfo {
    RULES
        .iter()
        .find(|r| r.rule == rule)
        .expect("unknown rule name")
}
