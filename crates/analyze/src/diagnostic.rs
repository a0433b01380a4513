//! Diagnostic model for the static policy verifier.
//!
//! Every finding the verifier produces is a [`Diagnostic`]: a stable
//! code (`XA001`…`XA005`), a severity, an optional span into the policy
//! source (rule id + line number), and a human message. A run's
//! diagnostics are collected into a [`Report`] that renders to terminal
//! text or machine-readable JSON and decides the process exit code.

use std::fmt::Write as _;
use xac_obs::json_escape;

/// How bad a finding is. Ordering matters: `Error > Warning > Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Never gates the exit code on its own.
    Info,
    /// Gates the exit code only under `--deny warn`.
    Warning,
    /// Always gates the exit code.
    Error,
}

impl Severity {
    /// Lower-case label used in both text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// Stable diagnostic codes, one per verifier pass (D1–D5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// D1 — rule path unsatisfiable against the schema.
    DeadRule,
    /// D2 — rule kept by the optimizer but unobservable in annotation.
    ShadowedRule,
    /// D3 — a `+` and a `−` rule with overlapping scope.
    Conflict,
    /// D4 — schema element types no rule ever signs.
    CoverageGap,
    /// D5 — trigger-soundness audit finding or summary.
    TriggerAudit,
}

impl Code {
    /// The stable `XA…` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DeadRule => "XA001",
            Code::ShadowedRule => "XA002",
            Code::Conflict => "XA003",
            Code::CoverageGap => "XA004",
            Code::TriggerAudit => "XA005",
        }
    }

    /// Short kebab-case name of the pass.
    pub fn kind(self) -> &'static str {
        match self {
            Code::DeadRule => "dead-rule",
            Code::ShadowedRule => "shadowed-rule",
            Code::Conflict => "conflict",
            Code::CoverageGap => "coverage-gap",
            Code::TriggerAudit => "trigger-audit",
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which pass produced it.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// The rule the finding is about, when it is about one rule.
    pub rule: Option<String>,
    /// 1-based line of that rule in the policy source, when known.
    pub line: Option<usize>,
    /// 1-based column within that line (the exact qualifier being
    /// flagged), when known.
    pub col: Option<usize>,
    /// The finding itself.
    pub message: String,
    /// Optional secondary explanation (rendered indented / as `note`).
    pub note: Option<String>,
}

impl Diagnostic {
    /// A finding not anchored to a single rule.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            rule: None,
            line: None,
            col: None,
            message: message.into(),
            note: None,
        }
    }

    /// Anchor the finding to a rule id.
    pub fn for_rule(mut self, rule: impl Into<String>) -> Diagnostic {
        self.rule = Some(rule.into());
        self
    }

    /// Attach the rule's line in the policy source.
    pub fn at_line(mut self, line: Option<usize>) -> Diagnostic {
        self.line = line;
        self
    }

    /// Attach the column of the exact span being flagged.
    pub fn at_col(mut self, col: Option<usize>) -> Diagnostic {
        self.col = col;
        self
    }

    /// Attach a secondary note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.note = Some(note.into());
        self
    }
}

/// Aggregate numbers from the D5 trigger-soundness audit, carried on the
/// report so JSON consumers (and `BENCH_analyze.json`) get them without
/// parsing messages.
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Update XPaths audited.
    pub updates: usize,
    /// Σ |selected| — rules the Fig. 8 trigger selected, over all updates.
    pub selected_total: usize,
    /// Σ |affected| — rules whose scope actually changed (dynamic runs only).
    pub affected_total: usize,
    /// Dynamically affected rules the trigger missed (must be 0).
    pub missed: usize,
    /// Fast-path vs definitional trigger divergences (must be 0).
    pub divergences: usize,
    /// Backends whose partial-vs-full sign state was cross-checked.
    pub backends: Vec<String>,
    /// Sign-state mismatches between partial and full re-annotation.
    pub sign_mismatches: usize,
    /// Whether a document was available (dynamic cross-check ran).
    pub dynamic: bool,
}

impl AuditSummary {
    /// D5 precision `|selected| / |affected|` (≥ 1 when sound; the
    /// over-approximation factor). 1.0 when nothing was affected.
    pub fn precision(&self) -> f64 {
        if self.affected_total == 0 {
            1.0
        } else {
            self.selected_total as f64 / self.affected_total as f64
        }
    }

    /// Zero missed rules, zero divergences, zero sign mismatches.
    pub fn sound(&self) -> bool {
        self.missed == 0 && self.divergences == 0 && self.sign_mismatches == 0
    }
}

/// The outcome of one verifier run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Display name of the policy (usually its file path).
    pub policy_name: String,
    /// Display name of the schema, when one was given.
    pub schema_name: Option<String>,
    /// All findings, in pass order (D1 → D5).
    pub diagnostics: Vec<Diagnostic>,
    /// D5 aggregate numbers, when the audit ran.
    pub audit: Option<AuditSummary>,
}

impl Report {
    /// Count findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// All distinct codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code.as_str()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Exit code for the CLI: 5 when errors are present, 6 when warnings
    /// are present and `deny_warnings` is set, 0 otherwise. Info findings
    /// never gate.
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        if self.count(Severity::Error) > 0 {
            5
        } else if deny_warnings && self.count(Severity::Warning) > 0 {
            6
        } else {
            0
        }
    }

    /// Diagnostics in render order: by source span (line, then column,
    /// unanchored findings last), then code, then rule id, with the
    /// original pass order breaking remaining ties. Both renderers use
    /// this ordering, so text and JSON output are stable regardless of
    /// the order passes pushed their findings.
    pub fn sorted(&self) -> Vec<&Diagnostic> {
        let mut ds: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        ds.sort_by_key(|d| {
            (
                d.line.is_none(),
                d.line.unwrap_or(0),
                d.col.is_none(),
                d.col.unwrap_or(0),
                d.code,
                d.rule.clone(),
            )
        });
        ds
    }

    /// Human-readable rendering, one finding per line plus a summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in self.sorted() {
            let _ = write!(out, "{}[{}]", d.severity.label(), d.code.as_str());
            let _ = write!(out, " {}", self.policy_name);
            if let Some(line) = d.line {
                let _ = write!(out, ":{line}");
                if let Some(col) = d.col {
                    let _ = write!(out, ":{col}");
                }
            }
            if let Some(rule) = &d.rule {
                let _ = write!(out, " rule {rule}");
            }
            let _ = writeln!(out, ": {}", d.message);
            if let Some(note) = &d.note {
                let _ = writeln!(out, "    note: {note}");
            }
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} info(s)",
            self.policy_name,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        out
    }

    /// Machine-readable rendering (valid JSON; checked by
    /// `xac_obs::validate_json` in tests and CI).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"policy\": \"{}\",", json_escape(&self.policy_name));
        match &self.schema_name {
            Some(s) => {
                let _ = writeln!(out, "  \"schema\": \"{}\",", json_escape(s));
            }
            None => out.push_str("  \"schema\": null,\n"),
        }
        out.push_str("  \"diagnostics\": [\n");
        let sorted = self.sorted();
        for (i, d) in sorted.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"code\": \"{}\", \"kind\": \"{}\", \"severity\": \"{}\", ",
                d.code.as_str(),
                d.code.kind(),
                d.severity.label()
            );
            match &d.rule {
                Some(r) => {
                    let _ = write!(out, "\"rule\": \"{}\", ", json_escape(r));
                }
                None => out.push_str("\"rule\": null, "),
            }
            match d.line {
                Some(l) => {
                    let _ = write!(out, "\"line\": {l}, ");
                }
                None => out.push_str("\"line\": null, "),
            }
            match d.col {
                Some(c) => {
                    let _ = write!(out, "\"col\": {c}, ");
                }
                None => out.push_str("\"col\": null, "),
            }
            let _ = write!(out, "\"message\": \"{}\"", json_escape(&d.message));
            if let Some(note) = &d.note {
                let _ = write!(out, ", \"note\": \"{}\"", json_escape(note));
            }
            out.push('}');
            if i + 1 < sorted.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        let _ = write!(
            out,
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"infos\": {}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        if let Some(a) = &self.audit {
            let backends: Vec<String> =
                a.backends.iter().map(|b| format!("\"{}\"", json_escape(b))).collect();
            let _ = write!(
                out,
                ",\n  \"audit\": {{\"updates\": {}, \"selected\": {}, \"affected\": {}, \
                 \"missed\": {}, \"divergences\": {}, \"sign_mismatches\": {}, \
                 \"precision\": {:.4}, \"dynamic\": {}, \"sound\": {}, \"backends\": [{}]}}",
                a.updates,
                a.selected_total,
                a.affected_total,
                a.missed,
                a.divergences,
                a.sign_mismatches,
                a.precision(),
                a.dynamic,
                a.sound(),
                backends.join(", "),
            );
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            policy_name: "p.pol".into(),
            schema_name: Some("s.dtd".into()),
            diagnostics: vec![
                Diagnostic::new(Code::DeadRule, Severity::Error, "dead \"rule\"")
                    .for_rule("R1")
                    .at_line(Some(3)),
                Diagnostic::new(Code::Conflict, Severity::Info, "overlap"),
            ],
            audit: Some(AuditSummary {
                updates: 4,
                selected_total: 6,
                affected_total: 4,
                backends: vec!["native/xml".into()],
                dynamic: true,
                ..AuditSummary::default()
            }),
        }
    }

    #[test]
    fn exit_codes_gate_by_severity() {
        let mut r = sample();
        assert_eq!(r.exit_code(false), 5, "errors always gate");
        r.diagnostics[0].severity = Severity::Warning;
        assert_eq!(r.exit_code(false), 0, "warnings pass by default");
        assert_eq!(r.exit_code(true), 6, "warnings gate under deny");
        r.diagnostics[0].severity = Severity::Info;
        assert_eq!(r.exit_code(true), 0, "info never gates");
    }

    #[test]
    fn errors_beat_warnings_regardless_of_order() {
        // With both present, the error path must win deterministically
        // under `--deny warn` — whichever order the passes emitted them.
        let mut r = sample();
        r.diagnostics.push(
            Diagnostic::new(Code::ShadowedRule, Severity::Warning, "shadowed")
                .for_rule("R0")
                .at_line(Some(1)),
        );
        assert_eq!(r.exit_code(true), 5);
        r.diagnostics.reverse();
        assert_eq!(r.exit_code(true), 5);
    }

    #[test]
    fn rendering_orders_by_span_then_code() {
        let mut r = sample();
        r.diagnostics = vec![
            Diagnostic::new(Code::CoverageGap, Severity::Info, "gap"),
            Diagnostic::new(Code::Conflict, Severity::Info, "late")
                .for_rule("R7")
                .at_line(Some(9)),
            Diagnostic::new(Code::Conflict, Severity::Info, "precise")
                .for_rule("R4")
                .at_line(Some(4))
                .at_col(Some(19)),
            Diagnostic::new(Code::ShadowedRule, Severity::Warning, "shadowed")
                .for_rule("R4")
                .at_line(Some(4)),
        ];
        let order: Vec<&str> = r.sorted().iter().map(|d| d.message.as_str()).collect();
        // Line 4 first (col-anchored before col-less on the same line),
        // then line 9, then the unanchored gap last.
        assert_eq!(order, vec!["precise", "shadowed", "late", "gap"]);
        let text = r.to_text();
        assert!(
            text.contains("info[XA003] p.pol:4:19 rule R4: precise"),
            "line:col rendering: {text}"
        );
        let first = text.lines().next().unwrap();
        assert!(first.contains("precise"), "{text}");
    }

    #[test]
    fn text_mentions_code_line_and_rule() {
        let text = sample().to_text();
        assert!(text.contains("error[XA001] p.pol:3 rule R1: dead \"rule\""), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn json_is_valid_and_escaped() {
        let json = sample().to_json();
        xac_obs::validate_json(&json).expect("report JSON must validate");
        assert!(json.contains("\\\"rule\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"precision\": 1.5000"), "{json}");
    }

    #[test]
    fn audit_precision_handles_zero_affected() {
        let a = AuditSummary { updates: 1, selected_total: 3, ..AuditSummary::default() };
        assert_eq!(a.precision(), 1.0);
        assert!(a.sound());
    }
}
