//! The diagnostics core: stable `HP0xx` codes, severities, source spans,
//! and a terminal renderer with source excerpts.
//!
//! Every diagnostic the analyzer emits carries one of the codes below.
//! Codes are *stable*: tests, CI greps, and downstream tooling key on them,
//! so a code is never reused for a different condition.

use std::fmt;

use hp_datalog::{DatalogError, DatalogErrorKind, DatalogSpan};
use hp_logic::ParseError;

use crate::json::Json;

/// A stable diagnostic code. The numeric part never changes meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Code {
    /// Datalog syntax error (malformed atom, bad name, unbalanced parens).
    Hp001,
    /// Body predicate is neither an IDB nor in the EDB vocabulary.
    Hp002,
    /// Predicate used with the wrong number of arguments.
    Hp003,
    /// Unsafe rule: a head variable does not occur in the body (§2.3
    /// range restriction).
    Hp004,
    /// Rule head is not an IDB predicate.
    Hp005,
    /// IDB predicate is neither the goal nor used in any rule body.
    Hp006,
    /// Rule cannot contribute to the goal predicate (dead rule).
    Hp007,
    /// Recursion classification (nonrecursive / linear / general).
    Hp008,
    /// Datalog(k) membership: total distinct-variable count and the
    /// treewidth < k correspondence of Theorem 7.1.
    Hp009,
    /// Formula is not existential-positive, so preservation under
    /// homomorphisms is not syntactically guaranteed (Theorem 2.2).
    Hp010,
    /// First-order formula syntax error.
    Hp011,
    /// Treewidth upper bound for a CQ / UCQ canonical structure or a
    /// rule body.
    Hp012,
    /// Rule is a syntactic duplicate of an earlier rule.
    Hp013,
    /// Program certified bounded at stage `s` within the analysis budget:
    /// by Theorem 7.5 it is equivalent to its stage-`s` UCQ unfolding, so
    /// any recursion it contains is unnecessary.
    Hp014,
    /// IDB predicate is guaranteed empty on every input structure (its
    /// rules can never fire, on any EDB).
    Hp015,
    /// Per-SCC recursion-width classification of the predicate dependency
    /// graph (refines the whole-program HP008 class).
    Hp016,
    /// Redundant body atom: the rule body folds onto itself without the
    /// atom (Chandra–Merlin core minimization), so deleting it never
    /// changes the rule's derivations.
    Hp017,
    /// Subsumed rule / UCQ disjunct: another rule (disjunct) for the same
    /// head is contained in this one, so this one derives nothing new.
    Hp018,
    /// Two nonrecursive IDB predicates compute homomorphically equivalent
    /// queries (identical canonical cores).
    Hp019,
    /// Cross join: the canonical structure of a rule body splits into
    /// connected components not linked through head variables.
    Hp020,
    /// Inline `# eval:` expectation failed (or is malformed).
    Hp021,
    /// Program is not stratifiable: an IDB predicate depends on itself
    /// through a negated occurrence, so the stratified semantics is
    /// undefined and evaluation refuses the program.
    Hp022,
    /// Unsafe negation: a variable of a negated body literal is not bound
    /// by any positive body atom (negation range restriction).
    Hp023,
    /// Stratum report: the stratification depth and the per-stratum
    /// predicate layering of a program with negation (refines
    /// HP008/HP016, which classify the positive dependency structure).
    Hp024,
}

impl Code {
    /// Every code, in numeric order (for the documentation table).
    pub const ALL: [Code; 24] = [
        Code::Hp001,
        Code::Hp002,
        Code::Hp003,
        Code::Hp004,
        Code::Hp005,
        Code::Hp006,
        Code::Hp007,
        Code::Hp008,
        Code::Hp009,
        Code::Hp010,
        Code::Hp011,
        Code::Hp012,
        Code::Hp013,
        Code::Hp014,
        Code::Hp015,
        Code::Hp016,
        Code::Hp017,
        Code::Hp018,
        Code::Hp019,
        Code::Hp020,
        Code::Hp021,
        Code::Hp022,
        Code::Hp023,
        Code::Hp024,
    ];

    /// The stable textual form, e.g. `"HP004"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Hp001 => "HP001",
            Code::Hp002 => "HP002",
            Code::Hp003 => "HP003",
            Code::Hp004 => "HP004",
            Code::Hp005 => "HP005",
            Code::Hp006 => "HP006",
            Code::Hp007 => "HP007",
            Code::Hp008 => "HP008",
            Code::Hp009 => "HP009",
            Code::Hp010 => "HP010",
            Code::Hp011 => "HP011",
            Code::Hp012 => "HP012",
            Code::Hp013 => "HP013",
            Code::Hp014 => "HP014",
            Code::Hp015 => "HP015",
            Code::Hp016 => "HP016",
            Code::Hp017 => "HP017",
            Code::Hp018 => "HP018",
            Code::Hp019 => "HP019",
            Code::Hp020 => "HP020",
            Code::Hp021 => "HP021",
            Code::Hp022 => "HP022",
            Code::Hp023 => "HP023",
            Code::Hp024 => "HP024",
        }
    }

    /// One-line summary used in the documentation table.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Hp001 => "Datalog syntax error",
            Code::Hp002 => "unknown EDB predicate",
            Code::Hp003 => "predicate arity mismatch",
            Code::Hp004 => "unsafe rule (range restriction violated)",
            Code::Hp005 => "rule head is not an IDB",
            Code::Hp006 => "unused IDB predicate",
            Code::Hp007 => "rule cannot contribute to the goal",
            Code::Hp008 => "recursion classification",
            Code::Hp009 => "Datalog(k) membership / variable budget",
            Code::Hp010 => "formula is not existential-positive",
            Code::Hp011 => "formula syntax error",
            Code::Hp012 => "treewidth upper bound",
            Code::Hp013 => "duplicate rule",
            Code::Hp014 => "certified bounded — UCQ-equivalent (Thm 7.5), recursion unnecessary",
            Code::Hp015 => "IDB is guaranteed empty on every input",
            Code::Hp016 => "per-SCC recursion width",
            Code::Hp017 => "redundant body atom (folds away under core minimization)",
            Code::Hp018 => "subsumed rule or UCQ disjunct",
            Code::Hp019 => "homomorphically equivalent queries in one file",
            Code::Hp020 => "cross join: body components unlinked by head variables",
            Code::Hp021 => "inline eval expectation failed",
            Code::Hp022 => "unstratifiable: cycle through negation",
            Code::Hp023 => "unsafe negation (negated variable unbound by positive atoms)",
            Code::Hp024 => "stratum report (stratification depth and layering)",
        }
    }

    /// The severity this code is reported at.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::Hp001 | Code::Hp002 | Code::Hp003 | Code::Hp004 | Code::Hp005 => Severity::Error,
            Code::Hp006 | Code::Hp007 | Code::Hp013 | Code::Hp014 | Code::Hp015 => {
                Severity::Warning
            }
            Code::Hp008 | Code::Hp009 | Code::Hp012 | Code::Hp016 => Severity::Note,
            Code::Hp010 | Code::Hp011 => Severity::Error,
            Code::Hp017 | Code::Hp018 | Code::Hp019 | Code::Hp020 => Severity::Warning,
            Code::Hp021 | Code::Hp022 | Code::Hp023 => Severity::Error,
            Code::Hp024 => Severity::Note,
        }
    }

    /// The code a structured [`DatalogError`] maps onto.
    pub fn of_datalog(kind: &DatalogErrorKind) -> Code {
        match kind {
            DatalogErrorKind::MalformedAtom { .. }
            | DatalogErrorKind::BadPredicateName { .. }
            | DatalogErrorKind::BadVariableName { .. }
            | DatalogErrorKind::UnbalancedParens => Code::Hp001,
            DatalogErrorKind::UnknownEdb { .. } => Code::Hp002,
            DatalogErrorKind::IdbArityConflict { .. } | DatalogErrorKind::ArityMismatch { .. } => {
                Code::Hp003
            }
            DatalogErrorKind::UnsafeRule { .. } => Code::Hp004,
            DatalogErrorKind::HeadNotIdb => Code::Hp005,
            DatalogErrorKind::BadGoalPragma { .. } | DatalogErrorKind::UnknownGoal { .. } => {
                Code::Hp001
            }
            DatalogErrorKind::UnstratifiableNegation { .. } => Code::Hp022,
            // A negated head is a (negation-)safety violation like an
            // unbound negated variable: both break range restriction.
            DatalogErrorKind::NegatedHead | DatalogErrorKind::UnsafeNegation { .. } => Code::Hp023,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Severity {
    /// Informational — the analysis has something to say, not to complain
    /// about.
    Note,
    /// Suspicious but not invalid.
    Warning,
    /// The input is rejected.
    Error,
}

impl Severity {
    /// Lower-case label used by the renderer.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a diagnostic points: a 1-based source line (with optional 1-based
/// column for formula inputs) and/or a 0-based rule index.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// 1-based source line, when the input came from text.
    pub line: Option<usize>,
    /// 1-based column, when known (formula parse errors).
    pub col: Option<usize>,
    /// 0-based rule index, for Datalog inputs.
    pub rule: Option<usize>,
    /// 0-based body-atom index within the rule, for atom-level findings
    /// (HP017).
    pub atom: Option<usize>,
}

impl Span {
    /// A span pointing at a rule index.
    pub fn rule(rule: usize) -> Span {
        Span {
            rule: Some(rule),
            ..Span::default()
        }
    }

    /// A span pointing at one body atom of a rule.
    pub fn rule_atom(rule: usize, atom: usize) -> Span {
        Span {
            rule: Some(rule),
            atom: Some(atom),
            ..Span::default()
        }
    }

    /// A span pointing at a source line.
    pub fn line(line: usize) -> Span {
        Span {
            line: Some(line),
            ..Span::default()
        }
    }
}

impl From<DatalogSpan> for Span {
    fn from(s: DatalogSpan) -> Span {
        Span {
            line: s.line,
            col: None,
            rule: s.rule,
            atom: None,
        }
    }
}

/// A single finding: code, severity, human message, and position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Error / Warning / Note.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Where it points.
    pub span: Span,
}

impl Diagnostic {
    /// Build a diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span,
        }
    }

    /// Map a structured Datalog parse/validation error onto its code.
    pub fn from_datalog(e: &DatalogError) -> Diagnostic {
        Diagnostic::new(Code::of_datalog(&e.kind), e.kind_message(), e.span.into())
    }

    /// Map a first-order formula parse error onto HP011, translating the
    /// byte offset into a 1-based line/column pair against `source`.
    /// Errors at end-of-input back up over trailing whitespace so they
    /// point at the line where text actually stops.
    pub fn from_formula_parse(e: &ParseError, source: &str) -> Diagnostic {
        let offset = e.offset.min(source.len()).min(source.trim_end().len());
        let (line, col) = line_col(source, offset);
        Diagnostic::new(
            Code::Hp011,
            e.message.clone(),
            Span {
                line: Some(line),
                col: Some(col),
                rule: None,
                atom: None,
            },
        )
    }

    /// The diagnostic as a JSON object (see [`Diagnostics::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code.as_str().into()),
            ("severity", self.severity.label().into()),
            ("message", self.message.as_str().into()),
            ("line", self.span.line.into()),
            ("col", self.span.col.into()),
            ("rule", self.span.rule.into()),
            ("atom", self.span.atom.into()),
        ])
    }
}

/// 1-based (line, column) of a byte offset in `source`.
fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(source.len());
    let before = &source[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = before.rfind('\n').map(|p| offset - p).unwrap_or(offset + 1);
    (line, col)
}

/// Extension trait rendering a [`DatalogError`]'s kind without its span
/// prefix (the diagnostic carries the span separately).
trait KindMessage {
    fn kind_message(&self) -> String;
}

impl KindMessage for DatalogError {
    fn kind_message(&self) -> String {
        // `DatalogError`'s Display prefixes the span; strip it by
        // formatting a copy with the span cleared.
        let mut e = self.clone();
        e.span = DatalogSpan::default();
        e.to_string()
    }
}

/// An ordered collection of diagnostics with counting and rendering.
#[derive(Clone, Debug, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Append one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Append all diagnostics from another collection.
    pub fn extend_from(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Iterate the diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, s: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == s).count()
    }

    /// True when any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True when some diagnostic carries the given code.
    pub fn contains(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Append `suffix` to the message of the first diagnostic carrying
    /// `code`; returns whether one was found. Used by `hompres-lint` to
    /// enrich a structural note with information only the driver has
    /// (today: measured per-stratum cost on the HP024 stratum report).
    pub fn amend(&mut self, code: Code, suffix: &str) -> bool {
        match self.items.iter_mut().find(|d| d.code == code) {
            Some(d) => {
                d.message.push_str(suffix);
                true
            }
            None => false,
        }
    }

    /// Sort by (line, rule, atom, code) so output order follows the
    /// source.
    pub fn sort(&mut self) {
        self.items
            .sort_by_key(|d| (d.span.line, d.span.rule, d.span.atom, d.code));
    }

    /// Render for a terminal. `source` (when available) supplies the
    /// excerpt lines; `name` labels the input (a file path, or a gallery
    /// program name).
    pub fn render(&self, name: &str, source: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&format!(
                "{}[{}]: {}\n",
                d.severity.label(),
                d.code,
                d.message
            ));
            let mut loc = format!("  --> {name}");
            if let Some(l) = d.span.line {
                loc.push_str(&format!(":{l}"));
                if let Some(c) = d.span.col {
                    loc.push_str(&format!(":{c}"));
                }
            }
            if let Some(r) = d.span.rule {
                loc.push_str(&format!(" (rule {r})"));
            }
            out.push_str(&loc);
            out.push('\n');
            if let (Some(line), Some(src)) = (d.span.line, source) {
                if let Some(text) = src.lines().nth(line - 1) {
                    let gutter = line.to_string().len().max(2);
                    out.push_str(&format!("{:>gutter$} |\n", ""));
                    out.push_str(&format!("{line:>gutter$} | {text}\n"));
                    if let Some(col) = d.span.col {
                        out.push_str(&format!("{:>gutter$} | {:>col$}\n", "", "^"));
                    } else {
                        out.push_str(&format!("{:>gutter$} |\n", ""));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// The diagnostics as a JSON object for machine consumption
    /// (`hompres-lint --format json`):
    ///
    /// ```json
    /// {"input": "f.dl",
    ///  "diagnostics": [{"code": "HP007", "severity": "warning",
    ///                   "message": "...", "line": 3, "col": null,
    ///                   "rule": 2, "atom": null}],
    ///  "errors": 0, "warnings": 1, "notes": 0}
    /// ```
    pub fn to_json(&self, input: &str) -> Json {
        Json::obj([
            ("input", input.into()),
            (
                "diagnostics",
                Json::Arr(self.items.iter().map(Diagnostic::to_json).collect()),
            ),
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warning).into()),
            ("notes", self.count(Severity::Note).into()),
        ])
    }

    /// One-line totals, e.g. `2 errors, 1 warning, 3 notes`.
    pub fn totals(&self) -> String {
        let plural = |n: usize, w: &str| {
            if n == 1 {
                format!("1 {w}")
            } else {
                format!("{n} {w}s")
            }
        };
        format!(
            "{}, {}, {}",
            plural(self.count(Severity::Error), "error"),
            plural(self.count(Severity::Warning), "warning"),
            plural(self.count(Severity::Note), "note")
        )
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(
            Code::Hp007,
            "rule for \"U\" can be\nremoved",
            Span {
                line: Some(3),
                col: None,
                rule: Some(2),
                atom: None,
            },
        ));
        let text = ds.to_json("dir/it's.dl").to_string();
        assert!(text.contains(r#"\"U\" can be\nremoved"#), "{text}");
        let j = crate::json::parse(&text).expect("rendered JSON parses");
        let Json::Obj(fields) = &j else {
            panic!("not an object: {text}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["input", "diagnostics", "errors", "warnings", "notes"]
        );
        assert_eq!(j.get("input").and_then(Json::as_str), Some("dir/it's.dl"));
        let count = |k| j.get(k).and_then(Json::as_u64);
        assert_eq!(
            (count("errors"), count("warnings"), count("notes")),
            (Some(0), Some(1), Some(0))
        );
        let want = Json::obj([
            ("code", "HP007".into()),
            ("severity", "warning".into()),
            ("message", "rule for \"U\" can be\nremoved".into()),
            ("line", 3usize.into()),
            ("col", Json::Null),
            ("rule", 2usize.into()),
            ("atom", Json::Null),
        ]);
        assert_eq!(
            j.get("diagnostics").and_then(Json::as_arr),
            Some(&[want][..])
        );
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Hp001.as_str(), "HP001");
        assert_eq!(Code::Hp024.as_str(), "HP024");
        assert_eq!(Code::ALL.len(), 24);
        for (i, c) in Code::ALL.iter().enumerate() {
            assert_eq!(c.as_str(), format!("HP{:03}", i + 1));
        }
    }

    #[test]
    fn datalog_error_mapping() {
        assert_eq!(
            Code::of_datalog(&DatalogErrorKind::UnsafeRule {
                var: "y".to_string()
            }),
            Code::Hp004
        );
        assert_eq!(Code::of_datalog(&DatalogErrorKind::HeadNotIdb), Code::Hp005);
        assert_eq!(
            Code::of_datalog(&DatalogErrorKind::UnknownEdb {
                name: "F".to_string()
            }),
            Code::Hp002
        );
    }

    #[test]
    fn line_col_from_offset() {
        let src = "ab\ncde\nf";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 1), (1, 2));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 5), (2, 3));
        assert_eq!(line_col(src, 7), (3, 1));
        // Past-the-end offsets clamp.
        assert_eq!(line_col(src, 99), (3, 2));
    }

    #[test]
    fn render_includes_excerpt_and_code() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(
            Code::Hp004,
            "unsafe rule (head variable q not in body)",
            Span {
                line: Some(2),
                col: None,
                rule: Some(1),
                atom: None,
            },
        ));
        let r = ds.render("demo.dl", Some("T(x,y) :- E(x,y).\nT(x,q) :- E(x,x)."));
        assert!(r.contains("error[HP004]"), "{r}");
        assert!(r.contains("demo.dl:2 (rule 1)"), "{r}");
        assert!(r.contains("T(x,q) :- E(x,x)."), "{r}");
    }

    #[test]
    fn totals_pluralize() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(Code::Hp004, "x", Span::default()));
        ds.push(Diagnostic::new(Code::Hp008, "y", Span::default()));
        ds.push(Diagnostic::new(Code::Hp009, "z", Span::default()));
        assert_eq!(ds.totals(), "1 error, 0 warnings, 2 notes");
        assert!(ds.has_errors());
        assert_eq!(ds.count(Severity::Note), 2);
    }
}
