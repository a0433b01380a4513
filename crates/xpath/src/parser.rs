//! Recursive-descent parser for the abbreviated syntax of the fragment.
//!
//! Accepted forms (examples from the paper's Table 1):
//!
//! * `//patient`, `/hospital/dept`, `//patient/name`
//! * `//patient[treatment]`, `//patient[.//experimental]`
//! * `//regular[med = "celecoxib"]`, `//regular[bill > 1000]`
//! * conjunctions: `//a[b and c/d]`, nesting: `//a[b[c]]`

use crate::ast::{Axis, CmpOp, NodeTest, Path, Qualifier, Step};
use crate::error::{Error, Result};

/// Parse an XPath expression. Absolute expressions start with `/` or `//`;
/// anything else parses as a relative path (useful for tests and for the
/// qualifier sub-language).
pub fn parse(input: &str) -> Result<Path> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let path = p.parse_path()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after path"));
    }
    Ok(path)
}

/// Parse a top-level path: a policy rule's resource, a user request, or
/// an update target. The fragment (§2.2) evaluates these from the
/// document root, so a relative path (`patient`, `.//patient`, `.`) is
/// rejected here with a parse error instead of reaching an evaluator
/// that has no context node to start from.
pub fn parse_absolute(input: &str) -> Result<Path> {
    let path = parse(input)?;
    if !path.absolute {
        return Err(Error::parse(0, format!("path `{}` must be absolute", input.trim())));
    }
    Ok(path)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::parse(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_path(&mut self) -> Result<Path> {
        if self.starts_with("//") {
            self.bump(2);
            let steps = self.parse_steps(Axis::Descendant)?;
            Ok(Path::absolute(steps))
        } else if self.starts_with("/") {
            self.bump(1);
            let steps = self.parse_steps(Axis::Child)?;
            Ok(Path::absolute(steps))
        } else if self.starts_with(".") {
            self.bump(1);
            if self.starts_with("//") {
                self.bump(2);
                let steps = self.parse_steps(Axis::Descendant)?;
                Ok(Path::relative(steps))
            } else if self.starts_with("/") {
                self.bump(1);
                let steps = self.parse_steps(Axis::Child)?;
                Ok(Path::relative(steps))
            } else {
                Ok(Path::self_path())
            }
        } else {
            let steps = self.parse_steps(Axis::Child)?;
            Ok(Path::relative(steps))
        }
    }

    fn parse_steps(&mut self, first_axis: Axis) -> Result<Vec<Step>> {
        let mut steps = vec![self.parse_step(first_axis)?];
        loop {
            if self.starts_with("//") {
                self.bump(2);
                steps.push(self.parse_step(Axis::Descendant)?);
            } else if self.starts_with("/") {
                self.bump(1);
                steps.push(self.parse_step(Axis::Child)?);
            } else {
                return Ok(steps);
            }
        }
    }

    fn parse_step(&mut self, axis: Axis) -> Result<Step> {
        let test = if self.starts_with("*") {
            self.bump(1);
            NodeTest::Wildcard
        } else {
            NodeTest::Name(self.parse_name()?.to_string())
        };
        let mut step = Step::new(axis, test);
        loop {
            self.skip_ws_in_predicates();
            if !self.starts_with("[") {
                return Ok(step);
            }
            self.bump(1);
            let q = self.parse_qualifier()?;
            self.skip_ws();
            if !self.starts_with("]") {
                return Err(self.err("expected `]`"));
            }
            self.bump(1);
            step.predicates.push(q);
        }
    }

    /// Whitespace is insignificant before `[` only when a predicate indeed
    /// follows; peek without consuming.
    fn skip_ws_in_predicates(&mut self) {
        let save = self.pos;
        self.skip_ws();
        if !self.starts_with("[") {
            self.pos = save;
        }
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.');
            // `.` participates in names only when not starting one and not
            // followed by `/` (so `a.b` is a name but `.//x` is an axis).
            if !ok {
                break;
            }
            if b == b'.' && (self.pos == start || self.input[self.pos..].starts_with(".//")) {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name or `*`"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_qualifier(&mut self) -> Result<Qualifier> {
        let mut terms = vec![self.parse_term()?];
        loop {
            let save = self.pos;
            self.skip_ws();
            if self.starts_with("and")
                && !self
                    .input
                    .as_bytes()
                    .get(self.pos + 3)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
            {
                self.bump(3);
                self.skip_ws();
                terms.push(self.parse_term()?);
            } else {
                self.pos = save;
                break;
            }
        }
        if terms.len() == 1 {
            Ok(terms.pop().expect("one term"))
        } else {
            Ok(Qualifier::And(terms))
        }
    }

    fn parse_term(&mut self) -> Result<Qualifier> {
        self.skip_ws();
        let path = self.parse_path()?;
        if path.absolute {
            return Err(self.err("absolute paths are not allowed inside qualifiers"));
        }
        let save = self.pos;
        self.skip_ws();
        let op = if self.starts_with("!=") {
            self.bump(2);
            Some(CmpOp::Ne)
        } else if self.starts_with("<=") {
            self.bump(2);
            Some(CmpOp::Le)
        } else if self.starts_with(">=") {
            self.bump(2);
            Some(CmpOp::Ge)
        } else if self.starts_with("=") {
            self.bump(1);
            Some(CmpOp::Eq)
        } else if self.starts_with("<") {
            self.bump(1);
            Some(CmpOp::Lt)
        } else if self.starts_with(">") {
            self.bump(1);
            Some(CmpOp::Gt)
        } else {
            None
        };
        match op {
            None => {
                self.pos = save;
                Ok(Qualifier::Exists(path))
            }
            Some(op) => {
                self.skip_ws();
                let value = self.parse_literal()?;
                Ok(Qualifier::Cmp(path, op, value))
            }
        }
    }

    fn parse_literal(&mut self) -> Result<String> {
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump(1);
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == q {
                        let s = self.input[start..self.pos].to_string();
                        self.bump(1);
                        return Ok(s);
                    }
                    self.pos += 1;
                }
                Err(self.err("unterminated string literal"))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                if b == b'-' {
                    self.bump(1);
                }
                while let Some(b) = self.peek() {
                    if b.is_ascii_digit() || b == b'.' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let s = &self.input[start..self.pos];
                if s.parse::<f64>().is_err() {
                    return Err(self.err(format!("invalid numeric literal `{s}`")));
                }
                Ok(s.to_string())
            }
            _ => Err(self.err("expected a string or numeric literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let p = parse(src).unwrap();
        assert_eq!(p.to_string(), src, "display must round-trip");
        let again = parse(&p.to_string()).unwrap();
        assert_eq!(p, again, "reparse must be stable");
    }

    #[test]
    fn parses_paper_rules() {
        // Every resource expression of Table 1.
        roundtrip("//patient");
        roundtrip("//patient/name");
        roundtrip("//patient[treatment]");
        roundtrip("//patient[treatment]/name");
        roundtrip("//patient[.//experimental]");
        roundtrip("//regular");
        roundtrip("//regular[med = \"celecoxib\"]");
        roundtrip("//regular[bill > 1000]");
    }

    #[test]
    fn parse_absolute_rejects_relative_paths() {
        assert!(parse_absolute("//patient").unwrap().absolute);
        assert!(parse_absolute(" /hospital/dept ").unwrap().absolute);
        for src in ["patient", "hospital/dept", ".//patient", "./patient", "."] {
            assert!(parse(src).is_ok(), "`{src}` is in the fragment");
            match parse_absolute(src) {
                Err(Error::Parse { message, .. }) => {
                    assert!(message.contains("must be absolute"), "{src}: {message}")
                }
                other => panic!("{src}: expected a parse error, got {other:?}"),
            }
        }
        assert!(parse_absolute("//bad[").is_err());
    }

    #[test]
    fn parses_absolute_child_paths() {
        let p = parse("/hospital/dept/patients").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 3);
        assert!(p.steps.iter().all(|s| s.axis == Axis::Child));
        roundtrip("/hospital/dept/patients");
    }

    #[test]
    fn parses_mixed_axes_and_wildcards() {
        let p = parse("/a//b/*//c").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[1].axis, Axis::Descendant);
        assert_eq!(p.steps[2].test, NodeTest::Wildcard);
        assert_eq!(p.steps[3].axis, Axis::Descendant);
        roundtrip("/a//b/*//c");
    }

    #[test]
    fn parses_conjunction_and_nesting() {
        let p = parse("//a[b and c/d]").unwrap();
        match &p.steps[0].predicates[0] {
            Qualifier::And(qs) => assert_eq!(qs.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        roundtrip("//a[b and c/d]");
        roundtrip("//a[b[c]]");
        roundtrip("//a[b][c]");
    }

    #[test]
    fn parses_relative_predicate_paths() {
        let p = parse("//patient[.//experimental]").unwrap();
        match &p.steps[0].predicates[0] {
            Qualifier::Exists(rel) => {
                assert!(!rel.absolute);
                assert_eq!(rel.steps[0].axis, Axis::Descendant);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_all_comparison_operators() {
        for (src, op) in [
            ("//a[b = 1]", CmpOp::Eq),
            ("//a[b != 1]", CmpOp::Ne),
            ("//a[b < 1]", CmpOp::Lt),
            ("//a[b <= 1]", CmpOp::Le),
            ("//a[b > 1]", CmpOp::Gt),
            ("//a[b >= 1]", CmpOp::Ge),
        ] {
            let p = parse(src).unwrap();
            match &p.steps[0].predicates[0] {
                Qualifier::Cmp(_, got, v) => {
                    assert_eq!(*got, op);
                    assert_eq!(v, "1");
                }
                other => panic!("unexpected {other:?}"),
            }
            roundtrip(src);
        }
    }

    #[test]
    fn parses_self_comparison() {
        let p = parse("//bill[. > 1000]").unwrap();
        match &p.steps[0].predicates[0] {
            Qualifier::Cmp(rel, CmpOp::Gt, v) => {
                assert!(rel.is_self());
                assert_eq!(v, "1000");
            }
            other => panic!("unexpected {other:?}"),
        }
        roundtrip("//bill[. > 1000]");
    }

    #[test]
    fn negative_numbers_and_quotes() {
        roundtrip("//a[b = -3.5]");
        let p = parse("//a[b = 'single']").unwrap();
        assert_eq!(p.to_string(), "//a[b = \"single\"]");
    }

    #[test]
    fn name_with_and_prefix_is_not_conjunction() {
        // `android` must not be split into `and` + `roid`.
        let p = parse("//a[android]").unwrap();
        match &p.steps[0].predicates[0] {
            Qualifier::Exists(rel) => assert_eq!(rel.to_string(), "android"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_paths() {
        assert!(parse("").is_err());
        assert!(parse("//").is_err());
        assert!(parse("//a[").is_err());
        assert!(parse("//a[]").is_err());
        assert!(parse("//a]").is_err());
        assert!(parse("//a[b=]").is_err());
        assert!(parse("//a[b='x]").is_err());
        assert!(parse("//a[/b]").is_err(), "absolute path in qualifier");
        assert!(parse("//a b").is_err(), "garbage after path");
        assert!(parse("//a[b or c]").is_err(), "`or` is outside the fragment");
    }
}
