//! A small, strict XML parser covering the subset the xmlac system uses:
//! one root element, nested elements with attributes, character data,
//! comments, an optional XML declaration, and the five predefined entities.
//!
//! Whitespace-only text between elements is dropped: the paper's tree model
//! (§2.1) labels nodes with element names and *data values*, so indentation
//! has no counterpart in the model.

use crate::error::{Error, Result};
use crate::model::{Document, NodeId};
use std::borrow::Cow;

/// Parse an XML string into a [`Document`].
pub fn parse(input: &str) -> Result<Document> {
    Parser::new(input).parse_document()
}

impl Document {
    /// Parse an XML string. See [`parse`].
    pub fn parse_str(input: &str) -> Result<Document> {
        parse(input)
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::parse(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                let end = self.input[self.pos..]
                    .find("?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.bump(end + 2);
            } else if self.starts_with("<!--") {
                let end = self.input[self.pos..]
                    .find("-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.bump(end + 3);
            } else if self.starts_with("<!DOCTYPE") {
                // Skip a (non-nested) DOCTYPE declaration.
                let end = self.input[self.pos..]
                    .find('>')
                    .ok_or_else(|| self.err("unterminated DOCTYPE"))?;
                self.bump(end + 1);
            } else {
                return Ok(());
            }
        }
    }

    fn parse_document(&mut self) -> Result<Document> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        let doc = self.parse_root()?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after root element"));
        }
        Ok(doc)
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parse the root element and build the document around it.
    fn parse_root(&mut self) -> Result<Document> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut doc = Document::new(name);
        let root = doc.root();
        self.parse_attributes(&mut doc, root)?;
        self.skip_ws();
        if self.starts_with("/>") {
            self.bump(2);
            return Ok(doc);
        }
        self.expect(">")?;
        self.parse_content(&mut doc, root)?;
        self.parse_close_tag(name)?;
        Ok(doc)
    }

    fn parse_attributes(&mut self, doc: &mut Document, node: NodeId) -> Result<()> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(()),
                _ => {}
            }
            let name = self.parse_name()?.to_string();
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.bump(1);
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == quote {
                    break;
                }
                self.pos += 1;
            }
            if self.peek() != Some(quote) {
                return Err(self.err("unterminated attribute value"));
            }
            let raw = &self.input[start..self.pos];
            self.bump(1);
            doc.set_attribute(node, name, decode_entities(raw, start)?.into_owned());
        }
    }

    fn parse_element(&mut self, doc: &mut Document, parent: NodeId) -> Result<()> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let node = doc.add_element_named(parent, name);
        self.parse_attributes(doc, node)?;
        self.skip_ws();
        if self.starts_with("/>") {
            self.bump(2);
            return Ok(());
        }
        self.expect(">")?;
        self.parse_content(doc, node)?;
        self.parse_close_tag(name)
    }

    fn parse_close_tag(&mut self, name: &str) -> Result<()> {
        self.expect("</")?;
        let close = self.parse_name()?;
        if close != name {
            return Err(self.err(format!("mismatched close tag: expected `{name}`, found `{close}`")));
        }
        self.skip_ws();
        self.expect(">")
    }

    fn parse_content(&mut self, doc: &mut Document, parent: NodeId) -> Result<()> {
        loop {
            if self.starts_with("</") {
                return Ok(());
            }
            if self.starts_with("<!--") {
                let end = self.input[self.pos..]
                    .find("-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.bump(end + 3);
                continue;
            }
            match self.peek() {
                None => return Err(self.err("unexpected end of input inside element")),
                Some(b'<') => self.parse_element(doc, parent)?,
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = &self.input[start..self.pos];
                    let text = decode_entities(raw, start)?;
                    if !text.trim().is_empty() {
                        doc.add_text_value(parent, text.trim());
                    }
                }
            }
        }
    }
}

fn decode_entities(raw: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| Error::parse(offset, "unterminated entity reference"))?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                return Err(Error::parse(offset, format!("unknown entity `&{other};`")));
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let d = parse("<a><b>hi</b><c/></a>").unwrap();
        let root = d.root();
        assert_eq!(d.name(root), Some("a"));
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.name(kids[0]), Some("b"));
        assert_eq!(d.text_of(kids[0]), "hi");
        assert_eq!(d.name(kids[1]), Some("c"));
    }

    #[test]
    fn parses_attributes_and_entities() {
        let d = parse(r#"<a sign="+" note='x&amp;y'><b>1 &lt; 2</b></a>"#).unwrap();
        let root = d.root();
        assert_eq!(d.attribute(root, "sign"), Some("+"));
        assert_eq!(d.attribute(root, "note"), Some("x&y"));
        let b = d.first_child_named(root, "b").unwrap();
        assert_eq!(d.text_of(b), "1 < 2");
    }

    #[test]
    fn skips_prolog_comments_doctype() {
        let d = parse("<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a><!-- inner --><b/></a>")
            .unwrap();
        assert_eq!(d.children(d.root()).count(), 1);
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = parse("<a>\n  <b> x </b>\n</a>").unwrap();
        let root = d.root();
        assert_eq!(d.children(root).count(), 1);
        let b = d.first_child_named(root, "b").unwrap();
        assert_eq!(d.text_of(b), "x");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("<a><b></a></b>").is_err(), "mismatched tags");
        assert!(parse("<a>").is_err(), "unterminated element");
        assert!(parse("<a/><b/>").is_err(), "two roots");
        assert!(parse("plain").is_err(), "no element");
        assert!(parse("<a attr=unquoted/>").is_err(), "unquoted attribute");
        assert!(parse("<a>&bogus;</a>").is_err(), "unknown entity");
    }

    #[test]
    fn self_closing_root() {
        let d = parse("<lonely/>").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.name(d.root()), Some("lonely"));
    }
}
