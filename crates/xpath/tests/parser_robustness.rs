//! Robustness: the XPath parser must never panic — arbitrary input either
//! parses (and then round-trips) or returns a parse error.
//!
//! Seeded hand-rolled generators (no external crates): every run explores
//! the same inputs, and a failure message carries the seed-derived input
//! so it reproduces directly.

/// Seeded splitmix64 stream over the shared [`xac_obs::splitmix64`] step.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        xac_obs::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Printable-ish soup including XPath metacharacters and some unicode.
fn random_input(rng: &mut Rng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', '0', '7', '/', '*', '[', ']', '.', '=', '<', '>', '!', '"', '\'',
        ' ', '\t', '(', ')', '@', '-', '_', ',', '|', '&', '%', '€', 'λ', '→', '\\', '#',
    ];
    let len = rng.below(max_len + 1);
    (0..len).map(|_| POOL[rng.below(POOL.len())]).collect()
}

#[test]
fn arbitrary_input_never_panics() {
    let mut rng = Rng(0xA1);
    for _ in 0..512 {
        let input = random_input(&mut rng, 40);
        match xac_xpath::parse(&input) {
            Ok(path) => {
                // Whatever parsed must round-trip.
                let printed = path.to_string();
                let again = xac_xpath::parse(&printed)
                    .unwrap_or_else(|e| panic!("round-trip of `{input}` -> `{printed}`: {e}"));
                assert_eq!(path, again);
            }
            Err(xac_xpath::Error::Parse { offset, .. }) => {
                assert!(offset <= input.len(), "offset out of range for `{input}`");
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}

#[test]
fn fragment_soup_never_panics() {
    // Structured-ish garbage from path-flavoured fragments: higher parse
    // hit-rate, same invariants.
    const PARTS: &[&str] = &[
        "/", "//", "a", "bc", "*", "[", "]", ".", ".//", " and ",
        "= 5", "= \"x\"", ">", "<=", "!",
    ];
    let mut rng = Rng(0xA2);
    let mut parsed = 0usize;
    for _ in 0..512 {
        let n = rng.below(12);
        let input: String = (0..n).map(|_| PARTS[rng.below(PARTS.len())]).collect();
        if let Ok(path) = xac_xpath::parse(&input) {
            parsed += 1;
            let printed = path.to_string();
            let again = xac_xpath::parse(&printed).expect("display must re-parse");
            assert_eq!(path, again);
        }
    }
    assert!(parsed > 5, "soup generator should hit the parser sometimes ({parsed})");
}

// The XML parser under the same contract.

#[test]
fn xml_parser_never_panics() {
    let mut rng = Rng(0xB1);
    for _ in 0..512 {
        let input = random_input(&mut rng, 60);
        let _ = xac_xml::Document::parse_str(&input);
    }
}

#[test]
fn xml_fragment_soup_never_panics() {
    const PARTS: &[&str] = &[
        "<a>", "</a>", "<b/>", "text", "<", ">", "&amp;", "&bogus;",
        "<!--", "-->", "<?xml?>", "attr=\"v\"", "<a attr='v'>", "\"",
    ];
    let mut rng = Rng(0xB2);
    for _ in 0..512 {
        let n = rng.below(10);
        let input: String = (0..n).map(|_| PARTS[rng.below(PARTS.len())]).collect();
        if let Ok(doc) = xac_xml::Document::parse_str(&input) {
            // Anything that parses must serialize and re-parse.
            let xml = doc.to_xml();
            xac_xml::Document::parse_str(&xml).expect("serialized form re-parses");
        }
    }
}

// The DTD parser too.

#[test]
fn dtd_parser_never_panics() {
    let mut rng = Rng(0xC1);
    for _ in 0..256 {
        let input = random_input(&mut rng, 80);
        let _ = xac_xml::parse_dtd(&input);
    }
}

#[test]
fn dtd_fragment_soup_never_panics() {
    const PARTS: &[&str] = &[
        "<!ELEMENT ", "a ", "(b)", "(#PCDATA)", "EMPTY", ">", "(a, b?)",
        "(a | b)", "((", "*", "+",
    ];
    let mut rng = Rng(0xC2);
    for _ in 0..256 {
        let n = rng.below(8);
        let input: String = (0..n).map(|_| PARTS[rng.below(PARTS.len())]).collect();
        if let Ok(schema) = xac_xml::parse_dtd(&input) {
            let rendered = schema.to_dtd_string();
            xac_xml::parse_dtd(&rendered).expect("rendered DTD re-parses");
        }
    }
}
