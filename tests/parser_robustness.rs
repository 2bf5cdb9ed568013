//! Robustness properties: every hand-written parser in the system must
//! return `Ok` or `Err` on arbitrary input — never panic, hang, or blow the
//! stack. (The wrappers parse *external* data; §2.2's whole point is that
//! source formats are outside STRUDEL's control.)

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ddl_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::graph::ddl::parse(&s);
    }

    #[test]
    fn struql_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::struql::parse_query(&s);
    }

    #[test]
    fn template_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::template::parse_template(&s);
    }

    #[test]
    fn bibtex_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::wrappers::bibtex::parse(&s);
    }

    #[test]
    fn xml_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::wrappers::xml::parse(&s);
    }

    #[test]
    fn html_extractor_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::wrappers::html::extract(&s);
    }

    #[test]
    fn csv_parser_never_panics(s in "\\PC{0,200}") {
        let _ = strudel::wrappers::relational::Table::from_csv("T", &s);
    }

    #[test]
    fn store_loader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = strudel::graph::store::load(bytes);
    }

    /// Structured mutation: take a valid stored graph and corrupt one byte —
    /// the loader must reject or tolerate it, never panic.
    #[test]
    fn store_loader_survives_bit_flips(pos in 0usize..256, byte in any::<u8>()) {
        let g = strudel::graph::ddl::parse(
            "object a in C { x 1 y \"s\" n &b }\nobject b { z 2.5 }",
        )
        .unwrap();
        let mut buf = Vec::new();
        strudel::graph::store::save(&g, &mut buf).unwrap();
        let idx = pos % buf.len();
        buf[idx] = byte;
        let _ = strudel::graph::store::load(buf);
    }

    /// Mutated StruQL derived from a real query (more coverage of deep
    /// parser paths than fully random text).
    #[test]
    fn struql_parser_survives_mutations(cut in 0usize..300, ins in "\\PC{0,4}") {
        let base = r#"INPUT G WHERE Publications(x), x -> l -> v, l in {"a","b"},
            not(isImageFile(v)) CREATE P(x) LINK P(x) -> l -> v
            { WHERE l = "year" CREATE Y(v) LINK Y(v) -> "p" -> P(x) }
            COLLECT O(P(x)) OUTPUT H"#;
        let mut s = base.to_string();
        let at = cut % s.len();
        // Don't split a UTF-8 boundary.
        let at = (at..s.len()).find(|&i| s.is_char_boundary(i)).unwrap_or(s.len());
        s.insert_str(at, &ins);
        let _ = strudel::struql::parse_query(&s);
    }
}
