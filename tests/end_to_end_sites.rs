//! End-to-end tests of the §5.1 experience sites: the organization site,
//! the news site (general + sports-only), the personal home pages, and the
//! bilingual site — each through the full wrappers → mediator → StruQL →
//! templates pipeline.

mod support;

use strudel::synth::{bib, bilingual, news, org};
use strudel::template::Generator;
use strudel::Strudel;
use support::{site_digest, site_graph_digest};

#[test]
fn org_site_at_paper_scale_smoke() {
    // §5.1: "approximately 400 users". Scaled to 100 here to keep the test
    // fast; the benchmark harness runs the full 400.
    let src = org::generate(100, 1997);
    let mut s = org::system(&src).unwrap();
    let build = s.build_site().unwrap();
    assert_eq!(build.pages_of("MemberPage").len(), 100);
    assert_eq!(build.pages_of("DeptPage").len(), 100 / 40 + 1);
    let html = s.generate_site(&["RootPage"]).unwrap();
    assert!(html.pages.len() >= 100, "only {} pages", html.pages.len());
    // Every member page carries a name and an email.
    let member_pages: Vec<&String> = html
        .pages
        .iter()
        .filter(|(k, _)| k.starts_with("memberpage"))
        .map(|(_, v)| v)
        .collect();
    assert_eq!(member_pages.len(), 100);
    assert!(member_pages
        .iter()
        .all(|p| p.contains("@research.example.com")));
}

#[test]
fn org_external_version_hides_proprietary_material() {
    let src = org::generate(60, 2024);
    let mut s = org::system(&src).unwrap();
    *s.templates_mut() = org::templates_external().unwrap();
    let html = s.generate_site(&["RootPage"]).unwrap();
    for (name, page) in &html.pages {
        assert!(
            !page.contains("PROPRIETARY - internal use only"),
            "{name} leaks proprietary banner"
        );
        if name.starts_with("memberpage") {
            assert!(!page.contains("Phone:"), "{name} leaks a phone number");
            assert!(!page.contains("Room:"), "{name} leaks a room number");
        }
        if name.starts_with("pubpage") && page.contains("Restricted publication") {
            assert!(
                !page.contains(".ps.gz"),
                "{name} leaks a proprietary download"
            );
        }
    }
}

#[test]
fn news_site_article_multiplicity() {
    // "one article may appear in various formats on multiple pages": the
    // summary appears on section pages (embedded) and the full article has
    // its own page.
    let mut s = news::system(80, 5, false).unwrap();
    let html = s.generate_site(&["FrontPage"]).unwrap();
    let article_pages = html
        .pages
        .keys()
        .filter(|k| k.starts_with("articlepage"))
        .count();
    assert_eq!(article_pages, 80);
    let front = html
        .pages
        .iter()
        .find(|(k, _)| k.starts_with("frontpage"))
        .unwrap()
        .1;
    assert!(front.contains("Sections"));
    // Section pages embed summaries which link to full articles.
    let section = html
        .pages
        .iter()
        .find(|(k, _)| k.starts_with("sectionpage"))
        .unwrap()
        .1;
    assert!(
        section.contains("articlepage"),
        "summaries link to full articles"
    );
}

#[test]
fn sports_only_site_contains_only_sports() {
    let mut s = news::system(150, 5, true).unwrap();
    let build = s.build_site().unwrap();
    // Every article in the site is a sports article. (A sports article
    // cross-listed in a second section still creates that section's page —
    // same structure as the general site — but only sports stories appear.)
    let interner = build.graph.universe().interner();
    let section = interner.get("section").unwrap();
    let reader = build.graph.reader();
    let sports = strudel::graph::Value::str("sports");
    let mut full = 0usize;
    let mut stubs = 0usize;
    for ap in build.pages_of("ArticlePage") {
        let sections: Vec<_> = reader.attr_values(ap, section).collect();
        if sections.is_empty() {
            // A non-sports article referenced through a sports article's
            // `related` link: it gets a stub page (no attributes copied) —
            // the same kind of boundary inconsistency the paper found in
            // CNN's real text-only site.
            stubs += 1;
            assert!(reader.out(ap).is_empty(), "stub pages carry no content");
        } else {
            full += 1;
            assert!(
                sections.iter().any(|v| v.coerced_eq(&sports)),
                "non-sports article page: sections {sections:?}"
            );
        }
    }
    assert!(full > 0, "sports articles present");
    assert!(
        full >= stubs,
        "mostly real pages ({full} full vs {stubs} stubs)"
    );
}

#[test]
fn personal_homepage_has_both_sources() {
    let mut s = bib::system("Alon Levy", 20, 9).unwrap();
    let html = s.generate_site(&["RootPage"]).unwrap();
    let root = html
        .pages
        .iter()
        .find(|(k, _)| k.starts_with("rootpage"))
        .unwrap()
        .1;
    // From the DDL source:
    assert!(root.contains("alon@research.example.com"));
    assert!(root.contains("Professional activities"));
    // From the BibTeX source (year index):
    assert!(root.contains("Publications by Year"));
}

#[test]
fn bilingual_site_cross_links_resolve() {
    let mut s = bilingual::system(6, 77).unwrap();
    let html = s.generate_site(&["EnglishRoot", "FrenchRoot"]).unwrap();
    // Every English page links to a French page and vice versa.
    for (name, page) in &html.pages {
        if name.starts_with("enpage") {
            assert!(page.contains("frpage"), "{name} lacks a cross link");
        }
        if name.starts_with("frpage") {
            assert!(page.contains("enpage"), "{name} lacks a cross link");
        }
    }
}

#[test]
fn multiple_versions_share_one_site_graph() {
    // The central §5.2 claim: "once we built AT&T's internal research site,
    // building the external version was trivial" — no new queries, shared
    // site graph, different templates.
    let src = org::generate(40, 7);
    let mut s = org::system(&src).unwrap();
    let build_a = s.build_site().unwrap();
    *s.templates_mut() = org::templates_external().unwrap();
    let build_b = s.build_site().unwrap();
    assert_eq!(build_a.graph.node_count(), build_b.graph.node_count());
    assert_eq!(build_a.graph.edge_count(), build_b.graph.edge_count());
}

#[test]
fn mediator_refresh_propagates_source_changes() {
    // Warehousing: "this requires that the warehouse be updated when data
    // changes". Simulate a data change by a second system over bigger data.
    let mut small = news::system(10, 3, false).unwrap();
    let a = small.build_site().unwrap();
    let mut big = news::system(20, 3, false).unwrap();
    let b = big.build_site().unwrap();
    assert!(b.pages_of("ArticlePage").len() > a.pages_of("ArticlePage").len());
}

#[test]
fn generated_html_is_well_formed_enough() {
    // Sanity over all four example sites: every emitted page has balanced
    // <html> tags when the template provides them, and no template
    // directives leak into the output.
    let mut s = news::system(40, 8, false).unwrap();
    let html = s.generate_site(&["FrontPage"]).unwrap();
    for (name, page) in &html.pages {
        assert!(!page.contains("<SFMT"), "{name} leaks a directive");
        assert!(!page.contains("<SIF"), "{name} leaks a directive");
        assert!(!page.contains("<SFOR"), "{name} leaks a directive");
    }
}

/// `(pages, bytes, site digest)` of the experience sites below, recorded at
/// 49393a1 from the generator this one replaced (its serial and its
/// wave-parallel form agreed on all of them, and neither warned). The
/// rendered page is what the click path will be held to byte for byte: a
/// value that moves here is a changed page, not a number to re-record.
const PINNED: [(&str, usize, usize, u64); 6] = [
    ("org, internal", 1097, 701_125, 0x93fe_9df5_1f75_91d5),
    ("org, external", 1085, 490_034, 0xea51_59aa_84b2_e3b1),
    ("news, general", 608, 300_209, 0x4f2f_7add_309c_1e68),
    ("news, sports only", 213, 69_107, 0xdbb2_7c3e_163a_a8fe),
    ("bilingual", 14, 2_721, 0x2900_0bbd_79c5_9d4f),
    ("personal home page", 40, 18_988, 0x0929_1cd3_72cf_9440),
];

#[test]
fn every_worker_count_yields_the_pinned_sites() {
    let org_src = org::generate(400, 7);
    let mut org_external = org::system(&org_src).unwrap();
    *org_external.templates_mut() = org::templates_external().unwrap();
    let sites: [(Strudel, &[&str]); 6] = [
        (org::system(&org_src).unwrap(), &["RootPage"]),
        (org_external, &["RootPage"]),
        (news::system(600, 7, false).unwrap(), &["FrontPage"]),
        (news::system(600, 7, true).unwrap(), &["FrontPage"]),
        (
            bilingual::system(6, 77).unwrap(),
            &["EnglishRoot", "FrenchRoot"],
        ),
        (bib::system("Alon Levy", 20, 9).unwrap(), &["RootPage"]),
    ];
    for ((mut s, roots), pinned) in sites.into_iter().zip(PINNED) {
        let build = s.build_site().unwrap();
        let roots: Vec<_> = roots.iter().flat_map(|r| build.pages_of(r)).collect();
        let generator = Generator::new(&build.graph, s.templates_mut());
        let mut built = vec![(0, generator.generate(&roots).unwrap())];
        for workers in [1, 2, 8] {
            built.push((
                workers,
                generator.generate_parallel(&roots, workers).unwrap(),
            ));
        }
        for (workers, site) in built {
            let got = (
                pinned.0,
                site.pages.len(),
                site.total_bytes(),
                site_digest(&site),
            );
            assert_eq!(got, pinned, "at {workers} workers (0: `generate`)");
            assert!(site.warnings.is_empty(), "{:?}", site.warnings);
        }
    }
}

/// The site graphs under the pages: what `every_worker_count_yields_the_
/// pinned_sites` cannot see — unrendered edges, out-list order (which
/// click-time `expand` also reads), node order and the books' totals.
/// Recorded at c0ae9d6, before the construction stage's books replaced its
/// hash tables; a digest that moves is a changed site graph. One column
/// moved once, on purpose: `collections` since `build_site` registers each
/// Skolem function's pages in creation order (they were in hash order) —
/// the values are c0ae9d6's graphs with that registration order.
const PINNED_GRAPHS: [(&str, usize, usize, u64, u64); 5] = [
    (
        "news, general",
        5250,
        52369,
        0xe341_5de6_2364_32cd,
        0x2c98_92ec_8fc3_08ce,
    ),
    (
        "news, sports only",
        1260,
        10015,
        0xc68a_868a_79d9_bfe8,
        0x9ae4_bea1_a327_4c14,
    ),
    (
        "org",
        1119,
        15343,
        0xe7b0_3f6a_2c5c_e643,
        0x5d2c_984a_7cd2_4f0b,
    ),
    (
        "bilingual",
        14,
        62,
        0xf980_a31d_58ec_e995,
        0x89fd_2c60_386f_0311,
    ),
    (
        "personal home page",
        61,
        511,
        0x3cca_f6b0_c6d6_c157,
        0xe6cd_e984_7196_280c,
    ),
];

#[test]
fn site_graphs_are_pinned() {
    let sites: [Strudel; 5] = [
        news::system(2_000, 7, false).unwrap(),
        news::system(2_000, 7, true).unwrap(),
        org::system(&org::generate(400, 7)).unwrap(),
        bilingual::system(6, 77).unwrap(),
        bib::system("Alon Levy", 20, 9).unwrap(),
    ];
    let got = sites.map(|mut s| site_graph_digest(&s.build_site().unwrap()));
    let got: Vec<_> = (PINNED_GRAPHS.iter().zip(got))
        .map(|(pinned, (members, edges, graph, collections))| {
            (pinned.0, members, edges, graph, collections)
        })
        .collect();
    assert_eq!(got, PINNED_GRAPHS, "{got:#x?}");
}

#[test]
fn pages_of_lists_a_function_in_creation_order() {
    let sites = [
        (news::system(2_000, 7, false).unwrap(), "ArticlePage", 2_000),
        (
            org::system(&org::generate(400, 7)).unwrap(),
            "MemberPage",
            400,
        ),
    ];
    for (mut s, function, at_least) in sites {
        let build = s.build_site().unwrap();
        let mut functions: Vec<&str> = build.table.iter().map(|(name, _, _)| name).collect();
        functions.dedup();
        for name in functions {
            let pages = build.pages_of(name);
            assert!(
                pages.is_sorted(),
                "{name}: {:?}",
                &pages[..pages.len().min(8)]
            );
        }
        assert!(build.pages_of(function).len() >= at_least);
    }
}

#[test]
fn org_site_integrates_five_source_kinds() {
    // §5.1: "The AT&T Research site, for example, integrated five data
    // sources." Ours: People CSV, Departments CSV, projects DDL,
    // publications BibTeX, and wrapped legacy HTML demo pages.
    let src = org::generate(50, 19);
    assert!(!src.demo_pages.is_empty());
    let mut s = org::system(&src).unwrap();
    let build = s.build_site().unwrap();
    assert!(
        !build.pages_of("DemoPage").is_empty(),
        "HTML-wrapped demos become pages"
    );
    let html = s.generate_site(&["RootPage"]).unwrap();
    let demo = html
        .pages
        .iter()
        .find(|(k, _)| k.starts_with("demopage"))
        .expect("a demo page")
        .1;
    assert!(demo.contains("wrapped legacy demo page"));
    assert!(
        demo.contains("Demo"),
        "title extracted by the HTML wrapper: {demo}"
    );
}

#[test]
fn a_full_build_builds_no_index_extent() {
    // Building and rendering a site writes the site graph and walks both
    // graphs forwards; the news query's plans read the index's counts only.
    // Nothing looks an edge up backwards, so neither graph ever pays for
    // its label extensions, value index or reverse adjacency.
    let mut s = news::system(300, 21, false).unwrap();
    let build = s.build_site().unwrap();
    let roots = build.pages_of("FrontPage");
    let templates = news::templates().unwrap();
    let html = Generator::new(&build.graph, &templates)
        .generate_parallel(&roots, 2)
        .unwrap();
    assert!(html.pages.len() > 300);
    assert_eq!(html.pages, s.generate_site(&["FrontPage"]).unwrap().pages);
    assert!(!build.graph.extents_built(), "site graph");
    assert!(!s.data_graph().unwrap().extents_built(), "data graph");
    // The counts the planner reads are there all the same.
    let section = build.graph.sym("section");
    assert!(s.data_graph().unwrap().label_cardinality(section) >= 300);
    assert!(build.graph.label_cardinality(section) >= 600);
}
