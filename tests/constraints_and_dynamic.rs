//! Integration tests for integrity-constraint verification ([FER 98b]) and
//! incremental / click-time evaluation ([FER 98c]) over the realistic
//! workload sites.

use strudel::site::{Constraint, Target, Verdict};
use strudel::synth::{news, org};

#[test]
fn org_site_structural_constraints() {
    let src = org::generate(60, 11);
    let mut s = org::system(&src).unwrap();

    // All pages reachable from the root: the schema alone cannot guarantee
    // it (members are linked through conditional joins), the concrete graph
    // decides.
    let (schema_v, exact) = s
        .verify(&Constraint::AllReachableFrom {
            root: "RootPage".into(),
        })
        .unwrap();
    match schema_v {
        Verdict::Satisfied => assert!(exact.is_none()),
        Verdict::Unknown(_) => assert_eq!(exact, Some(Verdict::Satisfied)),
        Verdict::Violated(v) => panic!("unexpected schema violation: {v}"),
    }

    // Every member page points back to its department page.
    let (schema_v, exact) = s
        .verify(&Constraint::EveryHasEdge {
            from: "MemberPage".into(),
            label: "Department".into(),
            to: "DeptPage".into(),
        })
        .unwrap();
    let decided = exact.unwrap_or(schema_v);
    assert_eq!(decided, Verdict::Satisfied);

    // A constraint that genuinely fails: not every department page has a
    // "Pub" edge to a publication page.
    let (schema_v, exact) = s
        .verify(&Constraint::EveryHasEdge {
            from: "DeptPage".into(),
            label: "Pub".into(),
            to: "PubPage".into(),
        })
        .unwrap();
    let decided = exact.unwrap_or(schema_v);
    assert!(matches!(decided, Verdict::Violated(_)), "{decided:?}");
}

/// Served equals built. For every page of the static build, click-time
/// expansion returns exactly the built page's out-links (compared as sets,
/// Skolem targets resolved through `build.table`), and returns the same
/// vector — order included — whether the cache is cold, warm, or holds only
/// some of the page's clauses. At every one of those steps, and after an
/// invalidation, `lookup` — the cached page or nothing, the server's event
/// loop's view — either declines without a trace in the counters or returns
/// that same vector, and leaves the cache's recency order as `expand` would.
/// Returns how many partially warm expansions mixed hits and misses.
fn assert_served_equals_built(s: &mut strudel::Strudel) -> usize {
    use std::collections::HashMap;
    use strudel::graph::{Oid, Value};
    use strudel::site::{CacheConfig, Delta, DynamicSite, OutLink, PageRef};
    use strudel::struql::EvalOptions;

    fn link_set(links: &[OutLink]) -> Vec<String> {
        let mut set: Vec<String> = links.iter().map(|l| format!("{l:?}")).collect();
        set.sort();
        set
    }

    /// `lookup` answers `want` or declines; declining counts nothing.
    /// Returns whether it answered.
    fn lookup_agrees(site: &DynamicSite, page: &PageRef, want: &[OutLink], when: &str) -> bool {
        let before = format!("{:?}", site.stats());
        match site.lookup(page) {
            Some(hit) => {
                let got: Vec<OutLink> = hit.iter().cloned().collect();
                assert_eq!(got, want, "lookup, {when}: {page}");
                assert_eq!(hit.len(), want.len());
                true
            }
            None => {
                assert_eq!(format!("{:?}", site.stats()), before, "{when}: {page}");
                false
            }
        }
    }

    let build = s.build_site().unwrap();
    let query = s.merged_query();
    let data = s.data_graph().unwrap();
    let site = |max_entries| {
        let cache = CacheConfig {
            max_entries,
            ..CacheConfig::default()
        };
        DynamicSite::with_cache(data, &query, EvalOptions::default(), cache).unwrap()
    };
    let pages: HashMap<Oid, PageRef> = build
        .table
        .iter()
        .map(|(name, args, oid)| {
            let page = PageRef {
                skolem: name.to_string(),
                args: args.to_vec(),
            };
            (oid, page)
        })
        .collect();

    let full = site(usize::MAX);
    let mut served_links: Vec<(&PageRef, Vec<OutLink>)> = Vec::new();
    let mut mixed = 0;
    for (oid, page) in &pages {
        let built: Vec<OutLink> = build
            .graph
            .out_edges(*oid)
            .into_iter()
            .map(|(label, to)| OutLink {
                label: build.graph.resolve(label).to_string(),
                target: match &to {
                    Value::Node(n) if pages.contains_key(n) => Target::Page(pages[n].clone()),
                    _ => Target::Value(to),
                },
            })
            .collect();
        let cold = full.expand(page).unwrap();
        let served = link_set(&cold);
        assert_eq!(
            served,
            link_set(&built),
            "served differs from built on {page}"
        );
        assert!(
            served.windows(2).all(|w| w[0] != w[1]),
            "{page}: {served:?}"
        );
        assert!(lookup_agrees(&full, page, &cold, "warm"));
        assert_eq!(full.expand(page).unwrap(), cold, "warm {page}");

        // Partially warm. A cache too small for the page's clauses keeps
        // its last `keep` entries; a snapshot carries them into a roomy
        // cache, where re-inserting the missing ones evicts nothing. (A
        // bound alone cannot hold this state: each re-inserted entry would
        // evict the next one the page needs. Nor can `invalidate`: clauses
        // that share a conjunction are affected together.)
        for keep in [1, 2] {
            let small = site(keep);
            assert!(!lookup_agrees(&small, page, &cold, "cold"));
            small.expand(page).unwrap();
            let partial = site(usize::MAX);
            partial.cache_restore(small.cache_snapshot());
            let whole = lookup_agrees(&partial, page, &cold, "restored");
            assert_eq!(partial.expand(page).unwrap(), cold, "keep {keep}: {page}");
            let stats = partial.stats();
            // A page that `lookup` answers has nothing left to evaluate.
            assert!(!whole || stats.cache_misses == 0, "keep {keep}: {page}");
            mixed += usize::from(stats.cache_hits > 0 && stats.cache_misses > 0);
            assert!(lookup_agrees(
                &partial,
                page,
                &cold,
                "restored and expanded"
            ));
        }
        served_links.push((page, cold));
    }

    // Recency. A snapshot restored into room for `k` entries keeps the `k`
    // most recent, so which pages `lookup` still answers there, for every
    // `k`, is the recency order as far as a page can tell. It must not
    // depend on whether the last touch of a page was `lookup`'s or
    // `expand`'s.
    let sample: Vec<&PageRef> = served_links.iter().map(|(p, _)| *p).take(6).collect();
    let (by_lookup, by_expand) = (site(usize::MAX), site(usize::MAX));
    for page in &sample {
        by_lookup.expand(page).unwrap();
        by_expand.expand(page).unwrap();
    }
    let entries = by_lookup.cache_len();
    for page in sample.iter().step_by(2) {
        assert!(by_lookup.lookup(page).is_some(), "{page}");
        by_expand.expand(page).unwrap();
    }
    let survivors = |of: &DynamicSite, k| -> Vec<bool> {
        let small = site(k);
        small.cache_restore(of.cache_snapshot());
        sample.iter().map(|p| small.lookup(p).is_some()).collect()
    };
    for k in 0..=entries {
        assert_eq!(survivors(&by_lookup, k), survivors(&by_expand, k), "{k}");
    }

    // After an invalidation (the data is unchanged, so every page still has
    // the links it had): what `lookup` still answers is still right, and it
    // no longer answers everything.
    let node = data.nodes()[0];
    let (label, to) = data.out_edges(node).into_iter().next().unwrap();
    let dropped = full.invalidate(&Delta::EdgeAdded {
        from: node,
        label,
        to,
    });
    assert!(dropped > 0);
    let answered = served_links
        .iter()
        .filter(|(page, links)| lookup_agrees(&full, page, links, "invalidated"))
        .count();
    assert!(0 < answered && answered < served_links.len(), "{answered}");
    mixed
}

#[test]
fn expansion_matches_materialized_site() {
    // The paper's Fig. 3 query: a site without aggregates or hubs.
    let mut s = strudel::Strudel::new();
    s.add_ddl_source(
        "publications",
        r#"
object p1 in Publications { title "A" year 1997 }
object p2 in Publications { title "B" year 1998 }
object p3 in Publications { title "C" year 1997 }
"#,
    );
    s.add_site_query(
        r#"
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
{
  WHERE Publications(x), x -> l -> v
  CREATE PaperPresentation(x), AbstractPage(x)
  LINK AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v,
       PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
       AbstractsPage() -> "Abstract" -> AbstractPage(x)
  {
    WHERE l = "year"
    CREATE YearPage(v)
    LINK YearPage(v) -> "Year" -> v,
         YearPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "YearPage" -> YearPage(v)
  }
}
"#,
    )
    .unwrap();
    assert!(assert_served_equals_built(&mut s) > 0);
}

#[test]
fn news_dynamic_site_agrees_with_materialization_everywhere() {
    // FrontPage, every SectionPage with its `COUNT` link, ArticlePages with
    // `Related` links, Summaries.
    let mut s = news::system(300, 21, false).unwrap();
    assert!(assert_served_equals_built(&mut s) > 0);
}

#[test]
fn click_path_browsing_without_materialization() {
    let mut s = news::system(120, 22, false).unwrap();
    let dynamic = s.dynamic_site().unwrap();
    let roots = dynamic.roots();
    assert_eq!(roots.len(), 1);

    // Walk: front page → a section → a summary's full article → related.
    let front_links = dynamic.expand(&roots[0]).unwrap();
    let section = front_links
        .iter()
        .find_map(|l| match (&l.label[..], &l.target) {
            ("Section", Target::Page(p)) => Some(p.clone()),
            _ => None,
        })
        .expect("a section link");
    let section_links = dynamic.expand(&section).unwrap();
    let summary = section_links
        .iter()
        .find_map(|l| match (&l.label[..], &l.target) {
            ("Story", Target::Page(p)) => Some(p.clone()),
            _ => None,
        })
        .expect("a story link");
    let summary_links = dynamic.expand(&summary).unwrap();
    let article = summary_links
        .iter()
        .find_map(|l| match (&l.label[..], &l.target) {
            ("Full", Target::Page(p)) => Some(p.clone()),
            _ => None,
        })
        .expect("a full-article link");
    let article_links = dynamic.expand(&article).unwrap();
    assert!(article_links.iter().any(|l| l.label == "headline"));

    let stats = dynamic.stats();
    assert!(stats.expansions >= 4);
    // Far fewer clause queries than a full materialization would need.
    assert!(stats.clause_queries < 60, "{stats:?}");
}

/// Trap (b) of the known-label rule: a leaf page's conjunction carries
/// `l = "related"` too, and costing that label must not ask the index for
/// degree tallies — that builds the extents (label, value and in-edge maps
/// over every edge), which no leaf page reads. Planning and expanding every
/// leaf page leaves them unbuilt.
#[test]
fn leaf_pages_plan_and_expand_without_the_index_extents() {
    use strudel::graph::Value;
    use strudel::site::{DynamicSite, PageRef};
    use strudel::struql::EvalOptions;
    let data = strudel::graph::ddl::parse(&news::generate_ddl(300, 11)).unwrap();
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let mut related = 0;
    for &article in data.nodes() {
        for skolem in ["ArticlePage", "Summary"] {
            let links = site
                .expand(&PageRef {
                    skolem: skolem.into(),
                    args: vec![Value::Node(article)],
                })
                .unwrap();
            assert!(links.len() >= 5, "{skolem} of {article:?}");
            related += links.iter().filter(|l| l.label == "Related").count();
        }
    }
    assert!(related > 100, "the `l = \"related\"` clause ran: {related}");
    assert!(site.plan_cache_stats().misses >= 2);
    assert!(!data.extents_built());
}

/// A data edit drops only the pages whose conjunctions can see it. A seed
/// row from `a -> l -> v` that binds `l` to "body" cannot pass a prefix's
/// `l = "section"` or `l = "editorial_rank"`, so a `body` edit leaves the
/// front page and the article's section page cached, while the article's
/// own two pages, whose links change, are dropped.
#[test]
fn a_body_edit_leaves_the_front_page_cached() {
    use strudel::graph::Value;
    use strudel::site::{Delta, DynamicSite, PageRef};
    use strudel::struql::EvalOptions;
    let data = strudel::graph::ddl::parse(&news::generate_ddl(200, 14)).unwrap();
    let query = strudel::struql::parse_query(news::SITE_QUERY).unwrap();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let article = data.nodes()[0];
    let edge = |label: &str| {
        let label = data.sym(label);
        let edges = data.out_edges(article).into_iter();
        edges
            .filter(|(l, _)| *l == label)
            .map(|(_, to)| to)
            .next()
            .unwrap()
    };
    let page = |skolem: &str, arg: Option<Value>| PageRef {
        skolem: skolem.into(),
        args: arg.into_iter().collect(),
    };
    let of_article = Some(Value::Node(article));
    let changed = [
        page("ArticlePage", of_article.clone()),
        page("Summary", of_article),
    ];
    let kept = [
        page("FrontPage", None),
        page("SectionPage", Some(edge("section"))),
    ];
    for p in changed.iter().chain(&kept) {
        assert!(!site.expand(p).unwrap().is_empty(), "{p}");
    }
    site.invalidate(&Delta::EdgeRemoved {
        from: article,
        label: data.sym("body"),
        to: edge("body"),
    });
    for p in &kept {
        assert!(site.lookup(p).is_some(), "a body edit dropped {p}");
    }
    for p in &changed {
        assert!(site.lookup(p).is_none(), "{p} kept its links");
    }
}

#[test]
fn repeated_clicks_are_cached() {
    let mut s = news::system(60, 23, false).unwrap();
    let dynamic = s.dynamic_site().unwrap();
    let root = dynamic.roots().pop().unwrap();
    dynamic.expand(&root).unwrap();
    let q1 = dynamic.stats().clause_queries;
    dynamic.expand(&root).unwrap();
    dynamic.expand(&root).unwrap();
    assert_eq!(
        dynamic.stats().clause_queries,
        q1,
        "re-clicks must hit the cache"
    );
}

#[test]
fn proprietary_exclusion_constraint_on_external_design() {
    // An external site design that (correctly) never links proprietary
    // project pages, verified statically.
    let mut s = strudel::Strudel::new();
    s.add_ddl_source(
        "projects",
        r#"
object p1 in Projects { name "open" }
object p2 in Projects { name "secret" proprietary true }
"#,
    );
    s.add_site_query(
        r#"CREATE Root()
           { WHERE Projects(p), not(p -> "proprietary" -> true), p -> "name" -> n
             CREATE Page(p) LINK Page(p) -> "Name" -> n, Root() -> "Project" -> Page(p) }
           { WHERE Projects(p), p -> "proprietary" -> true
             CREATE SecretPage(p) }"#,
    )
    .unwrap();
    let (schema_v, exact) = s
        .verify(&Constraint::NoneReachable {
            from: "Root".into(),
            forbidden: "SecretPage".into(),
        })
        .unwrap();
    assert_eq!(schema_v, Verdict::Satisfied);
    assert!(exact.is_none(), "the schema alone decides");
}

// ---- one site program: what the schema guarantees, what build and click accept ----

/// A system over two articles and one draft, defined by `query`.
fn articles_and_drafts(query: &str) -> strudel::Strudel {
    let mut s = strudel::Strudel::new();
    s.add_ddl_source(
        "pubs",
        r#"
object a1 in Articles { title "One" }
object a2 in Articles { title "Two" }
object d1 in Drafts { title "Three" }
"#,
    );
    s.add_site_query(query).unwrap();
    s
}

/// `P` is created under two conjunctions and only the `Articles` one links
/// a page home: the schema cannot promise the edge, and the draft's page
/// lacks it.
#[test]
fn an_edge_is_guaranteed_only_under_every_create_clause() {
    let mut s = articles_and_drafts(
        r#"CREATE Root()
           { WHERE Articles(a) CREATE P(a) LINK P(a) -> "home" -> Root(), Root() -> "p" -> P(a) }
           { WHERE Drafts(a) CREATE P(a) LINK Root() -> "p" -> P(a) }"#,
    );
    let (schema_v, exact) = s
        .verify(&Constraint::EveryHasEdge {
            from: "P".into(),
            label: "home".into(),
            to: "Root".into(),
        })
        .unwrap();
    assert!(matches!(schema_v, Verdict::Unknown(_)), "{schema_v:?}");
    assert!(matches!(exact, Some(Verdict::Violated(_))), "{exact:?}");
}

/// The same for reachability: the draft's page is created and never
/// linked.
#[test]
fn a_page_is_reachable_only_if_every_create_clause_links_it() {
    let mut s = articles_and_drafts(
        r#"CREATE Root()
           { WHERE Articles(a) CREATE P(a) LINK Root() -> "p" -> P(a) }
           { WHERE Drafts(a) CREATE P(a) }"#,
    );
    let (schema_v, exact) = s
        .verify(&Constraint::AllReachableFrom {
            root: "Root".into(),
        })
        .unwrap();
    assert!(matches!(schema_v, Verdict::Unknown(_)), "{schema_v:?}");
    assert!(matches!(exact, Some(Verdict::Violated(_))), "{exact:?}");
}

/// An edge out of `P(b)` says nothing about the pages `P(a)`: the
/// articles' pages have no home link.
#[test]
fn an_edge_guarantees_only_pages_of_its_own_arguments() {
    let mut s = articles_and_drafts(
        r#"CREATE Root()
           { WHERE Articles(a), Drafts(b) CREATE P(a), P(b)
             LINK P(b) -> "home" -> Root(), Root() -> "p" -> P(a), Root() -> "p" -> P(b) }"#,
    );
    let (schema_v, exact) = s
        .verify(&Constraint::EveryHasEdge {
            from: "P".into(),
            label: "home".into(),
            to: "Root".into(),
        })
        .unwrap();
    assert!(matches!(schema_v, Verdict::Unknown(_)), "{schema_v:?}");
    assert!(matches!(exact, Some(Verdict::Violated(_))), "{exact:?}");
}

/// One query links to pages another query creates. The build and the
/// click-time site read one program compiled from both, so both accept
/// the site, and they serve the same links.
#[test]
fn build_and_click_accept_a_link_to_a_page_another_query_creates() {
    let mut s =
        articles_and_drafts(r#"CREATE Root() { WHERE Articles(a) LINK Root() -> "p" -> P(a) }"#);
    s.add_site_query(
        r#"{ WHERE Articles(a), a -> "title" -> t CREATE P(a) LINK P(a) -> "title" -> t }"#,
    )
    .unwrap();
    let build = s.build_site().unwrap();
    assert_eq!(build.stats.len(), 2, "one entry per site query");
    assert_eq!(build.pages_of("P").len(), 2);
    assert_served_equals_built(&mut s);
}

// ---- recover_query over the realistic workload definitions ----

#[test]
fn recovered_queries_equivalent_for_workloads() {
    use strudel::graph::ddl;
    use strudel::site::SiteSchema;
    use strudel::struql::{parse_query, EvalOptions, PredicateRegistry, SiteProgram};

    // News site, aggregate-free fragment (recovery covers the full AST, but
    // comparing output graphs is cleanest on the core fragment).
    let data = ddl::parse(&strudel::synth::news::generate_ddl(40, 12)).unwrap();
    let q = parse_query(strudel::synth::news::SITE_QUERY).unwrap();
    let program = SiteProgram::compile(&q, &PredicateRegistry::with_builtins()).unwrap();
    let schema = SiteSchema::new(program);
    let recovered = schema.recover_query();
    let opts = EvalOptions::default();
    let a = q.evaluate(&data, &opts).unwrap();
    let b = recovered.evaluate(&data, &opts).unwrap();
    assert_eq!(a.table.len(), b.table.len(), "same page census");
    assert_eq!(a.graph.edge_count(), b.graph.edge_count());
}

#[test]
fn site_schema_dot_for_org_site_is_complete() {
    use strudel::site::SiteSchema;
    use strudel::struql::{parse_query, PredicateRegistry, SiteProgram};
    let q = parse_query(strudel::synth::org::SITE_QUERY).unwrap();
    let program = SiteProgram::compile(&q, &PredicateRegistry::with_builtins()).unwrap();
    let schema = SiteSchema::new(program);
    let dot = schema.to_dot();
    for page_type in [
        "RootPage",
        "PeopleIndex",
        "DeptIndex",
        "ProjectIndex",
        "PubIndex",
        "MemberPage",
        "DeptPage",
        "ProjectPage",
        "PubPage",
        "PubYearPage",
        "CategoryPage",
        "DemoPage",
    ] {
        assert!(dot.contains(page_type), "schema misses {page_type}");
    }
    // The complexity measure the paper suggests: link clauses.
    assert!(
        schema.edges().len() >= 20,
        "{} link kinds",
        schema.edges().len()
    );
}
