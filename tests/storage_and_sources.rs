//! Integration tests for the storage layer and the less-used source kinds
//! (HTML wrapper through the pipeline, GAV mappings through the facade,
//! saving/loading data graphs across pipeline stages).

use std::sync::Arc;
use strudel::graph::{store, Graph, Value};
use strudel::struql::{parse_query, EvalOptions};
use strudel::Strudel;

#[test]
fn saved_data_graph_supports_full_pipeline_after_load() {
    // Build a data graph from DDL, save it, load it, run the homepage query
    // against the loaded copy.
    let data = strudel::graph::ddl::parse(
        r#"
object p1 in Publications { title "UnQL" year 1996 }
object p2 in Publications { title "StruQL" year 1997 }
"#,
    )
    .unwrap();
    let mut buf = Vec::new();
    store::save(&data, &mut buf).unwrap();
    let loaded = store::load(buf).unwrap();

    let q = parse_query(
        r#"WHERE Publications(x), x -> "title" -> t
           CREATE Page(x) LINK Page(x) -> "T" -> t COLLECT Pages(Page(x))"#,
    )
    .unwrap();
    let a = q.evaluate(&data, &EvalOptions::default()).unwrap();
    let b = q.evaluate(&loaded, &EvalOptions::default()).unwrap();
    assert_eq!(
        a.graph.collection_str("Pages").unwrap().len(),
        b.graph.collection_str("Pages").unwrap().len()
    );
    assert_eq!(a.graph.edge_count(), b.graph.edge_count());
}

#[test]
fn site_graph_can_be_saved_and_reloaded() {
    let mut s = strudel::synth::news::system(25, 31, false).unwrap();
    let build = s.build_site().unwrap();
    let mut buf = Vec::new();
    store::save(&build.graph, &mut buf).unwrap();
    let loaded = store::load(buf).unwrap();
    assert_eq!(loaded.node_count(), build.graph.node_count());
    assert_eq!(loaded.edge_count(), build.graph.edge_count());
    // Collections (including the per-Skolem-function ones) survive.
    assert_eq!(
        loaded.collection_str("ArticlePage").unwrap().len(),
        build.graph.collection_str("ArticlePage").unwrap().len()
    );
}

#[test]
fn storage_failures_surface_as_typed_storage_errors() {
    use strudel::graph::GraphError;

    // I/O failure while writing: a sink that always refuses.
    struct Refuse;
    impl std::io::Write for Refuse {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let data = strudel::graph::ddl::parse(r#"object p in Ps { k "v" }"#).unwrap();
    let err = store::save(&data, &mut Refuse).unwrap_err();
    assert!(matches!(err, GraphError::Storage { .. }), "{err}");
    assert!(err.to_string().starts_with("storage error:"), "{err}");

    // A truncated snapshot is typed corruption (the bytes failed
    // validation), while a missing file is a plain storage (I/O) error —
    // neither is a misreported DDL parse failure.
    let mut buf = Vec::new();
    store::save(&data, &mut buf).unwrap();
    let mut truncated = buf.clone();
    truncated.truncate(truncated.len() / 2);
    assert!(matches!(
        store::load(truncated),
        Err(GraphError::StorageCorrupt { .. })
    ));
    assert!(matches!(
        store::PagedStore::open(std::path::Path::new("/nonexistent/strudel.pdb")),
        Err(GraphError::Storage { .. })
    ));

    // A valid snapshot followed by junk must not load: unread trailing
    // bytes mean the file is not what the writer produced.
    let mut tainted = buf.clone();
    tainted.extend_from_slice(b"JUNKJUNK");
    let err = store::load(tainted).unwrap_err();
    assert!(matches!(err, GraphError::StorageCorrupt { .. }), "{err}");
    assert!(err.to_string().contains("trailing"), "{err}");
}

/// The path `build --data` and `serve --data` take: a store mounted with
/// `add_store_source` beside another source yields, page for page, the
/// site the same data yields as DDL — freshly imported, with committed
/// transactions still in the log, and after checkpoint and compaction.
#[test]
fn store_source_builds_the_site_its_data_builds_from_ddl() {
    use strudel::graph::store::{PagedStore, WireValue};

    const BEFORE: &str = r#"
collection Publications { homepage url }
object p1 in Publications { title "UnQL" year 1996 homepage "http://e/1" cites &p2 }
object p2 in Publications { title "StruQL" year 1997 }
"#;
    const AFTER: &str = r#"
collection Publications { homepage url }
object p1 in Publications { title "UnQL" homepage "http://e/1" cites &p2 venue "SIGMOD" }
object p2 in Publications { title "StruQL" year 1997 }
object p3 in Publications { title "Lorel" year 1998 cites &p1 }
"#;
    let pages = |mount: &dyn Fn(&mut Strudel)| {
        let mut s = Strudel::new();
        s.add_ddl_source("people", r#"object m in People { name "Mary" }"#);
        mount(&mut s);
        s.add_site_query(
            r#"{ WHERE Publications(x), x -> l -> v, People(m), m -> "name" -> n
                 CREATE Page(x) LINK Page(x) -> l -> v, Page(x) -> "editor" -> n
                 COLLECT Roots(Page(x)) }
               { WHERE Publications(x), x -> "cites" -> y
                 LINK Page(x) -> "Cites" -> Page(y) }"#,
        )
        .unwrap();
        s.templates_mut()
            .set_collection_template(
                "Page",
                "<SFMT @title> <SFMT @year> <SFMT @venue> <SFMT @homepage> <SFMT @editor> \
                 <SFOR c IN @Cites><SFMT @c LINK=@c.title></SFOR>",
            )
            .unwrap();
        s.generate_site(&["Page"]).unwrap().pages
    };
    let from_ddl = |text: &'static str| pages(&|s| s.add_ddl_source("pubs", text));

    let dir = std::env::temp_dir().join(format!("strudel_it_mount_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.pdb");
    // One refresh decodes the stored revision once, whether the log is
    // clean or has frames to replay (it used to be decoded a second time
    // then, and both graphs held). The counter is the process's: the other
    // test that decodes a store waits its turn.
    let _turn = DECODES.lock().unwrap_or_else(|e| e.into_inner());
    let from_store = || {
        let before = strudel::graph::storage_stats().materializations;
        let pages = pages(&|s| s.add_store_source("pubs", &path));
        let decodes = strudel::graph::storage_stats().materializations - before;
        assert_eq!(decodes, 1, "decodes of the stored revision per refresh");
        pages
    };

    let mut store =
        PagedStore::import(&path, &strudel::graph::ddl::parse(BEFORE).unwrap()).unwrap();
    assert_eq!(from_store(), from_ddl(BEFORE), "freshly imported");
    assert_eq!(from_ddl(BEFORE).len(), 2);

    // A new node, a new label and a removal, committed but not checkpointed.
    let mut txn = store.begin();
    txn.remove_edge(0, "year", WireValue::Int(1996));
    txn.add_edge(0, "venue", WireValue::Str("SIGMOD".into()));
    let p3 = txn.add_node(Some("p3"));
    txn.add_edge(p3, "title", WireValue::Str("Lorel".into()));
    txn.add_edge(p3, "year", WireValue::Int(1998));
    txn.add_edge(p3, "cites", WireValue::Node(0));
    txn.add_to_collection("Publications", WireValue::Node(p3));
    txn.commit().unwrap();
    assert!(store.wal_size() > 32, "the transaction is still in the log");
    assert_eq!(from_store(), from_ddl(AFTER), "replayed from the log");
    assert_eq!(from_ddl(AFTER).len(), 3);

    store.compact().unwrap();
    drop(store);
    assert_eq!(from_store(), from_ddl(AFTER), "checkpointed and compacted");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Held by the tests that decode a stored revision, so that a delta of the
/// process-wide `materializations` counter is one test's own.
static DECODES: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn paged_store_snapshot_feeds_the_full_pipeline() {
    use strudel::graph::store::{PagedStore, WireValue};
    let _turn = DECODES.lock().unwrap_or_else(|e| e.into_inner());

    // Import a data graph into the paged store, mutate it transactionally,
    // and run the site query against a snapshot — the paged store is a
    // first-class source for the pipeline, not just a byte archive.
    let dir = std::env::temp_dir().join(format!("strudel_it_paged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.pdb");

    let data = strudel::graph::ddl::parse(
        r#"
object p1 in Publications { title "UnQL" year 1996 }
object p2 in Publications { title "StruQL" year 1997 }
"#,
    )
    .unwrap();
    let mut paged = PagedStore::import(&path, &data).unwrap();
    let mut txn = paged.begin();
    let p3 = txn.add_node(Some("p3"));
    txn.add_edge(p3, "title", WireValue::Str("Lorel".into()));
    txn.add_edge(p3, "year", WireValue::Int(1998));
    txn.add_to_collection("Publications", WireValue::Node(p3));
    txn.commit().unwrap();

    // Reopen (recovery path) and query a graph filled from the store.
    drop(paged);
    let mut paged = PagedStore::open(&path).unwrap();
    let mut snap = Graph::standalone();
    paged.materialize_into(&mut snap).unwrap();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "title" -> t
           CREATE Page(x) LINK Page(x) -> "T" -> t COLLECT Pages(Page(x))"#,
    )
    .unwrap();
    let out = q.evaluate(&snap, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Pages").unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn round_trip_after_deletions_preserves_the_mutated_graph() {
    // The on-disk format must reflect removals: delete an edge and a
    // collection member, save, load, and compare against the live graph.
    let mut data = strudel::graph::ddl::parse(
        r#"
object p1 in Publications { title "UnQL" year 1996 }
object p2 in Publications { title "StruQL" year 1997 }
"#,
    )
    .unwrap();
    let p1 = data
        .nodes()
        .iter()
        .copied()
        .find(|n| data.node_name(*n).as_deref() == Some("p1"))
        .unwrap();
    assert!(data.remove_edge_str(p1, "year", &Value::Int(1996)).unwrap());
    assert!(data.remove_from_collection_str("Publications", &Value::Node(p1)));

    let mut buf = Vec::new();
    store::save(&data, &mut buf).unwrap();
    let loaded = store::load(buf).unwrap();
    assert_eq!(loaded.node_count(), data.node_count());
    assert_eq!(loaded.edge_count(), data.edge_count());
    assert_eq!(loaded.collection_str("Publications").unwrap().len(), 1);
    let p1_loaded = loaded
        .nodes()
        .iter()
        .copied()
        .find(|n| loaded.node_name(*n).as_deref() == Some("p1"))
        .unwrap();
    assert!(!loaded.has_edge(p1_loaded, loaded.sym("year"), &Value::Int(1996)));
    assert!(loaded.has_edge(p1_loaded, loaded.sym("title"), &Value::str("UnQL")));
}

#[test]
fn html_source_through_the_pipeline() {
    let mut s = Strudel::new();
    s.add_html_source(
        "crawl",
        vec![
            (
                "index.html".to_string(),
                r#"<title>Front</title><h1>Welcome</h1>
                   <a href="story.html">A story</a>
                   <a href="http://other.example/">elsewhere</a>"#
                    .to_string(),
            ),
            (
                "story.html".to_string(),
                r#"<title>Story</title><p>Body text here.</p><img src="pic.jpg">"#.to_string(),
            ),
        ],
    );
    // Restructure wrapped pages into a mirror site.
    s.add_site_query(
        r#"CREATE Root()
           {
             WHERE Pages(p), p -> "title" -> t
             CREATE Mirror(p)
             LINK Mirror(p) -> "Title" -> t, Root() -> "Page" -> Mirror(p)
             {
               WHERE p -> "link" -> q, Pages(q)
               CREATE Mirror(q)
               LINK Mirror(p) -> "LinksTo" -> Mirror(q)
             }
           }"#,
    )
    .unwrap();
    let build = s.build_site().unwrap();
    assert_eq!(build.pages_of("Mirror").len(), 2);
    // The internal link became a Mirror→Mirror edge.
    let idx = build.table.lookup(
        "Mirror",
        &[Value::Node(
            s.data_graph()
                .unwrap()
                .collection_str("Pages")
                .unwrap()
                .items()[0]
                .as_node()
                .unwrap(),
        )],
    );
    let idx = idx.expect("mirror of index.html");
    let links_to = build.graph.universe().interner().get("LinksTo").unwrap();
    assert_eq!(build.graph.reader().attr_values(idx, links_to).count(), 1);
}

#[test]
fn gav_mapping_through_the_facade() {
    let mut s = Strudel::new();
    s.add_ddl_source(
        "raw",
        r#"
object r1 in Records { kind "person" name "Mary" }
object r2 in Records { kind "person" name "Dan" }
object r3 in Records { kind "machine" name "vax1" }
"#,
    );
    // Mediated schema: People only.
    s.add_mapping(
        "raw",
        r#"WHERE Records(r), r -> "kind" -> "person", r -> "name" -> n
           CREATE Person(n)
           LINK Person(n) -> "name" -> n
           COLLECT People(Person(n))"#,
    )
    .unwrap();
    s.add_site_query(
        r#"CREATE Root()
           { WHERE People(p), p -> "name" -> n
             CREATE Page(p) LINK Page(p) -> "Name" -> n, Root() -> "Person" -> Page(p) }"#,
    )
    .unwrap();
    let build = s.build_site().unwrap();
    assert_eq!(
        build.pages_of("Page").len(),
        2,
        "machines filtered out by the GAV mapping"
    );
}

#[test]
fn aggregates_flow_through_templates() {
    // COUNT in the site query surfaces as a page attribute rendered by SFMT.
    let mut s = Strudel::new();
    s.add_ddl_source(
        "pubs",
        r#"
object p1 in Publications { year 1997 }
object p2 in Publications { year 1997 }
object p3 in Publications { year 1998 }
"#,
    );
    s.add_site_query(
        r#"{ WHERE Publications(x), x -> "year" -> y
             CREATE YearPage(y)
             LINK YearPage(y) -> "Year" -> y,
                  YearPage(y) -> "papers" -> COUNT(x)
             COLLECT Roots(YearPage(y)) }"#,
    )
    .unwrap();
    s.templates_mut()
        .set_collection_template("YearPage", "<SFMT @Year>: <SFMT @papers> papers")
        .unwrap();
    let site = s.generate_site(&["YearPage"]).unwrap();
    let y97 = site
        .pages
        .iter()
        .find(|(k, _)| k.contains("1997"))
        .unwrap()
        .1;
    assert_eq!(y97, "1997: 2 papers");
}

#[test]
fn universe_shared_between_data_and_saved_site() {
    // save() densifies oids, so a site graph whose nodes interleave with
    // data-graph nodes in the universe still roundtrips.
    let uni = strudel::graph::graph::Universe::new();
    let mut data = Graph::new(Arc::clone(&uni));
    let d1 = data.new_node(Some("d1"));
    data.add_edge_str(d1, "k", 1i64).unwrap();
    let mut site = Graph::new(Arc::clone(&uni));
    let s1 = site.new_node(Some("S()"));
    let _d2 = data.new_node(Some("d2")); // interleaved allocation
    let s2 = site.new_node(Some("T()"));
    site.add_edge_str(s1, "next", Value::Node(s2)).unwrap();
    let mut buf = Vec::new();
    store::save(&site, &mut buf).unwrap();
    let loaded = store::load(buf).unwrap();
    assert_eq!(loaded.node_count(), 2);
    assert_eq!(loaded.edge_count(), 1);
    let next = loaded.universe().interner().get("next").unwrap();
    let from = loaded.nodes()[0];
    assert!(loaded.reader().attr(from, next).is_some());
}

#[test]
fn file_resolver_survives_repeated_generations() {
    let mut s = Strudel::new();
    s.add_ddl_source(
        "pubs",
        r#"collection Publications { abstract text }
object p1 in Publications { title "A" abstract "abs/a.txt" }"#,
    );
    s.add_site_query(
        r#"{ WHERE Publications(x), x -> l -> v
             CREATE Page(x) LINK Page(x) -> l -> v COLLECT Roots(Page(x)) }"#,
    )
    .unwrap();
    s.templates_mut()
        .set_collection_template("Page", "<SFMT @abstract>")
        .unwrap();
    s.set_file_resolver(Box::new(|p| {
        (p == "abs/a.txt").then(|| "THE ABSTRACT".to_string())
    }));
    for round in 0..3 {
        let site = s.generate_site(&["Page"]).unwrap();
        let page = site.pages.values().next().unwrap();
        assert!(
            page.contains("THE ABSTRACT"),
            "round {round}: resolver lost: {page}"
        );
    }
}

/// A served store with a node segment whose page does not check — one
/// flipped byte: the store opens, a page that reads only other segments is
/// a 200, the page that reads the bad one is a 500 that is not cached, the
/// first page is still a 200 from the cache, the failure is counted once,
/// and nothing panics. (The record-level causes — symbol and node indexes,
/// UTF-8, tallies — are strudel-graph's `tests/lazy_segments.rs`.)
#[test]
fn a_segment_that_does_not_read_is_a_500_not_a_panic() {
    use strudel::graph::store::PagedStore;
    use strudel::serve::testing::{fetch, with_client};
    use strudel::serve::{page_url, Server};
    use strudel::site::{DynamicSite, PageRef};
    let _turn = DECODES.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("strudel_it_badseg_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.pdb");

    // Four 64-node segments, each over several pages.
    let mut data = Graph::standalone();
    for i in 0..256 {
        let a = data.new_node(Some(&format!("a{i}")));
        data.add_edge_str(a, "headline", Value::str(format!("headline {i}")))
            .unwrap();
        data.add_edge_str(a, "body", Value::str("x".repeat(200)))
            .unwrap();
        data.add_to_collection_str("Articles", Value::Node(a));
    }
    PagedStore::import(&path, &data).unwrap();
    // A fresh import writes the preamble to page 2, node segment 0 from
    // page 3 on.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[3 * 4096 + 100] ^= 1;
    std::fs::write(&path, &bytes).unwrap();

    let corrupt = || strudel::graph::storage_stats().segments_corrupt;
    let before = corrupt();
    let mut store = PagedStore::open(&path).unwrap();
    let graph = store.graph().unwrap();
    let query = parse_query(
        r#"WHERE Articles(a), a -> l -> v
           CREATE Page(a) LINK Page(a) -> l -> v"#,
    )
    .unwrap();
    let site = DynamicSite::new(graph, &query, EvalOptions::default()).unwrap();
    let page = |i: usize| {
        page_url(&PageRef {
            skolem: "Page".into(),
            args: vec![Value::Node(graph.nodes()[i])],
        })
    };
    let server = Server::bind(site, "127.0.0.1:0").unwrap();
    with_client(&server, |addr| {
        let status = |path: &str| fetch(addr, path)[..12].to_string();
        assert_eq!(status(&page(200)), "HTTP/1.1 200");
        let failed = fetch(addr, &page(0));
        assert!(failed.starts_with("HTTP/1.1 500"), "{failed}");
        assert!(failed.contains("node segment 0"), "{failed}");
        assert_eq!(status(&page(200)), "HTTP/1.1 200");
        assert_eq!(status(&page(1)), "HTTP/1.1 500");
    });
    drop(server);
    assert_eq!(corrupt() - before, 1);
    assert!(graph.check().is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
