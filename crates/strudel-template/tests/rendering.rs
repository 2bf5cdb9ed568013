//! Integration tests for template rendering: attribute paths, nested
//! loops, variable shadowing, keyword comparison operators, and realistic
//! multi-template sites.

use strudel_graph::{FileKind, Graph, Oid, Value};
use strudel_template::{Generator, TemplateSet};

fn library() -> (Graph, Oid) {
    let mut g = Graph::standalone();
    let root = g.new_node(Some("Library()"));
    let shelf_a = g.new_node(Some("Shelf(a)"));
    let shelf_b = g.new_node(Some("Shelf(b)"));
    for (shelf, title, year) in [
        (shelf_a, "UnQL", 1996i64),
        (shelf_a, "Lorel", 1997),
        (shelf_b, "StruQL", 1997),
    ] {
        let book = g.new_node(None);
        g.add_edge_str(book, "title", title).unwrap();
        g.add_edge_str(book, "year", year).unwrap();
        g.add_edge_str(shelf, "Book", Value::Node(book)).unwrap();
    }
    g.add_edge_str(shelf_a, "name", "A").unwrap();
    g.add_edge_str(shelf_b, "name", "B").unwrap();
    g.add_edge_str(root, "Shelf", Value::Node(shelf_a)).unwrap();
    g.add_edge_str(root, "Shelf", Value::Node(shelf_b)).unwrap();
    (g, root)
}

#[test]
fn nested_sfor_with_loop_variable_paths() {
    let (g, root) = library();
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        root,
        r#"<SFOR s IN @Shelf ORDER=ascend KEY=@name>[<SFMT @s.name>: <SFOR b IN @s.Book DELIM=", "><SFMT @b.title></SFOR>]</SFOR>"#,
    )
    .unwrap();
    let html = Generator::new(&g, &ts).render_fragment(root).unwrap();
    assert_eq!(html, "[A: UnQL, Lorel][B: StruQL]");
}

#[test]
fn inner_loop_variable_shadows_outer() {
    let mut g = Graph::standalone();
    let n = g.new_node(None);
    g.add_edge_str(n, "x", "outer").unwrap();
    let inner = g.new_node(None);
    g.add_edge_str(inner, "x", "inner").unwrap();
    g.add_edge_str(n, "child", Value::Node(inner)).unwrap();
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        n,
        r#"<SFOR v IN @x><SFMT @v><SFOR c IN @child><SFOR v IN @c.x>/<SFMT @v></SFOR></SFOR></SFOR>"#,
    )
    .unwrap();
    let html = Generator::new(&g, &ts).render_fragment(n).unwrap();
    assert_eq!(html, "outer/inner");
}

#[test]
fn keyword_comparison_operators_in_sif() {
    let mut g = Graph::standalone();
    let n = g.new_node(None);
    g.add_edge_str(n, "year", 1997i64).unwrap();
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        n,
        r#"<SIF @year GT 1996>gt</SIF><SIF @year LT 1998>lt</SIF><SIF @year GE 1997>ge</SIF><SIF @year LE 1997>le</SIF>"#,
    )
    .unwrap();
    assert_eq!(
        Generator::new(&g, &ts).render_fragment(n).unwrap(),
        "gtltgele"
    );
}

#[test]
fn attribute_path_through_multiple_hops() {
    let (g, root) = library();
    let mut ts = TemplateSet::new();
    // Root → first Shelf → first Book → title.
    ts.set_object_template(root, "<SFMT @Shelf.Book.title>")
        .unwrap();
    assert_eq!(
        Generator::new(&g, &ts).render_fragment(root).unwrap(),
        "UnQL"
    );
}

#[test]
fn sfmt_all_over_paths_collects_every_leaf() {
    let (g, root) = library();
    let mut ts = TemplateSet::new();
    ts.set_object_template(root, r#"<SFMT @Shelf.Book.title ALL DELIM="|">"#)
        .unwrap();
    assert_eq!(
        Generator::new(&g, &ts).render_fragment(root).unwrap(),
        "UnQL|Lorel|StruQL"
    );
}

#[test]
fn sort_by_numeric_key_descending() {
    let (g, root) = library();
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        root,
        r#"<SFOR b IN @Shelf.Book ORDER=descend KEY=@year DELIM=" "><SFMT @b.year></SFOR>"#,
    )
    .unwrap();
    let html = Generator::new(&g, &ts).render_fragment(root).unwrap();
    assert_eq!(html, "1997 1997 1996");
}

#[test]
fn multi_page_site_with_shared_and_object_templates() {
    let (mut g, root) = library();
    let shelves: Vec<Oid> = g
        .nodes()
        .iter()
        .copied()
        .filter(|n| g.node_name(*n).is_some_and(|s| s.starts_with("Shelf")))
        .collect();
    for &s in &shelves {
        g.add_to_collection_str("Shelves", Value::Node(s));
    }
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        root,
        r#"<SFOR s IN @Shelf LIST=ul><SFMT @s LINK=@s.name></SFOR>"#,
    )
    .unwrap();
    ts.set_collection_template(
        "Shelves",
        r#"<h1>Shelf <SFMT @name></h1><SFOR b IN @Book LIST=ol><SFMT @b.title> (<SFMT @b.year>)</SFOR>"#,
    )
    .unwrap();
    let site = Generator::new(&g, &ts).generate(&[root]).unwrap();
    assert_eq!(site.pages.len(), 3); // root + 2 shelves
    let shelf_a = site
        .pages
        .iter()
        .find(|(k, _)| k.contains("shelf_a"))
        .unwrap()
        .1;
    assert!(
        shelf_a.contains("<ol><li>UnQL (1996)</li><li>Lorel (1997)</li></ol>"),
        "{shelf_a}"
    );
}

#[test]
fn html_file_embeds_raw_text_file_escapes() {
    let mut g = Graph::standalone();
    let n = g.new_node(None);
    g.add_edge_str(n, "raw", Value::file(FileKind::Html, "frag.html"))
        .unwrap();
    g.add_edge_str(n, "txt", Value::file(FileKind::Text, "note.txt"))
        .unwrap();
    let mut ts = TemplateSet::new();
    ts.set_object_template(n, "<SFMT @raw>|<SFMT @txt>")
        .unwrap();
    let genr = Generator::new(&g, &ts).with_file_resolver(Box::new(|p| {
        Some(match p {
            "frag.html" => "<b>bold</b>".to_string(),
            "note.txt" => "<b>not bold</b>".to_string(),
            _ => return None,
        })
    }));
    assert_eq!(
        genr.render_fragment(n).unwrap(),
        "<b>bold</b>|&lt;b&gt;not bold&lt;/b&gt;"
    );
}

#[test]
fn empty_enumerations_render_empty() {
    let (g, root) = library();
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        root,
        r#"[<SFOR x IN @Missing><SFMT @x></SFOR>][<SFMT @Missing ALL LIST=ul>]"#,
    )
    .unwrap();
    assert_eq!(
        Generator::new(&g, &ts).render_fragment(root).unwrap(),
        "[][<ul></ul>]"
    );
}

#[test]
fn deep_embed_chain_renders() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    let c = g.new_node(Some("c"));
    g.add_edge_str(a, "next", Value::Node(b)).unwrap();
    g.add_edge_str(b, "next", Value::Node(c)).unwrap();
    g.add_edge_str(c, "leaf", "end").unwrap();
    let mut ts = TemplateSet::new();
    ts.set_object_template(a, "a(<SFMT @next EMBED>)").unwrap();
    ts.set_object_template(b, "b(<SFMT @next EMBED>)").unwrap();
    ts.set_object_template(c, "c(<SFMT @leaf>)").unwrap();
    assert_eq!(
        Generator::new(&g, &ts).render_fragment(a).unwrap(),
        "a(b(c(end)))"
    );
}

#[test]
fn every_worker_count_yields_the_pinned_pages() {
    let (mut g, root) = library();
    let shelves: Vec<Oid> = g
        .nodes()
        .iter()
        .copied()
        .filter(|n| g.node_name(*n).is_some_and(|s| s.starts_with("Shelf")))
        .collect();
    for &s in &shelves {
        g.add_to_collection_str("Shelves", Value::Node(s));
    }
    let mut ts = TemplateSet::new();
    ts.set_object_template(
        root,
        r#"<SFOR s IN @Shelf LIST=ul><SFMT @s LINK=@s.name></SFOR>"#,
    )
    .unwrap();
    ts.set_collection_template(
        "Shelves",
        r#"<h1><SFMT @name></h1><SFOR b IN @Book LIST=ol><SFMT @b.title></SFOR>"#,
    )
    .unwrap();
    // The pages as the generator this one replaced wrote them (49393a1).
    let pinned = [
        (
            "library.html",
            r#"<ul><li><a href="shelf_a.html">A</a></li><li><a href="shelf_b.html">B</a></li></ul>"#,
        ),
        (
            "shelf_a.html",
            "<h1>A</h1><ol><li>UnQL</li><li>Lorel</li></ol>",
        ),
        ("shelf_b.html", "<h1>B</h1><ol><li>StruQL</li></ol>"),
    ];
    let generator = Generator::new(&g, &ts);
    let mut built = vec![(0, generator.generate(&[root]).unwrap())];
    for threads in [1, 2, 8] {
        built.push((
            threads,
            generator.generate_parallel(&[root], threads).unwrap(),
        ));
    }
    for (threads, site) in built {
        let pages: Vec<(&str, &str)> = site
            .pages
            .iter()
            .map(|(name, html)| (name.as_str(), html.as_str()))
            .collect();
        assert_eq!(pages, pinned, "threads={threads} (0: `generate`)");
        assert_eq!(site.page_of.len(), 3);
    }
}

#[test]
fn parallel_generation_discovers_deep_chains() {
    // A linked list of pages: each wave discovers exactly one more.
    let mut g = Graph::standalone();
    let nodes: Vec<Oid> = (0..12)
        .map(|i| g.new_node(Some(&format!("page{i}"))))
        .collect();
    for w in nodes.windows(2) {
        g.add_edge_str(w[0], "next", Value::Node(w[1])).unwrap();
    }
    let mut ts = TemplateSet::new();
    ts.set_default(r#"me<SIF @next>, then <SFMT @next></SIF>"#)
        .unwrap();
    let site = Generator::new(&g, &ts)
        .generate_parallel(&[nodes[0]], 4)
        .unwrap();
    assert_eq!(site.pages.len(), 12);
    assert!(site.pages["page0.html"].contains("page1.html"));
}

#[test]
fn parallel_generation_reports_embed_errors() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_edge_str(a, "next", Value::Node(b)).unwrap();
    g.add_edge_str(b, "next", Value::Node(a)).unwrap();
    let mut ts = TemplateSet::new();
    ts.set_default("<SFMT @next EMBED>").unwrap();
    let err = Generator::new(&g, &ts)
        .generate_parallel(&[a], 2)
        .unwrap_err();
    assert!(err.to_string().contains("cycle"), "{err}");
}

#[test]
fn a_panicking_resolver_is_a_render_error_at_every_worker_count() {
    let mut g = Graph::standalone();
    let root = g.new_node(Some("root"));
    for i in 0..8 {
        let doc = g.new_node(Some(&format!("doc{i}")));
        g.add_edge_str(root, "doc", Value::Node(doc)).unwrap();
        let body = Value::file(FileKind::Text, format!("doc{i}.txt"));
        g.add_edge_str(doc, "body", body).unwrap();
    }
    let mut ts = TemplateSet::new();
    ts.set_default("<SFMT @doc ALL><SFMT @body>").unwrap();
    let generator = Generator::new(&g, &ts).with_file_resolver(Box::new(|path| {
        assert_ne!(path, "doc5.txt", "no such volume");
        Some(path.to_string())
    }));
    // The cause reaches the caller, as an error and not as a second panic.
    let mut errors = vec![generator.generate(&[root]).unwrap_err()];
    for threads in [1, 2, 8] {
        errors.push(generator.generate_parallel(&[root], threads).unwrap_err());
    }
    for err in errors {
        let err = err.to_string();
        assert!(err.starts_with("template render error: render worker panicked: "));
        assert!(err.contains("doc5.txt") && err.contains("no such volume"));
    }
}

#[test]
fn a_site_with_very_long_titles_can_be_published() {
    // Two pages whose names are 300-character titles alike for the first
    // 250: past any file system's 255-byte limit as they are.
    let mut g = Graph::standalone();
    let root = g.new_node(Some("root"));
    for tail in ["first", "second"] {
        let title = format!("Story({}{tail:x<50})", "a long headline ".repeat(16));
        let story = g.new_node(Some(&title));
        g.add_edge_str(root, "story", Value::Node(story)).unwrap();
    }
    let mut ts = TemplateSet::new();
    ts.set_default("<SFMT @story ALL>").unwrap();
    let site = Generator::new(&g, &ts).generate(&[root]).unwrap();
    assert_eq!(site.pages.len(), 3, "{:?}", site.pages.keys());
    assert!(site.pages.keys().all(|name| name.len() <= 255));
    let dir = std::env::temp_dir().join(format!("strudel_long_names_{}", std::process::id()));
    site.write_to_dir(&dir).unwrap();
    for name in site.pages.keys() {
        assert!(dir.join(name).exists());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
