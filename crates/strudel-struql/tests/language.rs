//! Language-level tests for StruQL corners: negation over paths, label-set
//! membership, predicates of several arguments, deep block nesting, query
//! merging, and error paths.

use strudel_graph::{Graph, Value};
use strudel_struql::program::Head;
use strudel_struql::{
    parse_query, BlockId, EvalOptions, PredicateRegistry, Query, SiteProgram, StruqlError,
};

fn chain(n: usize) -> Graph {
    let mut g = Graph::standalone();
    let nodes: Vec<_> = (0..n).map(|i| g.new_node(Some(&format!("n{i}")))).collect();
    for w in nodes.windows(2) {
        g.add_edge_str(w[0], "next", Value::Node(w[1])).unwrap();
    }
    for &n in &nodes {
        g.add_to_collection_str("Nodes", Value::Node(n));
    }
    g.add_to_collection_str("Head", Value::Node(nodes[0]));
    g
}

#[test]
fn negated_path_expression_filters_reachability() {
    // Pairs (x, y) of nodes such that y is NOT reachable from x.
    let g = chain(4); // n0 -> n1 -> n2 -> n3
    let q = parse_query(
        r#"WHERE Nodes(x), Nodes(y), not(x -> * -> y)
           CREATE Pair(x, y)
           COLLECT Unreachable(Pair(x, y))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    // Reachable pairs (including self): 4+3+2+1 = 10 of 16 → 6 unreachable.
    assert_eq!(out.graph.collection_str("Unreachable").unwrap().len(), 6);
}

#[test]
fn negated_in_set() {
    let mut g = chain(2);
    let head = g.nodes()[0];
    g.add_edge_str(head, "color", "red").unwrap();
    let q = parse_query(
        r#"WHERE Head(x), x -> l -> v, not(l in {"next"})
           COLLECT NonStructural(v)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("NonStructural").unwrap().items(),
        &[Value::str("red")]
    );
}

#[test]
fn multi_argument_predicates() {
    let mut g = Graph::standalone();
    let a = g.new_node(None);
    g.add_to_collection_str("C", Value::Node(a));
    g.add_edge_str(a, "name", "semistructured").unwrap();
    g.add_edge_str(a, "prefix", "semi").unwrap();
    let q = parse_query(
        r#"WHERE C(x), x -> "name" -> n, x -> "prefix" -> p, startsWith(n, p)
           COLLECT Hit(x)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Hit").unwrap().len(), 1);
}

#[test]
fn three_level_nesting_conjoins_all_ancestors() {
    let mut g = Graph::standalone();
    for (name, year, kind) in [("a", 1997i64, "x"), ("b", 1997, "y"), ("c", 1998, "x")] {
        let n = g.new_node(Some(name));
        g.add_to_collection_str("C", Value::Node(n));
        g.add_edge_str(n, "year", year).unwrap();
        g.add_edge_str(n, "kind", kind).unwrap();
    }
    let q = parse_query(
        r#"{ WHERE C(n), n -> "year" -> y
             { WHERE y = 1997
               { WHERE n -> "kind" -> "x" CREATE P(n) COLLECT Deep(P(n)) } } }"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    // Only "a" satisfies year=1997 ∧ kind=x.
    assert_eq!(out.graph.collection_str("Deep").unwrap().len(), 1);
}

#[test]
fn merged_queries_preserve_semantics() {
    let g = chain(3);
    let q1 = parse_query(r#"{ WHERE Nodes(x) CREATE P(x) COLLECT All(P(x)) }"#).unwrap();
    let q2 = parse_query(
        r#"{ WHERE Nodes(x), x -> "next" -> y CREATE P(x), P(y) LINK P(x) -> "Next" -> P(y) }"#,
    )
    .unwrap();
    let merged = Query::merge([&q1, &q2]);
    let out = merged.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("All").unwrap().len(), 3);
    assert_eq!(
        out.table.len(),
        3,
        "P(x) unifies across the merged children"
    );
    // Block ids renumbered in document order, without collision.
    let program = SiteProgram::compile(&merged, &PredicateRegistry::with_builtins()).unwrap();
    let ids: Vec<u32> = program.stages().iter().map(|s| s.block.id.0).collect();
    assert_eq!(ids, [0, 1, 2, 3, 4]);
}

#[test]
fn skolem_in_where_is_an_error() {
    let g = chain(2);
    let q = parse_query(r#"WHERE Nodes(F(x)) COLLECT Out(x)"#).unwrap();
    let err = q.evaluate(&g, &EvalOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("WHERE") || err.to_string().contains("Skolem"),
        "{err}"
    );
}

#[test]
fn link_label_var_bound_to_non_text_fails_cleanly() {
    let mut g = Graph::standalone();
    let a = g.new_node(None);
    g.add_to_collection_str("C", Value::Node(a));
    g.add_edge_str(a, "n", 42i64).unwrap();
    // l in the link position will be bound to... here l is an arc var
    // (fine). Bind a *node/int* to the label position instead via
    // assignment to check the runtime guard.
    let q = parse_query(
        r#"WHERE C(x), x -> "n" -> v, l = v
           CREATE P(x)
           LINK P(x) -> l -> x"#,
    )
    .unwrap();
    // l = 42 (an int) is not a label.
    let err = q.evaluate(&g, &EvalOptions::default()).unwrap_err();
    assert!(err.to_string().contains("label"), "{err}");
}

#[test]
fn collect_literal_values() {
    let g = chain(2);
    let q = parse_query(r#"WHERE Nodes(x) COLLECT Marked(x), Constant("tag")"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("Constant").unwrap().items(),
        &[Value::str("tag")]
    );
}

#[test]
fn arc_variable_joins_two_edges() {
    // Same attribute name on two different nodes: l joins them.
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_to_collection_str("L", Value::Node(a));
    g.add_to_collection_str("R", Value::Node(b));
    g.add_edge_str(a, "color", "red").unwrap();
    g.add_edge_str(a, "size", "big").unwrap();
    g.add_edge_str(b, "color", "blue").unwrap();
    let q = parse_query(
        r#"WHERE L(x), R(y), x -> l -> v, y -> l -> w
           CREATE Common(x, y)
           LINK Common(x, y) -> l -> v
           COLLECT Shared(Common(x, y))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    // Only "color" is shared.
    let common = out
        .table
        .lookup("Common", &[Value::Node(a), Value::Node(b)])
        .unwrap();
    let edges = out.graph.out_edges(common);
    assert_eq!(edges.len(), 1);
    assert_eq!(&*out.graph.resolve(edges[0].0), "color");
}

#[test]
fn custom_predicate_arity_two_in_rpe_rejected() {
    let mut preds = PredicateRegistry::with_builtins();
    preds.register("pair", 2, |_| true);
    let opts = EvalOptions {
        predicates: preds,
        ..Default::default()
    };
    let g = chain(2);
    let q = parse_query("WHERE Head(x), x -> pair* -> y COLLECT Out(y)").unwrap();
    let err = q.evaluate(&g, &opts).unwrap_err();
    assert!(matches!(err, StruqlError::Semantic(_)), "{err}");
}

#[test]
fn seq_and_plus_path_operators() {
    let g = chain(5);
    // Exactly two hops: "next"."next".
    let q = parse_query(r#"WHERE Head(x), x -> "next" . "next" -> y COLLECT Two(y)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let two = out.graph.collection_str("Two").unwrap();
    assert_eq!(two.len(), 1);
    // One or more hops.
    let q = parse_query(r#"WHERE Head(x), x -> "next"+ -> y COLLECT Plus(y)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("Plus").unwrap().len(),
        4,
        "head excluded"
    );
}

#[test]
fn optional_path_operator() {
    let g = chain(3);
    let q = parse_query(r#"WHERE Head(x), x -> "next"? -> y COLLECT ZeroOrOne(y)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("ZeroOrOne").unwrap().len(),
        2,
        "self + one hop"
    );
}

#[test]
fn output_and_input_names_are_carried() {
    let q = parse_query("INPUT A WHERE C(x) COLLECT O(x) OUTPUT B").unwrap();
    assert_eq!(q.input.as_deref(), Some("A"));
    assert_eq!(q.output.as_deref(), Some("B"));
    // Display keeps them.
    let printed = q.to_string();
    assert!(printed.contains("INPUT A") && printed.contains("OUTPUT B"));
}

#[test]
fn empty_collection_yields_empty_result_not_error() {
    let g = chain(2);
    let q = parse_query("WHERE Ghost(x) CREATE P(x) COLLECT O(P(x))").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.node_count(), 0);
    assert_eq!(
        out.graph.collection_str("O").map(|c| c.len()).unwrap_or(0),
        0
    );
}

#[test]
fn warnings_surface_in_stats() {
    let mut g = Graph::standalone();
    let a = g.new_node(None);
    g.add_edge_str(a, "e", Value::Node(a)).unwrap();
    let q =
        parse_query(r#"WHERE not(p -> l -> q) CREATE f(p), f(q) LINK f(p) -> l -> f(q)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert!(out
        .stats
        .warnings
        .iter()
        .any(|w| w.contains("active-domain")));
}

// ---- grouping & aggregation (the §5.2 extension) ----

fn pubs_by_year() -> Graph {
    let mut g = Graph::standalone();
    for (i, year) in [1997i64, 1997, 1997, 1998, 1998].iter().enumerate() {
        let p = g.new_node(Some(&format!("p{i}")));
        g.add_to_collection_str("Publications", Value::Node(p));
        g.add_edge_str(p, "year", *year).unwrap();
        g.add_edge_str(p, "pages", 10 * (i as i64 + 1)).unwrap();
    }
    g
}

#[test]
fn count_groups_by_link_source() {
    let g = pubs_by_year();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "year" -> y
           CREATE YearPage(y)
           LINK YearPage(y) -> "paperCount" -> COUNT(x),
                YearPage(y) -> "Year" -> y"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let y97 = out.table.lookup("YearPage", &[Value::Int(1997)]).unwrap();
    let y98 = out.table.lookup("YearPage", &[Value::Int(1998)]).unwrap();
    let count = out.graph.universe().interner().get("paperCount").unwrap();
    let r = out.graph.reader();
    assert_eq!(r.attr(y97, count), Some(&Value::Int(3)));
    assert_eq!(r.attr(y98, count), Some(&Value::Int(2)));
}

#[test]
fn sum_min_max_avg() {
    let g = pubs_by_year();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "pages" -> p
           CREATE Stats()
           LINK Stats() -> "total" -> SUM(p),
                Stats() -> "least" -> MIN(p),
                Stats() -> "most"  -> MAX(p),
                Stats() -> "mean"  -> AVG(p)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let stats = out.table.lookup("Stats", &[]).unwrap();
    let r = out.graph.reader();
    let get = |l: &str| {
        r.attr(stats, out.graph.universe().interner().get(l).unwrap())
            .cloned()
    };
    assert_eq!(get("total"), Some(Value::Int(10 + 20 + 30 + 40 + 50)));
    assert_eq!(get("least"), Some(Value::Int(10)));
    assert_eq!(get("most"), Some(Value::Int(50)));
    assert_eq!(get("mean"), Some(Value::Float(30.0)));
}

#[test]
fn aggregates_are_over_distinct_values() {
    // Two edges with the same value: COUNT sees one distinct value.
    let mut g = Graph::standalone();
    let a = g.new_node(None);
    g.add_to_collection_str("C", Value::Node(a));
    g.add_edge_str(a, "tag", "x").unwrap();
    g.add_edge_str(a, "tag", "x").unwrap();
    g.add_edge_str(a, "tag", "y").unwrap();
    let q = parse_query(
        r#"WHERE C(c), c -> "tag" -> t
           CREATE S(c) LINK S(c) -> "tags" -> COUNT(t)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let s = out.table.lookup("S", &[Value::Node(a)]).unwrap();
    let tags = out.graph.universe().interner().get("tags").unwrap();
    assert_eq!(out.graph.reader().attr(s, tags), Some(&Value::Int(2)));
}

#[test]
fn aggregate_in_collect() {
    let g = pubs_by_year();
    let q = parse_query(r#"WHERE Publications(x) COLLECT Sizes(COUNT(x))"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("Sizes").unwrap().items(),
        &[Value::Int(5)]
    );
}

#[test]
fn aggregate_in_where_is_rejected() {
    let g = pubs_by_year();
    let q = parse_query(r#"WHERE Publications(x), x -> "year" -> COUNT(x) COLLECT O(x)"#).unwrap();
    let err = q.evaluate(&g, &EvalOptions::default()).unwrap_err();
    assert!(err.to_string().contains("aggregate"), "{err}");
}

#[test]
fn dynamic_site_computes_aggregates_at_click_time() {
    use strudel_site::{DynamicSite, PageRef, Target};
    let g = pubs_by_year();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "year" -> y
           CREATE YearPage(y)
           LINK YearPage(y) -> "paperCount" -> COUNT(x)"#,
    )
    .unwrap();
    let site = DynamicSite::new(&g, &q, EvalOptions::default()).unwrap();
    let page = PageRef {
        skolem: "YearPage".into(),
        args: vec![Value::Int(1997)],
    };
    let links = site.expand(&page).unwrap();
    assert_eq!(links.len(), 1);
    assert_eq!(links[0].label, "paperCount");
    assert!(
        matches!(&links[0].target, Target::Value(Value::Int(3))),
        "{links:?}"
    );
}

// ---- database-level INPUT/OUTPUT resolution ----

#[test]
fn run_on_database_resolves_graph_names() {
    use strudel_graph::Database;
    use strudel_struql::{run_on_database, SkolemTable};
    let mut db = Database::new();
    {
        let g = db.create_graph("BIBTEX").unwrap();
        let p = g.new_node(Some("p1"));
        g.add_to_collection_str("Publications", Value::Node(p));
        g.add_edge_str(p, "title", "UnQL").unwrap();
    }
    let q = parse_query(
        r#"INPUT BIBTEX
           WHERE Publications(x), x -> "title" -> t
           CREATE Page(x) LINK Page(x) -> "T" -> t COLLECT Pages(Page(x))
           OUTPUT HomePage"#,
    )
    .unwrap();
    let mut table = SkolemTable::new();
    run_on_database(&mut db, &q, &mut table, &EvalOptions::default()).unwrap();
    let home = db.graph("HomePage").unwrap();
    assert_eq!(home.collection_str("Pages").unwrap().len(), 1);

    // A second query extends the same output graph (§5.2 composition).
    let q2 = parse_query(
        r#"INPUT BIBTEX
           WHERE Publications(x)
           CREATE Page(x), Index()
           LINK Index() -> "Entry" -> Page(x)
           OUTPUT HomePage"#,
    )
    .unwrap();
    run_on_database(&mut db, &q2, &mut table, &EvalOptions::default()).unwrap();
    let home = db.graph("HomePage").unwrap();
    // Page(x) unified; Index() added.
    assert_eq!(home.collection_str("Pages").unwrap().len(), 1);
    assert_eq!(table.lookup("Index", &[]).map(|_| ()), Some(()));
    assert_eq!(home.node_count(), 2);
}

#[test]
fn run_on_database_requires_names() {
    use strudel_graph::Database;
    use strudel_struql::{run_on_database, SkolemTable};
    let mut db = Database::new();
    db.create_graph("G").unwrap();
    let q = parse_query("WHERE C(x) COLLECT O(x)").unwrap();
    let err = run_on_database(
        &mut db,
        &q,
        &mut SkolemTable::new(),
        &EvalOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("INPUT"), "{err}");
}

// ---- further operator edge cases ----

#[test]
fn any_single_edge_wildcard() {
    let g = chain(3);
    // `_` is exactly one edge: from head, reaches n1 only.
    let q = parse_query("WHERE Head(x), x -> _ -> y COLLECT One(y)").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("One").unwrap().len(), 1);
}

#[test]
fn in_set_as_binder_when_unbound() {
    // Positive `l in {...}` with l unbound enumerates the set.
    let mut g = Graph::standalone();
    let a = g.new_node(None);
    g.add_to_collection_str("C", Value::Node(a));
    g.add_edge_str(a, "x", 1i64).unwrap();
    g.add_edge_str(a, "y", 2i64).unwrap();
    g.add_edge_str(a, "z", 3i64).unwrap();
    let q = parse_query(r#"WHERE C(c), l in {"x", "z"}, c -> l -> v COLLECT Picked(v)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let picked = out.graph.collection_str("Picked").unwrap();
    assert_eq!(picked.len(), 2);
    assert!(picked.contains(&Value::Int(1)) && picked.contains(&Value::Int(3)));
}

#[test]
fn both_ends_bound_edge_probe() {
    let g = chain(3);
    // Join shape where the final condition is a pure edge-existence probe.
    let q = parse_query(
        r#"WHERE Nodes(x), Nodes(y), x -> "next" -> y
           CREATE E(x, y) COLLECT Edges(E(x, y))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Edges").unwrap().len(), 2);
}

#[test]
fn negated_predicate_filters() {
    let mut g = Graph::standalone();
    for (name, v) in [("a", Value::str("x")), ("b", Value::Int(1))] {
        let n = g.new_node(Some(name));
        g.add_to_collection_str("C", Value::Node(n));
        g.add_edge_str(n, "val", v).unwrap();
    }
    let q =
        parse_query(r#"WHERE C(c), c -> "val" -> v, not(isString(v)) COLLECT NonStr(c)"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("NonStr").unwrap().len(), 1);
}

#[test]
fn var_var_equality_joins_columns() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_to_collection_str("L", Value::Node(a));
    g.add_to_collection_str("R", Value::Node(b));
    g.add_edge_str(a, "k", 7i64).unwrap();
    g.add_edge_str(b, "k", 7i64).unwrap();
    let q = parse_query(
        r#"WHERE L(x), R(y), x -> "k" -> u, y -> "k" -> w, u = w
           CREATE M(x, y) COLLECT Matched(M(x, y))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Matched").unwrap().len(), 1);
}

#[test]
fn link_to_literal_target() {
    let g = chain(2);
    let q = parse_query(r#"WHERE Nodes(x) CREATE T(x) LINK T(x) -> "kind" -> "node""#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let kind = out.graph.universe().interner().get("kind").unwrap();
    let r = out.graph.reader();
    for &n in out.graph.nodes() {
        assert_eq!(r.attr(n, kind), Some(&Value::str("node")));
    }
}

#[test]
fn alternation_of_paths_with_different_lengths() {
    let g = chain(4);
    // Either exactly one or exactly three hops from the head.
    let q = parse_query(r#"WHERE Head(x), x -> "next" | "next"."next"."next" -> y COLLECT Hit(y)"#)
        .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Hit").unwrap().len(), 2); // n1 and n3
}

#[test]
fn create_only_nested_block_multiplicity() {
    // Creates in a nested block run once per *binding* but Skolem identity
    // deduplicates: one node per distinct year.
    let mut g = Graph::standalone();
    for y in [1990i64, 1990, 1991] {
        let n = g.new_node(None);
        g.add_to_collection_str("C", Value::Node(n));
        g.add_edge_str(n, "year", y).unwrap();
    }
    let q =
        parse_query(r#"{ WHERE C(x), x -> "year" -> y CREATE Y(y) COLLECT Years(Y(y)) }"#).unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Years").unwrap().len(), 2);
}

// ---- the site program: stages, conjunctions, clauses ----

const NESTED: &str = r#"
WHERE Publications(x), x -> l -> v
CREATE Page(x)
LINK Page(x) -> l -> v
COLLECT Pages(Page(x))
{ WHERE l = "year" CREATE YearPage(v) LINK YearPage(v) -> "Paper" -> Page(x) }
{ CREATE Index() LINK Index() -> "Page" -> Page(x), Index() -> "Value" -> v }
"#;

fn program(src: &str) -> SiteProgram {
    let q = parse_query(src).unwrap();
    SiteProgram::compile(&q, &PredicateRegistry::with_builtins()).unwrap()
}

/// The stages are the blocks in document order, root first.
#[test]
fn blocks_in_document_order() {
    let p = program(NESTED);
    let ids: Vec<BlockId> = p.stages().iter().map(|s| s.block.id).collect();
    assert_eq!(ids, [BlockId(0), BlockId(1), BlockId(2)]);
}

#[test]
fn stage_prefix_conjoins_ancestors() {
    let p = program(NESTED);
    let year = &p.stages()[1];
    assert_eq!(year.prefix.len(), 3, "2 from the root + 1 own");
    assert_eq!(year.block.where_.len(), 1);
    assert_eq!(year.bound, ["x", "l", "v"]);
    assert_eq!(year.governing, [BlockId(0), BlockId(1)]);
    // A block without a WHERE governs nothing of its own.
    assert_eq!(p.stages()[2].governing, [BlockId(0)]);
}

#[test]
fn stages_nest_in_document_order() {
    let p = program(NESTED);
    assert_eq!(p.stages()[0].children, [1, 2]);
    assert!(p.stages()[1].children.is_empty());
    assert!(p.stages().iter().all(|s| s.block.children.is_empty()));
    let merged = Query::merge([&parse_query(NESTED).unwrap(), &parse_query(NESTED).unwrap()]);
    let p = SiteProgram::compile(&merged, &PredicateRegistry::with_builtins()).unwrap();
    assert_eq!(p.stages()[0].children, [1, 4], "one stage per query");
}

#[test]
fn links_of_one_stage_share_a_conjunction_per_source() {
    let p = program(NESTED);
    let links: Vec<(&str, usize)> = (p.clauses().iter())
        .filter_map(|c| match &c.head {
            Head::Link { link, conjunction } => Some((link.from.name.as_str(), *conjunction)),
            _ => None,
        })
        .collect();
    // One conjunction per (stage, source arguments): the two `Index()`
    // links share theirs.
    assert_eq!(p.conjunctions().len(), 3);
    assert_eq!(links[2], ("Index", links[3].1));
    assert_eq!(p.conjunctions()[links[2].1].stage, 2);
    assert_eq!(p.conjunctions()[links[1].1].args, ["v"]);
    assert!(p.arc_vars().contains("l"));
}
