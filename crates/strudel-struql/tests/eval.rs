//! End-to-end evaluation tests: the paper's example queries run against the
//! paper's example data.

use strudel_graph::{ddl, FileKind, Graph, Value};
use strudel_obs::trace::{self, AttrValue, SpanRecord};
use strudel_struql::{parse_query, EvalOptions, Optimizer, PredicateRegistry, SkolemTable};

/// Fig. 2 of the paper.
const FIG2: &str = r#"
collection Publications {
  abstract   text
  postscript ps
}
object pub1 in Publications {
  title      "Specifying Representations..."
  author     "Norman Ramsey"
  author     "Mary Fernandez"
  year       1997
  month      "May"
  journal    "Transactions on Programming..."
  pub-type   "article"
  abstract   "abstracts/toplas97.txt"
  postscript "papers/toplas97.ps.gz"
  volume     "19 (3)"
  category   "Architecture Specifications"
  category   "Programming Languages"
}
object pub2 in Publications {
  title      "Optimizing Regular..."
  author     "Mary Fernandez"
  author     "Dan Suciu"
  year       1998
  booktitle  "Proc. of ICDE"
  pub-type   "inproceedings"
  abstract   "abstracts/icde98.txt"
  postscript "papers/icde98.ps.gz"
  category   "Semistructured Data"
  category   "Programming Languages"
}
"#;

/// Fig. 3 of the paper.
const FIG3: &str = r#"
INPUT BIBTEX
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
  {
    WHERE l = "category"
    CREATE CategoryPage(v)
    LINK CategoryPage(v) -> "Name" -> v,
         CategoryPage(v) -> "Paper" -> PaperPresentation(x),
         RootPage() -> "CategoryPage" -> CategoryPage(v)
  }
}
OUTPUT HomePage
"#;

fn fig2_graph() -> Graph {
    ddl::parse(FIG2).unwrap()
}

fn find_node(g: &Graph, name: &str) -> Option<strudel_graph::Oid> {
    g.nodes()
        .iter()
        .copied()
        .find(|&n| g.node_name(n).as_deref() == Some(name))
}

fn out_by_label(g: &Graph, n: strudel_graph::Oid, label: &str) -> Vec<Value> {
    let sym = g
        .universe()
        .interner()
        .get(label)
        .unwrap_or(strudel_graph::Sym(u32::MAX));
    g.out_edges(n)
        .into_iter()
        .filter(|(l, _)| *l == sym)
        .map(|(_, v)| v)
        .collect()
}

#[test]
fn fig3_builds_fig4_site_graph() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    let site = &out.graph;

    // Skolem pages exist.
    let root = find_node(site, "RootPage()").expect("RootPage");
    let abstracts = find_node(site, "AbstractsPage()").expect("AbstractsPage");
    let y1997 = find_node(site, "YearPage(1997)").expect("YearPage(1997)");
    let y1998 = find_node(site, "YearPage(1998)").expect("YearPage(1998)");
    assert!(find_node(site, "CategoryPage(Programming Languages)").is_some());
    assert!(find_node(site, "PaperPresentation(&0)").is_some());

    // Root links to both year pages and the abstracts page (Fig. 4).
    let year_links = out_by_label(site, root, "YearPage");
    assert_eq!(year_links.len(), 2);
    assert!(year_links.contains(&Value::Node(y1997)) && year_links.contains(&Value::Node(y1998)));
    assert_eq!(
        out_by_label(site, root, "AbstractsPage"),
        vec![Value::Node(abstracts)]
    );

    // Root links to three distinct category pages (3 distinct categories).
    assert_eq!(out_by_label(site, root, "CategoryPage").len(), 3);

    // Year pages carry their year and exactly one paper each.
    assert_eq!(out_by_label(site, y1997, "Year"), vec![Value::Int(1997)]);
    assert_eq!(out_by_label(site, y1997, "Paper").len(), 1);

    // The shared category links both papers.
    let pl = find_node(site, "CategoryPage(Programming Languages)").unwrap();
    assert_eq!(out_by_label(site, pl, "Paper").len(), 2);

    // PaperPresentation copied all 12 attributes of pub1 plus the
    // "Abstract" link.
    let pp1 = find_node(site, "PaperPresentation(&0)").unwrap();
    let pp1_out = site.out_edges(pp1);
    assert_eq!(pp1_out.len(), 13, "{pp1_out:?}");

    // AbstractsPage links to an abstract page per publication.
    assert_eq!(out_by_label(site, abstracts, "Abstract").len(), 2);
}

#[test]
fn all_optimizers_agree_on_fig3() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let mut signatures = Vec::new();
    for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
        let out = q
            .evaluate(&data, &EvalOptions::with_optimizer(opt))
            .unwrap();
        let mut edges: Vec<String> = out
            .graph
            .edges()
            .iter()
            .map(|e| {
                // Display node targets by provenance name: oids differ
                // between runs sharing a universe, names do not.
                let to = match &e.to {
                    Value::Node(n) => out.graph.node_name(*n).unwrap_or_default().to_string(),
                    other => other.to_string(),
                };
                format!(
                    "{}--{}-->{}",
                    out.graph.node_name(e.from).unwrap_or_default(),
                    out.graph.resolve(e.label),
                    to
                )
            })
            .collect();
        edges.sort();
        signatures.push(edges);
    }
    assert_eq!(signatures[0], signatures[1]);
    assert_eq!(signatures[1], signatures[2]);
}

/// Fig. 3 over the Fig. 2 data builds 11 site nodes and 65 edges.
#[test]
fn fig3_output_counts_are_pinned() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!((out.graph.node_count(), out.graph.edge_count()), (11, 65));
}

#[test]
fn postscript_collect_example() {
    // §3: all PostScript papers directly accessible from home pages.
    let mut g = Graph::standalone();
    let home = g.new_node(Some("home"));
    g.add_to_collection_str("HomePages", Value::Node(home));
    g.add_edge_str(home, "Paper", Value::file(FileKind::PostScript, "a.ps"))
        .unwrap();
    g.add_edge_str(home, "Paper", Value::file(FileKind::Text, "b.txt"))
        .unwrap();
    g.add_edge_str(home, "Other", Value::file(FileKind::PostScript, "c.ps"))
        .unwrap();

    let q = parse_query(
        r#"WHERE HomePages(p), p -> "Paper" -> q, isPostScript(q)
           COLLECT PostscriptPages(q)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let coll = out.graph.collection_str("PostscriptPages").unwrap();
    assert_eq!(coll.items(), &[Value::file(FileKind::PostScript, "a.ps")]);
}

#[test]
fn text_only_copy_query() {
    // §3 TextOnly: copy the part of the graph reachable from the root,
    // excluding image files.
    let mut g = Graph::standalone();
    let root = g.new_node(Some("root"));
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    let unreachable = g.new_node(Some("zzz"));
    g.add_to_collection_str("Root", Value::Node(root));
    g.add_edge_str(root, "to", Value::Node(a)).unwrap();
    g.add_edge_str(a, "to", Value::Node(b)).unwrap();
    g.add_edge_str(a, "img", Value::file(FileKind::Image, "x.gif"))
        .unwrap();
    g.add_edge_str(b, "text", "hello").unwrap();
    g.add_edge_str(unreachable, "to", Value::Node(root))
        .unwrap();

    let q = parse_query(
        r#"WHERE Root(p), p -> * -> q, q -> l -> q0, not(isImageFile(q0))
           CREATE New(p), New(q), New(q0)
           LINK New(q) -> l -> New(q0)
           COLLECT TextOnlyRoot(New(p))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    let site = &out.graph;

    // New(root), New(a), New(b), New("hello") — no image node, and the
    // unreachable node is not copied.
    assert!(find_node(site, "New(&0)").is_some());
    assert!(find_node(site, "New(&1)").is_some());
    assert!(find_node(site, "New(&2)").is_some());
    assert!(
        find_node(site, "New(&3)").is_none(),
        "unreachable node must not be copied"
    );
    let na = find_node(site, "New(&1)").unwrap();
    assert!(
        out_by_label(site, na, "img").is_empty(),
        "image edge must be dropped"
    );
    assert_eq!(out_by_label(site, na, "to").len(), 1);
    assert_eq!(site.collection_str("TextOnlyRoot").unwrap().len(), 1);
}

#[test]
fn complement_query_active_domain() {
    // §3: the complement of a graph.
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_edge_str(a, "e", Value::Node(b)).unwrap();

    let q = parse_query(
        r#"WHERE not(p -> l -> q)
           CREATE f(p), f(q)
           LINK f(p) -> l -> f(q)"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    // Active domain: p,q ∈ {a,b}, l ∈ {e}. Original has a-e->b only, so the
    // complement has a-e->a, b-e->a, b-e->b.
    let fa = find_node(&out.graph, "f(&0)").unwrap();
    let fb = find_node(&out.graph, "f(&1)").unwrap();
    let edges = out.graph.edges();
    assert_eq!(edges.len(), 3, "{edges:?}");
    assert!(out_by_label(&out.graph, fa, "e").contains(&Value::Node(fa)));
    assert!(out_by_label(&out.graph, fb, "e").contains(&Value::Node(fa)));
    assert!(out_by_label(&out.graph, fb, "e").contains(&Value::Node(fb)));
    assert!(!out_by_label(&out.graph, fa, "e").contains(&Value::Node(fb)));
}

/// Builds a graph encoding an arbitrary binary relation R(a,b) as
/// `pair -> "fst" -> a, pair -> "snd" -> b` — the encoding under which a
/// single where–link query cannot express transitive closure, but a
/// composition of two StruQL queries can (§3, "Expressive power").
fn relation_graph(pairs: &[(i64, i64)]) -> Graph {
    let mut g = Graph::standalone();
    for &(a, b) in pairs {
        let p = g.new_node(None);
        g.add_to_collection_str("R", Value::Node(p));
        g.add_edge_str(p, "fst", a).unwrap();
        g.add_edge_str(p, "snd", b).unwrap();
    }
    g
}

#[test]
fn transitive_closure_via_two_query_composition() {
    // Query 1: re-encode the relation as graph edges N(a) -"r"-> N(b).
    let q1 = parse_query(
        r#"WHERE R(p), p -> "fst" -> a, p -> "snd" -> b
           CREATE N(a), N(b)
           LINK N(a) -> "r" -> N(b),
                N(a) -> "val" -> a,
                N(b) -> "val" -> b"#,
    )
    .unwrap();
    // Query 2: transitive closure = reachability over the edge encoding.
    let q2 = parse_query(
        r#"WHERE x -> "val" -> a, x -> "r"+ -> y, y -> "val" -> b
           CREATE Pair(a, b)
           LINK Pair(a, b) -> "fst" -> a, Pair(a, b) -> "snd" -> b
           COLLECT TC(Pair(a, b))"#,
    )
    .unwrap();
    let closure = |g: &Graph| {
        let step1 = q1.evaluate(g, &EvalOptions::default()).unwrap();
        q2.evaluate(&step1.graph, &EvalOptions::default())
            .unwrap()
            .graph
    };

    // R = {(1,2),(2,3),(3,4)}; TC(R) ∋ (1,4).
    let tc = closure(&relation_graph(&[(1, 2), (2, 3), (3, 4)]));
    // TC of a 3-edge chain: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
    assert_eq!(tc.collection_str("TC").unwrap().len(), 6);
    assert!(find_node(&tc, "Pair(1,4)").is_some());
    assert!(find_node(&tc, "Pair(1,1)").is_none());

    // The closure of an n-edge chain has n(n+1)/2 pairs.
    for n in [32, 64, 128] {
        let chain: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
        let tc = closure(&relation_graph(&chain));
        let n = n as usize;
        assert_eq!(tc.collection_str("TC").unwrap().len(), n * (n + 1) / 2);
    }
}

#[test]
fn reverse_traversal_when_target_bound() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    let c = g.new_node(Some("c"));
    g.add_edge_str(a, "to", Value::Node(b)).unwrap();
    g.add_edge_str(b, "to", Value::Node(c)).unwrap();
    g.add_edge_str(c, "tag", "goal").unwrap();

    // `x -> "to"+ -> y` with y bound via the tag: sources of paths to c.
    let q = parse_query(
        r#"WHERE y -> "tag" -> "goal", x -> "to"+ -> y
           CREATE S(x) COLLECT Sources(S(x))"#,
    )
    .unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Sources").unwrap().len(), 2); // a and b
}

#[test]
fn arc_variable_carries_irregularity_into_links() {
    let data = fig2_graph();
    let q = parse_query(
        r#"WHERE Publications(x), x -> l -> v, l in {"journal", "booktitle"}
           CREATE Venue(x)
           LINK Venue(x) -> l -> v"#,
    )
    .unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    // pub1 has journal; pub2 has booktitle — each Venue node carries its own
    // attribute name.
    let v1 = find_node(&out.graph, "Venue(&0)").unwrap();
    let v2 = find_node(&out.graph, "Venue(&1)").unwrap();
    assert_eq!(out_by_label(&out.graph, v1, "journal").len(), 1);
    assert!(out_by_label(&out.graph, v1, "booktitle").is_empty());
    assert_eq!(out_by_label(&out.graph, v2, "booktitle").len(), 1);
}

#[test]
fn shared_skolem_table_composes_queries() {
    // §5.2: different queries create different parts of the same site.
    let data = fig2_graph();
    let q1 = parse_query(r#"WHERE Publications(x) CREATE Page(x) COLLECT Pages(Page(x))"#).unwrap();
    let q2 = parse_query(
        r#"WHERE Publications(x), x -> "title" -> t
           CREATE Page(x)
           LINK Page(x) -> "Title" -> t"#,
    )
    .unwrap();
    let mut out = Graph::new(std::sync::Arc::clone(data.universe()));
    let mut table = SkolemTable::new();
    let opts = EvalOptions::default();
    q1.evaluate_into(&data, &mut out, &mut table, &opts)
        .unwrap();
    let nodes_after_q1 = out.node_count();
    q2.evaluate_into(&data, &mut out, &mut table, &opts)
        .unwrap();
    // q2 reused q1's Page(x) nodes rather than creating new ones.
    assert_eq!(
        out.node_count(),
        nodes_after_q1,
        "Skolem terms must unify across queries"
    );
    let page = find_node(&out, "Page(&0)").unwrap();
    assert_eq!(out_by_label(&out, page, "Title").len(), 1);
}

#[test]
fn assignment_comparison_binds() {
    let data = fig2_graph();
    let q = parse_query(
        r#"WHERE y = 1997, Publications(x), x -> "year" -> y
           COLLECT Of1997(x)"#,
    )
    .unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Of1997").unwrap().len(), 1);
}

#[test]
fn comparison_operators_filter() {
    let data = fig2_graph();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "year" -> y, y >= 1998
           COLLECT Recent(x)"#,
    )
    .unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Recent").unwrap().len(), 1);
}

#[test]
fn negated_collection_membership() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_to_collection_str("All", Value::Node(a));
    g.add_to_collection_str("All", Value::Node(b));
    g.add_to_collection_str("Banned", Value::Node(b));
    let q = parse_query("WHERE All(x), not(Banned(x)) COLLECT Ok(x)").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("Ok").unwrap().items(),
        &[Value::Node(a)]
    );
}

#[test]
fn external_predicate_in_query() {
    let data = fig2_graph();
    let mut preds = PredicateRegistry::with_builtins();
    preds.register("isProgrammingLanguages", 1, |args| {
        args[0].text().is_some_and(|t| t.contains("Programming"))
    });
    let opts = EvalOptions {
        predicates: preds,
        ..Default::default()
    };
    let q = parse_query(
        r#"WHERE Publications(x), x -> "category" -> c, isProgrammingLanguages(c)
           COLLECT PL(x)"#,
    )
    .unwrap();
    let out = q.evaluate(&data, &opts).unwrap();
    assert_eq!(out.graph.collection_str("PL").unwrap().len(), 2);
}

#[test]
fn max_rows_guard_fires() {
    let mut g = Graph::standalone();
    for _ in 0..50 {
        let n = g.new_node(None);
        g.add_to_collection_str("C", Value::Node(n));
    }
    let opts = EvalOptions {
        max_rows: 100,
        ..Default::default()
    };
    // 50 × 50 = 2500 rows > 100.
    let q = parse_query("WHERE C(x), C(y), C(z) COLLECT Out(x)").unwrap();
    let err = q.evaluate(&g, &opts).unwrap_err();
    assert!(err.to_string().contains("max_rows"), "{err}");
}

#[test]
fn bindings_of_block_computes_governing_conjunction() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let opts = EvalOptions::default();
    let program = strudel_struql::SiteProgram::compile(&q, &opts.predicates).unwrap();
    let bindings_of_block = |id| {
        let mut stages = program.stages().iter();
        let stage = stages.find(|s| s.block.id == strudel_struql::BlockId(id));
        let prefix = &stage.expect("a block of that id").prefix;
        let unit = strudel_struql::Bindings::unit();
        let once = strudel_struql::PlanSlot::default();
        strudel_struql::evaluate_conditions(prefix, &data, unit, &opts, &once).unwrap()
    };
    // Block Q2 (BlockId 1): Publications(x), x->l->v — one row per attribute.
    assert_eq!(bindings_of_block(1).len(), 22); // 12 attrs of pub1 + 10 of pub2
                                                // Block Q3 (BlockId 2): … ∧ l = "year" — one row per publication.
    assert_eq!(bindings_of_block(2).len(), 2);
}

#[test]
fn explain_lists_block_plans() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let text = q.explain(&data, &EvalOptions::default()).unwrap();
    assert!(text.contains("Q2"), "{text}");
    // Explain prints the compiled physical plan: concrete operator tags
    // plus per-node row estimates.
    assert!(
        text.contains("collection-scan") || text.contains("label-forward"),
        "{text}"
    );
    assert!(text.contains("arc-forward"), "{text}");
    assert!(text.contains("est. cost"), "{text}");
}

#[test]
fn stats_track_construction() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert!(out.stats.construct.nodes_created >= 9); // root, abstracts, 2 pp, 2 ap, 2 years, 3 cats
    assert!(out.stats.construct.edges_created > 20);
    assert!(out.stats.conditions_applied > 0);
    assert!(out.stats.intermediate_rows > 0);
}

#[test]
fn empty_where_creates_once() {
    let g = Graph::standalone();
    let q = parse_query("CREATE HomePage() COLLECT Roots(HomePage())").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.node_count(), 1);
    assert_eq!(out.graph.collection_str("Roots").unwrap().len(), 1);
}

#[test]
fn star_includes_source_itself() {
    // "finds all nodes q reachable from the root p (including p itself)".
    let mut g = Graph::standalone();
    let root = g.new_node(Some("root"));
    g.add_to_collection_str("Root", Value::Node(root));
    let q = parse_query("WHERE Root(p), p -> * -> q COLLECT Reached(q)").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(
        out.graph.collection_str("Reached").unwrap().items(),
        &[Value::Node(root)]
    );
}

#[test]
fn alternation_label_sets() {
    let data = fig2_graph();
    let q = parse_query(
        r#"WHERE Publications(x), x -> "journal" | "booktitle" -> v
           COLLECT Venues(v)"#,
    )
    .unwrap();
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Venues").unwrap().len(), 2);
}

#[test]
fn cyclic_graphs_terminate() {
    let mut g = Graph::standalone();
    let a = g.new_node(Some("a"));
    let b = g.new_node(Some("b"));
    g.add_to_collection_str("Root", Value::Node(a));
    g.add_edge_str(a, "to", Value::Node(b)).unwrap();
    g.add_edge_str(b, "to", Value::Node(a)).unwrap();
    let q = parse_query("WHERE Root(p), p -> * -> q COLLECT Reached(q)").unwrap();
    let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Reached").unwrap().len(), 2);
}

/// Evaluates `q` over `data` under a root span on a recorder of its own and
/// returns the output with every span of that trace, and the recorder.
fn traced(
    q: &strudel_struql::Query,
    data: &Graph,
) -> (strudel_struql::EvalOutput, Vec<SpanRecord>, trace::Recorder) {
    let recorder = trace::Recorder::new(trace::TraceConfig::default());
    let root = recorder.begin_request("test.eval");
    let entered = trace::enter(&root.ctx());
    let out = q.evaluate(data, &EvalOptions::default()).unwrap();
    drop(entered);
    let summary = root.finish();
    let spans = recorder.snapshot_spans();
    assert_eq!(spans.len(), summary.spans as usize, "the ring wrapped");
    (out, spans, recorder)
}

fn attr<'s>(span: &'s SpanRecord, key: &str) -> &'s AttrValue {
    let found = span.attrs.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("no {key} on {span:?}")).1
}

fn num(span: &SpanRecord, key: &str) -> u64 {
    match attr(span, key) {
        AttrValue::U64(v) => *v,
        other => panic!("{key} is {other:?}"),
    }
}

fn text<'s>(span: &'s SpanRecord, key: &str) -> &'s str {
    match attr(span, key) {
        AttrValue::Text(t) => t,
        other => panic!("{key} is {other:?}"),
    }
}

#[test]
fn profile_reports_strategies_rows_and_blocks() {
    let data = fig2_graph();
    let q = parse_query(FIG3).unwrap();
    let (out, spans, recorder) = traced(&q, &data);
    let blocks: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "eval.block").collect();
    let ops: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "eval.op").collect();
    assert!(!ops.is_empty());
    for op in &ops {
        assert!(!text(op, "op").is_empty(), "untagged operator: {op:?}");
        let block = blocks.iter().find(|b| b.span_id == op.parent_id);
        assert!(!text(block.expect("an eval.block parent"), "block").is_empty());
        assert!(!text(op, "cond").is_empty());
    }
    // The outer block scans the Publications collection, then walks arcs
    // forward from the bound source; the inner blocks filter on `l`.
    let by_op = |tag: &str| ops.iter().find(|op| text(op, "op") == tag);
    assert!(by_op("collection-scan").is_some());
    let arc = by_op("arc-forward").expect("arc-forward");
    assert!(num(arc, "obs_rows") >= num(arc, "rows_in"));
    assert!(by_op("compare-filter").is_some());

    // Tracing changes observability only, never the result; and without a
    // trace on the thread the evaluator records nothing.
    let recorded = recorder.stats().spans_recorded;
    let plain = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.edge_count(), plain.graph.edge_count());
    assert_eq!(recorder.stats().spans_recorded, recorded);
}

#[test]
fn profile_sees_path_memo_traffic() {
    // An RPE memoizes its automaton and reach sets in the plan slot of its
    // conjunction; the operator's span reports the lookups it made.
    let data = fig2_graph();
    let q = parse_query(r#"WHERE Publications(x), x -> * -> v COLLECT Reached(v)"#).unwrap();
    let (_, spans, _) = traced(&q, &data);
    let rpe = spans
        .iter()
        .find(|s| s.name == "eval.op" && text(s, "op") == "rpe-forward")
        .expect("rpe-forward");
    assert!(
        num(rpe, "path_hits") + num(rpe, "path_misses") > 0,
        "path memo untouched: {rpe:?}"
    );
}

/// `l = "section"` for the arc variable of `a -> l -> v` is planned as the
/// path `-> "section" ->`: the compare goes first and the edge condition
/// runs on a single-label operator, costed from the label's four edges
/// (not the graph's seven). In written order the edge runs first, on the
/// arc operator, and the compare filters after it.
#[test]
fn explain_shows_a_known_label_as_a_single_label_path() {
    let data = ddl::parse(
        r#"
object a1 in Articles { headline "one" section "sports" section "us" }
object a2 in Articles { headline "two" section "sports" }
object a3 in Articles { headline "three" section "tech" }
"#,
    )
    .unwrap();
    let q = parse_query(r#"WHERE Articles(a), a -> l -> v, l = "section" COLLECT Out(v)"#).unwrap();
    assert_eq!(
        q.explain(&data, &EvalOptions::default()).unwrap(),
        r#"Q1:
  0. [compare-bind] l = "section"  est 1.0 rows
  1. [label-scan] a -> l -> v as -> "section" ->  est 4.0 rows
  2. [collection-semijoin] Articles(a)  est 2.0 rows
  est. cost: 7.0 (cost-based)
"#
    );
    assert_eq!(
        q.explain(&data, &EvalOptions::with_optimizer(Optimizer::Naive))
            .unwrap(),
        r#"Q1:
  0. [collection-scan] Articles(a)  est 3.0 rows
  1. [arc-forward] a -> l -> v  est 7.0 rows
  2. [compare-filter] l = "section"  est 0.7 rows
  est. cost: 10.7 (naive)
"#
    );
    let out = q.evaluate(&data, &EvalOptions::default()).unwrap();
    assert_eq!(out.graph.collection_str("Out").unwrap().len(), 3);
}

/// The fastest of five runs of each single-label operator over a hub with
/// `n` out-edges and a sink with `n` in-edges: `label-forward` out of the
/// hub, `label-reverse-index` onto the sink, `label-scan` over the label.
fn hub_operator_times(n: usize) -> [std::time::Duration; 3] {
    use strudel_struql::{evaluate_conditions, Bindings, PhysicalPlan, PlanSlot};
    let mut g = Graph::standalone();
    let (hub, sink) = (g.new_node(None), g.new_node(None));
    g.add_to_collection_str("Hub", hub);
    g.add_to_collection_str("Sink", sink);
    for _ in 0..n {
        let leaf = g.new_node(None);
        g.add_edge_str(hub, "out", leaf).unwrap();
        g.add_edge_str(leaf, "in", sink).unwrap();
    }
    let opts = EvalOptions::default();
    let time = |src: &str, op: &str| {
        let q = parse_query(src).unwrap();
        let program = strudel_struql::SiteProgram::compile(&q, &opts.predicates).unwrap();
        let conds = &program.stages()[0].block.where_;
        let plan = PhysicalPlan::compile(conds, &Default::default(), &g, opts.optimizer).unwrap();
        assert!(
            plan.describe(conds).contains(op),
            "{}",
            plan.describe(conds)
        );
        let slot = PlanSlot::default();
        let run = || {
            let t = std::time::Instant::now();
            let rows = evaluate_conditions(conds, &g, Bindings::unit(), &opts, &slot).unwrap();
            assert_eq!(rows.len(), n);
            t.elapsed()
        };
        run();
        (0..5).map(|_| run()).min().unwrap()
    };
    [
        time(
            r#"WHERE Hub(h), h -> "out" -> t COLLECT Out(t)"#,
            "[label-forward]",
        ),
        time(
            r#"WHERE Sink(s), x -> "in" -> s COLLECT Out(x)"#,
            "[label-reverse-index]",
        ),
        time(r#"WHERE x -> "out" -> t COLLECT Out(t)"#, "[label-scan]"),
    ]
}

/// Trap (a) of the known-label rule: the single-label operators keep the
/// first of parallel edges, and looking for "seen already" in a vector is
/// quadratic in a hub's degree — invisible while only literal-label paths
/// met hubs rarely, ten times a section page's cost once `l = "section"`
/// runs on these operators. Eight times the degree may take at most 24
/// times as long (linear is 8, quadratic 64; the bound sits a factor of
/// three from either).
#[test]
fn label_operators_scale_linearly_on_a_hub() {
    let (small, large) = (hub_operator_times(2_000), hub_operator_times(16_000));
    for (op, (t, t8)) in ["forward", "reverse", "scan"]
        .iter()
        .zip(small.iter().zip(&large))
    {
        let ratio = t8.as_secs_f64() / t.as_secs_f64();
        assert!(ratio < 24.0, "label-{op}: {t:?} -> {t8:?} is {ratio:.1}x");
    }
}
