//! Property-based tests (proptest) over the core data structures and the
//! evaluation pipeline's invariants.

use proptest::prelude::*;
use strudel::graph::{ddl, Graph, Value};
use strudel::struql::{parse_query, EvalOptions, Optimizer, PlanSlot};

// ---------------------------------------------------------------- values ----

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        (-1e9f64..1e9f64).prop_map(Value::Float),
    ]
}

proptest! {
    #[test]
    fn coerced_eq_is_reflexive_for_non_nan(v in arb_value()) {
        prop_assert!(v.coerced_eq(&v));
    }

    #[test]
    fn coerced_cmp_is_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering::*;
        match (a.coerced_cmp(&b), b.coerced_cmp(&a)) {
            (Some(Less), x) => prop_assert_eq!(x, Some(Greater)),
            (Some(Greater), x) => prop_assert_eq!(x, Some(Less)),
            (Some(Equal), x) => prop_assert_eq!(x, Some(Equal)),
            (None, x) => prop_assert_eq!(x, None),
        }
    }

    #[test]
    fn strict_eq_implies_coerced_eq(a in arb_value()) {
        let b = a.clone();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.coerced_eq(&b));
    }
}

// ----------------------------------------------------------------- interner ----

proptest! {
    #[test]
    fn interner_roundtrips(words in proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9_-]{0,10}", 1..30)) {
        let interner = strudel::graph::Interner::new();
        let syms: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            prop_assert_eq!(&*interner.resolve(*s), w.as_str());
            prop_assert_eq!(interner.intern(w), *s);
        }
    }
}

// ------------------------------------------------------------------- DDL ----

/// A random flat object graph as DDL text fragments.
fn arb_objects() -> impl Strategy<Value = Vec<(String, Vec<(String, String)>)>> {
    proptest::collection::vec(
        (
            "[a-z][a-z0-9]{0,6}",
            proptest::collection::vec(("[a-z][a-z0-9]{0,6}", "[a-zA-Z0-9 .]{0,10}"), 0..6),
        ),
        1..8,
    )
    .prop_map(|objs| {
        // Deduplicate object names (the DDL unifies same-named objects).
        let mut seen = std::collections::HashSet::new();
        objs.into_iter()
            .enumerate()
            .map(|(i, (name, attrs))| {
                let name = if seen.insert(name.clone()) {
                    name
                } else {
                    format!("{name}x{i}")
                };
                (name, attrs)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn ddl_print_parse_roundtrip(objs in arb_objects()) {
        let mut src = String::new();
        for (name, attrs) in &objs {
            src.push_str(&format!("object {name} in Things {{\n"));
            for (k, v) in attrs {
                src.push_str(&format!("  {k} \"{v}\"\n"));
            }
            src.push_str("}\n");
        }
        let g = ddl::parse(&src).unwrap();
        let printed = ddl::print(&g);
        let g2 = ddl::parse(&printed).unwrap();
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        prop_assert_eq!(
            g.collection_str("Things").unwrap().len(),
            g2.collection_str("Things").unwrap().len()
        );
    }
}

// ------------------------------------------------------------- evaluation ----

/// A random labeled graph over a small label alphabet.
#[derive(Debug, Clone)]
struct RandGraph {
    n: usize,
    edges: Vec<(usize, usize, u8)>,
}

fn arb_graph() -> impl Strategy<Value = RandGraph> {
    (2usize..10).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0u8..3), 0..25)
            .prop_map(move |edges| RandGraph { n, edges })
    })
}

fn build(rg: &RandGraph) -> Graph {
    let mut g = Graph::standalone();
    let nodes: Vec<_> = (0..rg.n)
        .map(|i| g.new_node(Some(&format!("n{i}"))))
        .collect();
    for &n in &nodes {
        g.add_to_collection_str("Nodes", Value::Node(n));
    }
    let labels = ["a", "b", "c"];
    let mut seen = std::collections::HashSet::new();
    for &(f, t, l) in &rg.edges {
        if seen.insert((f, t, l)) {
            g.add_edge_str(nodes[f], labels[l as usize], Value::Node(nodes[t]))
                .unwrap();
        }
    }
    g.add_to_collection_str("Start", Value::Node(nodes[0]));
    g
}

/// Reference reachability by plain BFS over all edges.
fn bfs_reachable(rg: &RandGraph) -> std::collections::HashSet<usize> {
    let mut adj = vec![Vec::new(); rg.n];
    let mut dedup = std::collections::HashSet::new();
    for &(f, t, l) in &rg.edges {
        if dedup.insert((f, t, l)) {
            adj[f].push(t);
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![0usize];
    while let Some(x) = stack.pop() {
        if seen.insert(x) {
            stack.extend(adj[x].iter().copied());
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `p -> * -> q` computes exactly BFS reachability.
    #[test]
    fn star_reachability_matches_bfs(rg in arb_graph()) {
        let g = build(&rg);
        let q = parse_query("WHERE Start(p), p -> * -> q COLLECT Reached(q)").unwrap();
        let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
        let reached = out.graph.collection_str("Reached").unwrap().len();
        prop_assert_eq!(reached, bfs_reachable(&rg).len());
    }

    /// All three optimizers produce the same output graph.
    #[test]
    fn optimizers_agree(rg in arb_graph()) {
        let g = build(&rg);
        let q = parse_query(
            r#"WHERE Nodes(x), x -> "a" -> y, y -> l -> z
               CREATE P(x, z)
               LINK P(x, z) -> l -> z
               COLLECT Out(P(x, z))"#,
        )
        .unwrap();
        let mut results = Vec::new();
        for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
            let out = q.evaluate(&g, &EvalOptions::with_optimizer(opt)).unwrap();
            results.push((
                out.graph.node_count(),
                out.graph.edge_count(),
                out.graph.collection_str("Out").map(|c| c.len()).unwrap_or(0),
            ));
        }
        prop_assert_eq!(results[0], results[1]);
        prop_assert_eq!(results[1], results[2]);
    }

    /// The TextOnly-style copy query produces a graph whose nodes are
    /// exactly the reachable originals (Skolem image is injective).
    #[test]
    fn copy_query_preserves_reachable_structure(rg in arb_graph()) {
        let g = build(&rg);
        let q = parse_query(
            r#"WHERE Start(p), p -> * -> q, q -> l -> q0
               CREATE New(q), New(q0)
               LINK New(q) -> l -> New(q0)"#,
        )
        .unwrap();
        let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
        let reachable = bfs_reachable(&rg);
        // Copies exist only for reachable nodes that touch an edge.
        prop_assert!(out.table.len() <= reachable.len());
        // Edge count of the copy never exceeds the original's (set semantics).
        prop_assert!(out.graph.edge_count() <= g.edge_count());
    }

    /// Skolem identity: evaluating the same query twice into one graph with
    /// a shared table adds nothing new the second time.
    #[test]
    fn re_evaluation_is_idempotent(rg in arb_graph()) {
        let g = build(&rg);
        let q = parse_query(
            r#"WHERE Nodes(x), x -> l -> y CREATE C(x) LINK C(x) -> l -> y COLLECT All(C(x))"#,
        )
        .unwrap();
        let opts = EvalOptions::default();
        let mut out = Graph::new(std::sync::Arc::clone(g.universe()));
        let mut table = strudel::struql::SkolemTable::new();
        q.evaluate_into(&g, &mut out, &mut table, &opts).unwrap();
        let (n1, e1) = (out.node_count(), out.edge_count());
        q.evaluate_into(&g, &mut out, &mut table, &opts).unwrap();
        prop_assert_eq!((n1, e1), (out.node_count(), out.edge_count()));
    }
}

// ---------------------------------------------------- incremental views ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental maintenance equals full re-evaluation for any insertion
    /// sequence (within the supported positive single-edge fragment).
    #[test]
    fn incremental_equals_rebuild(
        rg in arb_graph(),
        inserts in proptest::collection::vec((0usize..8, 0usize..8, 0u8..3), 1..12),
    ) {
        let mut data = build(&rg);
        let q = parse_query(
            r#"{ WHERE Nodes(x), x -> "a" -> y
                 CREATE P(x)
                 LINK P(x) -> "hit" -> y
                 { WHERE y -> "b" -> z
                   CREATE Q(z) LINK P(x) -> "deep" -> Q(z) } }"#,
        )
        .unwrap();
        let mut inc = strudel::site::IncrementalSite::new(&data, &q, EvalOptions::default()).unwrap();
        let nodes: Vec<_> = data.nodes().to_vec();
        let labels = ["a", "b", "c"];
        for (f, t, l) in inserts {
            let (f, t) = (f % nodes.len(), t % nodes.len());
            inc.add_edge(&mut data, nodes[f], labels[l as usize], Value::Node(nodes[t])).unwrap();
        }
        let rebuilt = q.evaluate(&data, &EvalOptions::default()).unwrap();
        // Compare the *maintained* part: the extension of every Skolem
        // function and each Skolem node's out-edges. (Raw edge counters
        // differ benignly: a node adopted from the data graph shares its
        // edge storage, so edges it gains later are visible but were not
        // counted at adoption time.)
        prop_assert_eq!(inc.table.len(), rebuilt.table.len());
        let sig = |g: &Graph, table: &strudel::struql::SkolemTable| {
            let mut out: Vec<String> = table
                .iter()
                .map(|(name, args, oid)| {
                    let mut edges: Vec<String> = g
                        .out_edges(oid)
                        .into_iter()
                        .map(|(l, v)| {
                            let v = match v {
                                Value::Node(n) => g.node_name(n).unwrap_or_default().to_string(),
                                other => other.to_string(),
                            };
                            format!("{}->{v}", g.resolve(l))
                        })
                        .collect();
                    edges.sort();
                    format!(
                        "{name}({}) {{{}}}",
                        args.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
                        edges.join(";")
                    )
                })
                .collect();
            out.sort();
            out
        };
        prop_assert_eq!(sig(&inc.site, &inc.table), sig(&rebuilt.graph, &rebuilt.table));
    }
}

/// Full signature of a maintained site: every Skolem page with its sorted
/// out-edges (node targets resolved through the Skolem table so maintained
/// and rebuilt graphs compare by *logical* page identity, not by oid), plus
/// every non-empty collection. Empty collections are skipped because a cold
/// evaluation never registers one, while the maintained site keeps an
/// emptied collection registered.
fn site_signature(g: &Graph, table: &strudel::struql::SkolemTable) -> Vec<String> {
    use std::collections::HashMap;
    let mut page_name: HashMap<strudel::graph::Oid, String> = HashMap::new();
    for (name, args, oid) in table.iter() {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        page_name.insert(oid, format!("{name}({})", args.join(",")));
    }
    let key = |v: &Value| match v {
        Value::Node(n) => page_name
            .get(n)
            .cloned()
            .or_else(|| g.node_name(*n).map(|s| s.to_string()))
            .unwrap_or_else(|| format!("{n:?}")),
        other => other.to_string(),
    };
    let mut out: Vec<String> = table
        .iter()
        .map(|(_, _, oid)| {
            let mut edges: Vec<String> = g
                .out_edges(oid)
                .into_iter()
                .map(|(l, v)| format!("{}->{}", g.resolve(l), key(&v)))
                .collect();
            edges.sort();
            format!("{} {{{}}}", page_name[&oid], edges.join(";"))
        })
        .collect();
    for &cname in g.collection_names() {
        let coll = g.collection(cname).expect("registered collection");
        if coll.is_empty() {
            continue;
        }
        let mut items: Vec<String> = coll.items().iter().map(key).collect();
        items.sort();
        out.push(format!("coll {}: [{}]", g.resolve(cname), items.join(",")));
    }
    out.sort();
    out
}

/// The maintainable (aggregate-free) core of the news site definition.
const NEWS_CORE_QUERY: &str = r#"CREATE FrontPage()
   { WHERE Articles(a), a -> l -> v
     CREATE ArticlePage(a)
     LINK ArticlePage(a) -> l -> v,
          FrontPage() -> "Article" -> ArticlePage(a)
     COLLECT Pages(ArticlePage(a))
     { WHERE l = "section"
       CREATE SectionPage(v)
       LINK SectionPage(v) -> "Story" -> ArticlePage(a),
            FrontPage() -> "Section" -> SectionPage(v) } }"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deletion-aware maintenance: any interleaving of edge/collection
    /// insertions and deletions against the news-site query leaves the
    /// maintained site graph equal to a cold rebuild *after every step*.
    #[test]
    fn insert_delete_interleaving_equals_rebuild(
        ops in proptest::collection::vec((0u8..4, 0usize..5, 0u8..3, 0u8..4), 1..24),
    ) {
        let q = parse_query(NEWS_CORE_QUERY).unwrap();
        let labels = ["headline", "section", "topic"];
        let values = ["world", "sports", "local", "x"];

        let mut data = Graph::standalone();
        let arts: Vec<_> = (0..5)
            .map(|i| data.new_node(Some(&format!("art{i}"))))
            .collect();
        // A non-trivial starting site: two member articles, one shared section.
        for &a in &arts[..2] {
            data.add_to_collection_str("Articles", Value::Node(a));
            data.add_edge_str(a, "section", Value::str("world")).unwrap();
        }
        let mut inc =
            strudel::site::IncrementalSite::new(&data, &q, EvalOptions::default()).unwrap();

        for (step, &(kind, a, l, v)) in ops.iter().enumerate() {
            let (node, label) = (arts[a], labels[l as usize]);
            let val = Value::str(values[v as usize]);
            match kind {
                0 => inc.add_edge(&mut data, node, label, val).unwrap(),
                1 => inc.remove_edge(&mut data, node, label, &val).unwrap(),
                2 => inc
                    .add_to_collection(&mut data, "Articles", Value::Node(node))
                    .unwrap(),
                _ => inc
                    .remove_from_collection(&mut data, "Articles", &Value::Node(node))
                    .unwrap(),
            }
            let rebuilt = q.evaluate(&data, &EvalOptions::default()).unwrap();
            prop_assert_eq!(
                site_signature(&inc.site, &inc.table),
                site_signature(&rebuilt.graph, &rebuilt.table),
                "divergence after step {} {:?}",
                step,
                (kind, a, l, v)
            );
        }
    }
}

/// Queries outside the maintainable fragment are rejected up front with a
/// typed error, and the caller's fallback — a full rebuild per change —
/// still observes deletions.
#[test]
fn out_of_fragment_deletions_fall_back_to_rebuild() {
    use strudel::site::{IncrementalError, IncrementalSite};
    let mut data = Graph::standalone();
    for i in 0..3 {
        let a = data.new_node(Some(&format!("a{i}")));
        data.add_to_collection_str("Articles", Value::Node(a));
    }
    let agg = parse_query(
        r#"CREATE FrontPage()
           { WHERE Articles(a) LINK FrontPage() -> "count" -> COUNT(a) }"#,
    )
    .unwrap();
    match IncrementalSite::new(&data, &agg, EvalOptions::default()) {
        Err(IncrementalError::Aggregate(_)) => {}
        Err(other) => panic!("expected Aggregate rejection, got {other:?}"),
        Ok(_) => panic!("aggregate query must be rejected up front"),
    }

    let count_of = |g: &Graph| {
        let out = agg.evaluate(g, &EvalOptions::default()).unwrap();
        let (_, _, front) = out.table.iter().next().expect("FrontPage");
        out.graph
            .out_edges(front)
            .into_iter()
            .find_map(|(l, v)| (&*out.graph.resolve(l) == "count").then_some(v))
            .expect("count edge")
    };
    assert!(count_of(&data).coerced_eq(&Value::Int(3)));
    let gone = data.nodes()[0];
    assert!(data.remove_from_collection_str("Articles", &Value::Node(gone)));
    assert!(
        count_of(&data).coerced_eq(&Value::Int(2)),
        "rebuild sees the deletion"
    );
}

/// Incremental maintenance, asserted as the work it does rather than as a
/// time: one inserted edge costs the same seeded evaluations and derives
/// the same bindings on a 200-article corpus as on an 800-article one,
/// while a rebuild examines at least 3× the rows — and the maintained site
/// equals that rebuild at both sizes.
#[test]
fn one_insert_costs_the_same_at_any_corpus_size() {
    use strudel::synth::news;
    let q = parse_query(NEWS_CORE_QUERY).unwrap();
    // (seeded evaluations, new bindings, a rebuild's intermediate rows)
    let insert_at = |n: usize| {
        let mut data = ddl::parse(&news::generate_ddl(n, 7)).unwrap();
        let mut inc =
            strudel::site::IncrementalSite::new(&data, &q, EvalOptions::default()).unwrap();
        let before = inc.stats();
        let article = data.nodes()[0];
        inc.add_edge(&mut data, article, "tag", Value::Int(1))
            .unwrap();
        let after = inc.stats();
        let rebuilt = q.evaluate(&data, &EvalOptions::default()).unwrap();
        assert_eq!(
            site_signature(&inc.site, &inc.table),
            site_signature(&rebuilt.graph, &rebuilt.table),
            "maintained site diverges from a rebuild at {n} articles"
        );
        (
            after.seeded_evaluations - before.seeded_evaluations,
            after.new_bindings - before.new_bindings,
            rebuilt.stats.intermediate_rows,
        )
    };
    let (seeded_small, derived_small, rebuild_small) = insert_at(200);
    let (seeded_large, derived_large, rebuild_large) = insert_at(800);
    assert!(
        seeded_small >= 1 && derived_small >= 1,
        "the delta must fire"
    );
    assert_eq!(seeded_small, seeded_large);
    assert_eq!(derived_small, derived_large);
    assert!(
        rebuild_large >= 3 * rebuild_small,
        "rebuild examined {rebuild_small} rows at 200 articles, {rebuild_large} at 800"
    );
}

// ------------------------------------- reference-evaluator equivalence ----
//
// The vectorized engine (slab bindings, index probes, memo caches) must be
// *set-equal* to a naive tuple-at-a-time evaluator on every conjunctive
// query it can express. The reference below shares nothing with the engine:
// it walks the graph through the public read API, one partial assignment at
// a time, and interprets RPEs by direct fixpoint instead of compiled NFAs.

mod reference {
    use std::collections::{BTreeMap, BTreeSet};
    use strudel::graph::{Graph, Value};
    use strudel::struql::ast::{CmpOp, PathStep};
    use strudel::struql::{Condition, Rpe, Term};

    pub type Row = BTreeMap<String, Value>;
    pub type RowSet = BTreeSet<Vec<(String, String)>>;

    pub fn vkey(v: &Value) -> String {
        format!("{v:?}")
    }

    pub fn canon<'a>(rows: impl Iterator<Item = &'a Row>) -> RowSet {
        rows.map(|r| {
            r.iter()
                .map(|(var, v)| (var.clone(), vkey(v)))
                .collect::<Vec<_>>()
        })
        .collect()
    }

    fn dedup(vals: Vec<Value>) -> Vec<Value> {
        let mut seen = BTreeSet::new();
        vals.into_iter().filter(|v| seen.insert(vkey(v))).collect()
    }

    /// All values reachable from each of `srcs` by a path matching `rpe`.
    pub fn rpe_targets(g: &Graph, srcs: &[Value], rpe: &Rpe) -> Vec<Value> {
        match rpe {
            Rpe::Label(l) => {
                let mut out = Vec::new();
                for s in srcs {
                    if let Some(n) = s.as_node() {
                        for (sym, v) in g.out_edges(n) {
                            if &*g.resolve(sym) == l.as_str() {
                                out.push(v);
                            }
                        }
                    }
                }
                dedup(out)
            }
            Rpe::AnyLabel => {
                let mut out = Vec::new();
                for s in srcs {
                    if let Some(n) = s.as_node() {
                        out.extend(g.out_edges(n).into_iter().map(|(_, v)| v));
                    }
                }
                dedup(out)
            }
            Rpe::Pred(_) => Vec::new(),
            Rpe::Seq(a, b) => {
                let mid = rpe_targets(g, srcs, a);
                rpe_targets(g, &mid, b)
            }
            Rpe::Alt(a, b) => {
                let mut out = rpe_targets(g, srcs, a);
                out.extend(rpe_targets(g, srcs, b));
                dedup(out)
            }
            Rpe::Opt(r) => {
                let mut out = srcs.to_vec();
                out.extend(rpe_targets(g, srcs, r));
                dedup(out)
            }
            Rpe::Star(r) => {
                let mut out = dedup(srcs.to_vec());
                let mut seen: BTreeSet<String> = out.iter().map(vkey).collect();
                let mut frontier = out.clone();
                while !frontier.is_empty() {
                    let next: Vec<Value> = rpe_targets(g, &frontier, r)
                        .into_iter()
                        .filter(|v| seen.insert(vkey(v)))
                        .collect();
                    out.extend(next.iter().cloned());
                    frontier = next;
                }
                out
            }
            Rpe::Plus(r) => {
                let once = rpe_targets(g, srcs, r);
                rpe_targets(g, &once, &Rpe::Star(r.clone()))
            }
        }
    }

    fn compare(l: &Value, op: CmpOp, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        match op {
            CmpOp::Eq => l.coerced_eq(r),
            CmpOp::Ne => !l.coerced_eq(r),
            CmpOp::Lt => l.coerced_cmp(r) == Some(Less),
            CmpOp::Le => matches!(l.coerced_cmp(r), Some(Less | Equal)),
            CmpOp::Gt => l.coerced_cmp(r) == Some(Greater),
            CmpOp::Ge => matches!(l.coerced_cmp(r), Some(Greater | Equal)),
        }
    }

    fn term_value(t: &Term, row: &Row) -> Option<Value> {
        match t {
            Term::Var(v) => row.get(v).cloned(),
            Term::Lit(l) => Some(l.to_value()),
            _ => None,
        }
    }

    /// Extends `row` with `(var, value)` pairs, strictly unifying against
    /// existing bindings (and earlier pairs, so `x -> l -> x` works).
    fn unify(row: &Row, pairs: &[(&str, &Value)]) -> Option<Row> {
        let mut r = row.clone();
        for (var, val) in pairs {
            match r.get(*var) {
                Some(b) if b == *val => {}
                Some(_) => return None,
                None => {
                    r.insert((*var).to_string(), (*val).clone());
                }
            }
        }
        Some(r)
    }

    /// Every (source-node, label-string, target) edge of the graph.
    fn all_edges(g: &Graph) -> Vec<(Value, String, Value)> {
        let mut out = Vec::new();
        for &n in g.nodes() {
            for (sym, v) in g.out_edges(n) {
                out.push((Value::Node(n), g.resolve(sym).to_string(), v));
            }
        }
        out
    }

    /// The graph's labels equal to one of `values`: what an `=` or `IN`
    /// binds an arc variable to, as an edge would bind it.
    fn labels_equal(g: &Graph, values: &[Value]) -> Vec<Value> {
        let labels: BTreeSet<String> = all_edges(g).into_iter().map(|(_, l, _)| l).collect();
        let label_values = labels.into_iter().map(|l| Value::str(&l));
        label_values
            .filter(|l| values.iter().any(|v| v.coerced_eq(l)))
            .collect()
    }

    /// Applies one condition to every partial assignment, tuple at a time;
    /// `arcs` are the conjunction's arc variables.
    fn apply(g: &Graph, rows: Vec<Row>, cond: &Condition, arcs: &BTreeSet<&str>) -> Vec<Row> {
        match cond {
            Condition::Collection {
                name,
                arg: Term::Var(v),
                negated,
            } => {
                let coll = g.collection_str(name);
                let items: Vec<Value> = coll.map(|c| c.items().to_vec()).unwrap_or_default();
                let mut out = Vec::new();
                for row in rows {
                    match row.get(v) {
                        Some(val) => {
                            if items.contains(val) != *negated {
                                out.push(row);
                            }
                        }
                        None => {
                            assert!(!negated, "generator never negates unbound membership");
                            for item in &items {
                                let mut r = row.clone();
                                r.insert(v.clone(), item.clone());
                                out.push(r);
                            }
                        }
                    }
                }
                out
            }
            Condition::Collection { .. } => rows,
            Condition::Compare { lhs, op, rhs } => rows
                .into_iter()
                .flat_map(|row| match (term_value(lhs, &row), term_value(rhs, &row)) {
                    (Some(a), Some(b)) => Vec::from_iter(compare(&a, *op, &b).then_some(row)),
                    // `v = <constant>` over an unbound variable assigns it:
                    // an arc variable, each label equal to the constant.
                    (None, Some(b)) if *op == CmpOp::Eq => {
                        let var = lhs.as_var().expect("a variable").to_string();
                        let vals = match arcs.contains(var.as_str()) {
                            true => labels_equal(g, &[b]),
                            false => vec![b],
                        };
                        let bind = |v: Value| [(var.clone(), v)].into_iter();
                        vals.into_iter()
                            .map(|v| row.clone().into_iter().chain(bind(v)).collect())
                            .collect()
                    }
                    _ => Vec::new(),
                })
                .collect(),
            Condition::In { var, set, negated } => rows
                .into_iter()
                .flat_map(|row| match row.get(var) {
                    Some(v) => {
                        let member = set.iter().any(|l| l.to_value().coerced_eq(v));
                        Vec::from_iter((member != *negated).then_some(row))
                    }
                    // Membership of an unbound variable enumerates the set;
                    // of an unbound arc variable, the labels it names.
                    None if !negated => {
                        let vals: Vec<Value> = set.iter().map(|l| l.to_value()).collect();
                        let vals = match arcs.contains(var.as_str()) {
                            true => labels_equal(g, &vals),
                            false => vals,
                        };
                        vals.into_iter()
                            .map(|v| {
                                let mut r = row.clone();
                                r.insert(var.clone(), v);
                                r
                            })
                            .collect()
                    }
                    None => Vec::new(),
                })
                .collect(),
            Condition::Predicate { .. } => rows,
            Condition::Edge {
                from,
                step: PathStep::ArcVar(lv),
                to,
                negated,
            } => {
                let edges = all_edges(g);
                if *negated {
                    // Generated over bound endpoints and a bound arc
                    // variable only: no edge between them carries a label
                    // the variable's value stands for.
                    let bound = |t: &Term, row: &Row| term_value(t, row).expect("bound");
                    return rows
                        .into_iter()
                        .filter(|row| {
                            let (f, l, t) = (bound(from, row), &row[lv], bound(to, row));
                            !edges.iter().any(|(ef, el, et)| {
                                *ef == f && Value::str(el).coerced_eq(l) && *et == t
                            })
                        })
                        .collect();
                }
                let mut out = Vec::new();
                for row in rows {
                    for (f, label, t) in &edges {
                        // Literal endpoints compare coerced; the arc
                        // variable compares coerced against a bound value.
                        if let Term::Lit(l) = from {
                            if !l.to_value().coerced_eq(f) {
                                continue;
                            }
                        }
                        if let Term::Lit(l) = to {
                            if !l.to_value().coerced_eq(t) {
                                continue;
                            }
                        }
                        let lval = Value::str(label);
                        if let Some(b) = row.get(lv) {
                            if !lval.coerced_eq(b) {
                                continue;
                            }
                        }
                        let mut pairs: Vec<(&str, &Value)> = Vec::new();
                        if let Term::Var(v) = from {
                            pairs.push((v, f));
                        }
                        // A bound arc variable was already compared coerced
                        // (label comparisons coerce); keep its binding.
                        if !row.contains_key(lv) {
                            pairs.push((lv, &lval));
                        }
                        if let Term::Var(v) = to {
                            pairs.push((v, t));
                        }
                        if let Some(r) = unify(&row, &pairs) {
                            out.push(r);
                        }
                    }
                }
                out
            }
            Condition::Edge {
                from,
                step: PathStep::Rpe(rpe),
                to,
                negated,
            } => {
                let mut out = Vec::new();
                for row in rows {
                    // Candidate sources: the bound value, or (single-label
                    // edges generated with unbound sources) every node.
                    let srcs: Vec<Value> = match from {
                        Term::Var(v) => match row.get(v) {
                            Some(b) => vec![b.clone()],
                            None => g.nodes().iter().map(|&n| Value::Node(n)).collect(),
                        },
                        Term::Lit(l) => vec![l.to_value()],
                        _ => continue,
                    };
                    for src in srcs {
                        let targets = rpe_targets(g, std::slice::from_ref(&src), rpe);
                        if *negated {
                            // Both endpoints are bound by construction:
                            // strict non-membership, exactly one row out.
                            let tv = match to {
                                Term::Var(v) => row.get(v).cloned().expect("bound"),
                                Term::Lit(l) => l.to_value(),
                                _ => continue,
                            };
                            if !targets.contains(&tv) {
                                out.push(row.clone());
                            }
                            continue;
                        }
                        match to {
                            Term::Var(v) => {
                                for t in &targets {
                                    let mut pairs: Vec<(&str, &Value)> = Vec::new();
                                    if let Term::Var(fv) = from {
                                        pairs.push((fv, &src));
                                    }
                                    pairs.push((v, t));
                                    if let Some(r) = unify(&row, &pairs) {
                                        out.push(r);
                                    }
                                }
                            }
                            Term::Lit(l) => {
                                let lv = l.to_value();
                                if targets.iter().any(|t| t.coerced_eq(&lv)) {
                                    let mut r = row.clone();
                                    if let Term::Var(fv) = from {
                                        r.insert(fv.clone(), src.clone());
                                    }
                                    out.push(r);
                                }
                            }
                            _ => {}
                        }
                    }
                }
                out
            }
            Condition::Edge { .. } => rows,
        }
    }

    /// Evaluates a condition list tuple-at-a-time, left to right.
    pub fn evaluate(g: &Graph, conds: &[Condition]) -> Vec<Row> {
        evaluate_from(g, conds, Row::new())
    }

    /// [`evaluate`] from one row of start bindings.
    pub fn evaluate_from(g: &Graph, conds: &[Condition], start: Row) -> Vec<Row> {
        let arcs: BTreeSet<&str> = (conds.iter())
            .filter_map(|c| match c {
                Condition::Edge {
                    step: PathStep::ArcVar(v),
                    ..
                } => Some(v.as_str()),
                _ => None,
            })
            .collect();
        let mut rows = vec![start];
        for c in conds {
            rows = apply(g, rows, c, &arcs);
        }
        rows
    }
}

/// Compact condition spec: (kind, var picks, label picks, literal).
type CondSpec = (u8, u8, u8, u8, u8, u8, u8, i64);

/// The kinds a spec decodes to ([`lower_from`] takes `kind % SPEC_KINDS`).
const SPEC_KINDS: u8 = 13;

/// Decodes a compact spec into a condition list, for a conjunction that
/// starts with `start` bound, where every negated or comparison variable
/// has an earlier positive binder (the fragment over which evaluation order
/// is immaterial).
fn lower_from(specs: &[CondSpec], start: &[&'static str]) -> Vec<strudel::struql::Condition> {
    use strudel::struql::ast::{CmpOp, Literal, PathStep};
    use strudel::struql::{Condition, Rpe, Term};

    const NODE_VARS: [&str; 4] = ["x", "y", "z", "w"];
    const ARC_VARS: [&str; 2] = ["la", "lb"];
    const LABELS: [&str; 4] = ["a", "b", "c", "val"];
    // What an arc variable is compared with: labels of the graph, one that
    // reads as a number, one no graph has.
    const ARC_LABELS: [&str; 6] = ["a", "b", "c", "val", "1997", "zzz"];
    let arc_label = |i: u8| Literal::Str(ARC_LABELS[i as usize % 6].to_string());
    let label = |i: u8| LABELS[i as usize % 4].to_string();
    let rpe_of = |kind: u8, a: u8, b: u8| -> Rpe {
        let l = |i: u8| Rpe::Label(label(i));
        match kind % 9 {
            0 => l(a),
            1 => Rpe::AnyLabel,
            2 => Rpe::Seq(Box::new(l(a)), Box::new(l(b))),
            3 => Rpe::Alt(Box::new(l(a)), Box::new(l(b))),
            4 => Rpe::Star(Box::new(l(a))),
            5 => Rpe::any_path(),
            6 => Rpe::Plus(Box::new(l(a))),
            7 => Rpe::Opt(Box::new(l(a))),
            _ => Rpe::Seq(Box::new(l(a)), Box::new(Rpe::Star(Box::new(l(b))))),
        }
    };

    let mut bound: Vec<&str> = vec!["x"];
    bound.extend(start);
    let mut conds = vec![Condition::Collection {
        name: "Nodes".into(),
        arg: Term::var("x"),
        negated: false,
    }];
    for &(kind, p1, p2, p3, rk, ra, rb, k) in specs {
        let pick_bound = |i: u8, bound: &[&str]| bound[i as usize % bound.len()].to_string();
        let pick_node = |i: u8| NODE_VARS[i as usize % 4].to_string();
        let bind_arc = |i: u8, bound: &mut Vec<&str>| {
            let lv = ARC_VARS[i as usize % 2];
            let fresh = !bound.contains(&lv);
            if fresh {
                bound.push(lv);
            }
            (lv, fresh)
        };
        match kind % SPEC_KINDS {
            // Membership (any binding state) / negated membership (bound).
            0 => {
                let v = pick_node(p1);
                if !bound.contains(&v.as_str()) {
                    bound.push(NODE_VARS[p1 as usize % 4]);
                }
                conds.push(Condition::Collection {
                    name: "Nodes".into(),
                    arg: Term::Var(v),
                    negated: false,
                });
            }
            1 => {
                let v = pick_bound(p1, &bound);
                conds.push(Condition::Collection {
                    name: "Nodes".into(),
                    arg: Term::Var(v),
                    negated: true,
                });
            }
            // Single-label edge, any binding state; target var or literal.
            2 => {
                let f = pick_node(p1);
                if !bound.contains(&f.as_str()) {
                    bound.push(NODE_VARS[p1 as usize % 4]);
                }
                let to = if p3 % 5 == 4 {
                    Term::Lit(Literal::Int(k))
                } else {
                    let t = pick_node(p3);
                    if !bound.contains(&t.as_str()) {
                        bound.push(NODE_VARS[p3 as usize % 4]);
                    }
                    Term::Var(t)
                };
                conds.push(Condition::Edge {
                    from: Term::Var(f),
                    step: PathStep::Rpe(Rpe::Label(label(p2))),
                    to,
                    negated: false,
                });
            }
            // Negated single-label edge over two bound variables.
            3 => {
                conds.push(Condition::Edge {
                    from: Term::Var(pick_bound(p1, &bound)),
                    step: PathStep::Rpe(Rpe::Label(label(p3))),
                    to: Term::Var(pick_bound(p2, &bound)),
                    negated: true,
                });
            }
            // Arc-variable edge, any binding state.
            4 => {
                let f = pick_node(p1);
                if !bound.contains(&f.as_str()) {
                    bound.push(NODE_VARS[p1 as usize % 4]);
                }
                let lv = ARC_VARS[p2 as usize % 2];
                if !bound.contains(&lv) {
                    bound.push(lv);
                }
                let to = if p3 % 5 == 4 {
                    Term::Lit(Literal::Int(k))
                } else {
                    let t = pick_node(p3);
                    if !bound.contains(&t.as_str()) {
                        bound.push(NODE_VARS[p3 as usize % 4]);
                    }
                    Term::Var(t)
                };
                conds.push(Condition::Edge {
                    from: Term::Var(f),
                    step: PathStep::ArcVar(lv.to_string()),
                    to,
                    negated: false,
                });
            }
            // General RPE from a bound source; target var or literal.
            5 => {
                let from = Term::Var(pick_bound(p1, &bound));
                let to = if p3 % 5 == 4 {
                    Term::Lit(Literal::Int(k))
                } else {
                    let t = pick_node(p3);
                    if !bound.contains(&t.as_str()) {
                        bound.push(NODE_VARS[p3 as usize % 4]);
                    }
                    Term::Var(t)
                };
                conds.push(Condition::Edge {
                    from,
                    step: PathStep::Rpe(rpe_of(rk, ra, rb)),
                    to,
                    negated: false,
                });
            }
            // Negated RPE over two bound variables.
            6 => {
                conds.push(Condition::Edge {
                    from: Term::Var(pick_bound(p1, &bound)),
                    step: PathStep::Rpe(rpe_of(rk, ra, rb)),
                    to: Term::Var(pick_bound(p2, &bound)),
                    negated: true,
                });
            }
            // Label-set membership of a bound arc variable, if any.
            7 => {
                let Some(lv) = bound.iter().find(|v| v.starts_with('l')) else {
                    continue;
                };
                conds.push(Condition::In {
                    var: lv.to_string(),
                    set: vec![Literal::Str(label(p2)), Literal::Str(label(p3))],
                    negated: k < 0,
                });
            }
            // `l = "<label>"` on an arc variable, bound yet or not.
            9 => {
                let (lv, _) = bind_arc(p1, &mut bound);
                conds.push(Condition::Compare {
                    lhs: Term::var(lv),
                    op: CmpOp::Eq,
                    rhs: Term::Lit(arc_label(p2)),
                });
            }
            // `l = <int>`: meets every label that reads as the number.
            10 => {
                let (lv, _) = bind_arc(p1, &mut bound);
                conds.push(Condition::Compare {
                    lhs: Term::var(lv),
                    op: CmpOp::Eq,
                    rhs: Term::Lit(Literal::Int(if p2 % 2 == 0 { 1997 } else { k })),
                });
            }
            // `l IN {…}`, binding the variable when nothing has yet.
            11 => {
                let (lv, fresh) = bind_arc(p1, &mut bound);
                let second = if p3 % 2 == 0 {
                    Literal::Int(1997)
                } else {
                    arc_label(p3)
                };
                conds.push(Condition::In {
                    var: lv.to_string(),
                    set: vec![arc_label(p2), second],
                    negated: !fresh && k < 0,
                });
            }
            // Negated arc-variable edge between bound variables under a
            // bound label, if any.
            12 => {
                let Some(lv) = bound.iter().find(|v| v.starts_with('l')) else {
                    continue;
                };
                conds.push(Condition::Edge {
                    from: Term::Var(pick_bound(p1, &bound)),
                    step: PathStep::ArcVar(lv.to_string()),
                    to: Term::Var(pick_bound(p2, &bound)),
                    negated: true,
                });
            }
            // Comparison against a literal on a bound variable.
            _ => {
                let lhs = pick_bound(p1, &bound);
                let op = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][p2 as usize % 6];
                let rhs = if p3 % 2 == 0 {
                    Literal::Int(k)
                } else {
                    Literal::Str(label(p3))
                };
                conds.push(Condition::Compare {
                    lhs: Term::Var(lhs),
                    op,
                    rhs: Term::Lit(rhs),
                });
            }
        }
    }
    conds
}

/// Builds the random graph plus integer-valued `val` edges so literal
/// targets and comparisons have data to hit.
fn build_rich(rg: &RandGraph) -> Graph {
    let mut g = build(rg);
    let nodes = g.nodes().to_vec();
    for (i, &n) in nodes.iter().enumerate() {
        g.add_edge_str(n, "val", Value::Int((i as i64 * 7) % 5))
            .unwrap();
    }
    g
}

/// [`build_rich`] as a multigraph with number-like labels: every edge of
/// the random graph a second time (`add_edge` does not de-duplicate, so an
/// arc operator sees each twice and a label operator one distinct pair),
/// a `1997` edge out of every node and the same number spelled `1997.0` out
/// of every other.
fn build_labelled(rg: &RandGraph) -> Graph {
    let mut g = build_rich(rg);
    let nodes = g.nodes().to_vec();
    for &(f, t, l) in &rg.edges {
        g.add_edge_str(nodes[f], ["a", "b", "c"][l as usize], Value::Node(nodes[t]))
            .unwrap();
    }
    for (i, &n) in nodes.iter().enumerate() {
        g.add_edge_str(n, "1997", Value::Node(nodes[(i + 1) % nodes.len()]))
            .unwrap();
        if i % 2 == 0 {
            g.add_edge_str(n, "1997.0", Value::Int(i as i64 % 3))
                .unwrap();
        }
    }
    g
}

/// The graph and the start binding of `la` a case runs on: the set-semantic
/// graph or the multigraph; `la` unbound (half the cases) or bound before
/// the conjunction starts to a label's text, the same text typed as a URL
/// or a file, a number that reads as a label, or that label's other
/// spelling.
fn shaped(rg: &RandGraph, shape: u8) -> (Graph, Option<Value>) {
    let g = if shape & 1 == 0 {
        build_rich(rg)
    } else {
        build_labelled(rg)
    };
    let la = match (shape >> 1) % 10 {
        0..=4 => None,
        5 => Some(Value::str("a")),
        6 => Some(Value::url("b")),
        7 => Some(Value::file(strudel::graph::FileKind::Text, "c")),
        8 => Some(Value::Int(1997)),
        _ => Some(Value::str("1997.0")),
    };
    (g, la)
}

/// `la`'s start binding as the three shapes the checks need: the variables
/// bound, the reference's first row, the engine's start relation.
fn start_of(
    la: &Option<Value>,
) -> (
    &'static [&'static str],
    reference::Row,
    strudel::struql::Bindings,
) {
    let Some(v) = la else {
        return (
            &[],
            reference::Row::new(),
            strudel::struql::Bindings::unit(),
        );
    };
    let mut b = strudel::struql::Bindings::empty();
    b.add_var("la");
    b.push_row(std::slice::from_ref(v));
    (&["la"], [("la".to_string(), v.clone())].into(), b)
}

fn engine_row_set(b: &strudel::struql::Bindings) -> reference::RowSet {
    let vars = b.vars().to_vec();
    b.rows()
        .map(|row| {
            let mut r: Vec<(String, String)> = vars
                .iter()
                .zip(row)
                .map(|(var, v)| (var.clone(), reference::vkey(v)))
                .collect();
            r.sort();
            r
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The vectorized engine is set-equal to the tuple-at-a-time reference
    /// under every optimizer.
    #[test]
    fn engine_matches_reference_evaluator(
        rg in arb_graph(),
        shape in 0u8..20,
        specs in proptest::collection::vec(
            (0..SPEC_KINDS, 0u8..8, 0u8..8, 0u8..8, 0u8..9, 0u8..4, 0u8..4, -3i64..6),
            0..6,
        ),
    ) {
        use strudel::struql::evaluate_conditions;
        let (g, la) = shaped(&rg, shape);
        let (bound, first, start) = start_of(&la);
        let conds = lower_from(&specs, bound);
        let expect = reference::canon(reference::evaluate_from(&g, &conds, first).iter());
        for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
            let opts = EvalOptions::with_optimizer(opt);
            let once = PlanSlot::default();
            let got = evaluate_conditions(&conds, &g, start.clone(), &opts, &once).unwrap();
            prop_assert_eq!(engine_row_set(&got), expect.clone(), "optimizer {:?}", opt);
        }
    }

    /// Grouped aggregates (COUNT/SUM/MAX over distinct bindings) match a
    /// reference computed from the tuple-at-a-time join.
    #[test]
    fn aggregates_match_reference(rg in arb_graph()) {
        use std::collections::BTreeMap;
        let g = build_rich(&rg);
        let q = parse_query(
            r#"WHERE Nodes(x), x -> "a" -> y, y -> "val" -> v
               CREATE P(x)
               LINK P(x) -> "cnt" -> COUNT(y),
                    P(x) -> "total" -> SUM(v),
                    P(x) -> "top" -> MAX(v)"#,
        )
        .unwrap();

        // Reference groups from the naive join.
        let conds = [
            strudel::struql::Condition::Collection {
                name: "Nodes".into(),
                arg: strudel::struql::Term::var("x"),
                negated: false,
            },
            strudel::struql::Condition::edge(
                strudel::struql::Term::var("x"), "a", strudel::struql::Term::var("y")),
            strudel::struql::Condition::edge(
                strudel::struql::Term::var("y"), "val", strudel::struql::Term::var("v")),
        ];
        let mut groups: BTreeMap<String, (std::collections::BTreeSet<String>, BTreeMap<String, i64>)> =
            BTreeMap::new();
        for row in reference::evaluate(&g, &conds) {
            let x = reference::vkey(&row["x"]);
            let e = groups.entry(x).or_default();
            e.0.insert(reference::vkey(&row["y"]));
            if let Value::Int(i) = row["v"] {
                e.1.insert(reference::vkey(&row["v"]), i);
            }
        }

        let out = q.evaluate(&g, &EvalOptions::default()).unwrap();
        let mut seen = 0usize;
        for (name, args, oid) in out.table.iter() {
            prop_assert_eq!(name, "P");
            let key = reference::vkey(&args[0]);
            let (ys, vs) = &groups[&key];
            let edges: BTreeMap<String, Value> = out
                .graph
                .out_edges(oid)
                .into_iter()
                .map(|(l, v)| (out.graph.resolve(l).to_string(), v))
                .collect();
            prop_assert!(edges["cnt"].coerced_eq(&Value::Int(ys.len() as i64)),
                "cnt {:?} != {}", edges.get("cnt"), ys.len());
            let total: i64 = vs.values().sum();
            prop_assert!(edges["total"].coerced_eq(&Value::Int(total)),
                "total {:?} != {}", edges.get("total"), total);
            let top = *vs.values().max().unwrap();
            prop_assert!(edges["top"].coerced_eq(&Value::Int(top)),
                "top {:?} != {}", edges.get("top"), top);
            seen += 1;
        }
        prop_assert_eq!(seen, groups.len());
    }
}

/// A-OPT, the §2.4 optimizer ablation: the adversarially ordered
/// 7-condition query gives identical results under all three strategies,
/// and the naive left-to-right order materializes 1,647 intermediate rows
/// where either optimizer's plan materializes 141.
#[test]
fn a_opt_seven_condition_regression_guard() {
    use strudel::wrappers::{bibtex, relational};
    let src = strudel::synth::org::generate(200, 1997);
    let mut g = Graph::standalone();
    let people = relational::Table::from_csv("People", &src.people_csv).unwrap();
    let depts = relational::Table::from_csv("Departments", &src.departments_csv).unwrap();
    relational::load_into(&mut g, &[people, depts], &[]).unwrap();
    bibtex::load_into(&mut g, &src.publications_bib).unwrap();

    let q = parse_query(
        r#"WHERE x -> "author" -> a, m -> "name" -> a,
                 m -> "title" -> "Director",
                 Publications(x), People(m),
                 x -> "year" -> y, y >= 1996
           CREATE Hit(x, m)
           LINK Hit(x, m) -> "paper" -> x, Hit(x, m) -> "person" -> m
           COLLECT Hits(Hit(x, m))"#,
    )
    .unwrap();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
        let out = q.evaluate(&g, &EvalOptions::with_optimizer(opt)).unwrap();
        rows.push(out.stats.intermediate_rows);
        results.push((
            out.graph.node_count(),
            out.graph.edge_count(),
            out.graph
                .collection_str("Hits")
                .map(|c| c.len())
                .unwrap_or(0),
        ));
    }
    assert_eq!(results[0], results[1], "heuristic diverges from naive");
    assert_eq!(results[1], results[2], "cost-based diverges from heuristic");
    assert_eq!(results[0].2, 12, "hits");
    assert_eq!(rows, [1_647, 141, 141], "naive, heuristic, cost-based rows");
}

// ------------------------------------------------- click-time invalidation ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Click-time cache invalidation is sound for any edge insertion: a
    /// cache warmed on the old graph, invalidated for the delta, and then
    /// carried to the new graph serves exactly the cold answers. Entries
    /// that survive invalidation are really still valid — also where an
    /// arc variable's `l = "a"` filter lets a delta of another label pass
    /// a conjunction by.
    #[test]
    fn invalidate_then_expand_equals_cold_expand(
        rg in arb_graph(),
        insert in (0usize..8, 0usize..8, 0u8..3),
    ) {
        use strudel::site::{Delta, DynamicSite};
        let queries = [
            r#"{ WHERE Nodes(x), x -> "a" -> y
                 CREATE P(x)
                 LINK P(x) -> "hit" -> y
                 { WHERE y -> "b" -> z
                   CREATE Q(z) LINK P(x) -> "deep" -> Q(z), Q(z) -> "from" -> y } }"#,
            r#"{ WHERE Nodes(x), x -> l -> y
                 CREATE P(x)
                 LINK P(x) -> l -> y
                 { WHERE l = "a"
                   CREATE Q(y) LINK P(x) -> "deep" -> Q(y), Q(y) -> "from" -> x } }"#,
            r#"{ WHERE Nodes(x), x -> "a" . "b"* -> y
                 CREATE P(x)
                 LINK P(x) -> "via" -> y
                 { WHERE y -> "c"+ -> z
                   CREATE Q(z) LINK P(x) -> "deep" -> Q(z), Q(z) -> "from" -> y } }"#,
        ];
        // Replay the same construction script twice so node ids and interned
        // symbols align; the "new" graph additionally gets the inserted edge.
        let g_old = build(&rg);
        let mut g_new = build(&rg);
        let (f, t, l) = insert;
        let (f, t) = (f % rg.n, t % rg.n);
        let label = ["a", "b", "c"][l as usize];
        let nodes: Vec<_> = g_new.nodes().to_vec();
        g_new.add_edge_str(nodes[f], label, Value::Node(nodes[t])).unwrap();
        let delta = Delta::EdgeAdded {
            from: g_old.nodes()[f],
            label: g_old.sym(label),
            to: Value::Node(g_old.nodes()[t]),
        };

        for q in queries {
            let q = parse_query(q).unwrap();
            // Warm every page's clause results on the old graph, then
            // invalidate.
            let old_site = DynamicSite::new(&g_old, &q, EvalOptions::default()).unwrap();
            for sk in ["P", "Q"] {
                for page in old_site.pages_of(sk).unwrap() {
                    old_site.expand(&page).unwrap();
                }
            }
            old_site.invalidate(&delta);

            // Carry the surviving entries to a site over the new graph.
            let warm = DynamicSite::new(&g_new, &q, EvalOptions::default()).unwrap();
            warm.cache_restore(old_site.cache_snapshot());
            let cold = DynamicSite::new(&g_new, &q, EvalOptions::default()).unwrap();
            for sk in ["P", "Q"] {
                // Enumerate on the new graph: insertion is monotone, so these
                // pages are a superset of the pages warmed above.
                for page in cold.pages_of(sk).unwrap() {
                    prop_assert_eq!(
                        warm.expand(&page).unwrap(),
                        cold.expand(&page).unwrap(),
                        "{}: {}",
                        q,
                        page
                    );
                }
            }
        }
    }
}

// ------------------------------------------------- parallel determinism ----
//
// Evaluation and construction run on the calling thread; only page
// rendering takes a worker count (`Strudel::set_jobs`), and it must not
// change a byte of the output.

/// The whole pipeline gives the same output at every job count: the site
/// graph prints to the same DDL, and the rendered site is the one recorded
/// at 49393a1 from the serial generator this one replaced — FNV-1a over
/// every `(name, html)` in name order, the benchmark's `digests.site`.
#[test]
fn full_build_is_pinned_at_every_job_count() {
    let build_at = |jobs: usize| {
        let mut s = strudel::synth::news::system(150, 7, false).unwrap();
        s.set_jobs(jobs);
        let build = s.build_site().unwrap();
        let graph_ddl = strudel::graph::ddl::print(&build.graph);
        let site = s.generate_site(&["FrontPage"]).unwrap();
        let digest = site.pages.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, page| {
            let bytes = page.0.bytes().chain([0]).chain(page.1.bytes()).chain([0]);
            bytes.fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        (graph_ddl, (site.pages.len(), site.total_bytes(), digest))
    };
    let one = build_at(1);
    assert_eq!(one.1, (158, 74_670, 0x6a9f_429b_9c8b_10eb), "jobs=1");
    for jobs in [2usize, 4, 8] {
        let many = build_at(jobs);
        assert_eq!(many.0, one.0, "site graph diverges at jobs={jobs}");
        assert_eq!(many.1, one.1, "site diverges at jobs={jobs}");
    }
}

// -------------------------------------------------- compiled plan layer ----
//
// PR 7 compiles each conjunction into an explicit physical plan (operator
// choice + cardinality estimates) that is cached across evaluations and
// adaptively re-optimized from runtime row counts. None of that machinery
// may change *what* is computed: every planner/cache/adaptive configuration
// must be set-equal to the reference interpreter, and whole-site builds
// must stay byte-identical.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Executing the compiled physical plan — under every optimizer, from a
    /// plan slot an earlier evaluation filled or from a fresh one, and with
    /// adaptive re-optimization enabled or disabled — is set-equal to the
    /// tuple-at-a-time reference interpreter.
    #[test]
    fn compiled_plans_match_reference(
        rg in arb_graph(),
        shape in 0u8..20,
        specs in proptest::collection::vec(
            (0..SPEC_KINDS, 0u8..8, 0u8..8, 0u8..8, 0u8..9, 0u8..4, 0u8..4, -3i64..6),
            0..6,
        ),
    ) {
        use strudel::struql::evaluate_conditions;
        let (g, la) = shaped(&rg, shape);
        let (bound, first, start) = start_of(&la);
        let conds = lower_from(&specs, bound);
        let expect = reference::canon(reference::evaluate_from(&g, &conds, first).iter());
        for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
            // Filled by an earlier evaluation, as a site's slot is after a
            // conjunction's first click.
            let filled = PlanSlot::default();
            let earlier = EvalOptions::with_optimizer(opt);
            evaluate_conditions(&conds, &g, start.clone(), &earlier, &filled).unwrap();
            for (reuse, adaptive) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut opts = EvalOptions::with_optimizer(opt);
                opts.adaptive = adaptive;
                let fresh = PlanSlot::default();
                let slot = if reuse { &filled } else { &fresh };
                let got = evaluate_conditions(&conds, &g, start.clone(), &opts, slot).unwrap();
                prop_assert_eq!(
                    engine_row_set(&got),
                    expect.clone(),
                    "optimizer {:?} filled slot {} adaptive {}",
                    opt,
                    reuse,
                    adaptive
                );
            }
        }
    }
}

/// Whole-site builds are byte-identical across all three optimizers: same
/// site-graph DDL, same rendered page bytes. The canonical binding order
/// makes construction order (hence oid assignment and page text)
/// plan-independent. Every build compiles its own plans, so a second build
/// (the one behind `generate_site`) plans from scratch as the first did.
#[test]
fn optimizer_and_plan_cache_are_byte_invisible() {
    let build_at = |opt: Optimizer| {
        let mut s = strudel::synth::news::system(60, 7, false).unwrap();
        s.options_mut().optimizer = opt;
        let build = s.build_site().unwrap();
        let graph_ddl = ddl::print(&build.graph);
        let site = s.generate_site(&["FrontPage"]).unwrap();
        let mut pages: Vec<(String, String)> = site
            .pages
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pages.sort();
        (graph_ddl, pages)
    };
    let baseline = build_at(Optimizer::CostBased);
    for opt in [Optimizer::Naive, Optimizer::Heuristic] {
        let other = build_at(opt);
        assert_eq!(other.0, baseline.0, "site graph diverges under {opt:?}");
        assert_eq!(other.1, baseline.1, "pages diverge under {opt:?}");
    }
}

/// Expands every page reachable from `site`'s roots; the number of pages.
fn crawl(site: &strudel::site::DynamicSite<'_>) -> usize {
    use strudel::site::{PageRef, Target};
    let mut seen = std::collections::HashSet::new();
    let mut todo: Vec<PageRef> = site.roots();
    while let Some(page) = todo.pop() {
        if seen.insert(page.clone()) {
            let links = site.expand(&page).unwrap();
            todo.extend(links.into_iter().filter_map(|l| match l.target {
                Target::Page(p) => Some(p),
                Target::Value(_) => None,
            }));
        }
    }
    seen.len()
}

/// Plan slots: a site's first crawl compiles one plan per conjunction it
/// evaluates (a miss each) and runs it for every later evaluation (a hit
/// each); after `cache_clear`, a second crawl evaluates every clause again
/// and compiles nothing. A build with the same options compiles its own
/// plans and counts nothing at the site.
#[test]
fn site_plan_slots_compile_once_per_conjunction() {
    use strudel::site::DynamicSite;
    use strudel::synth::news;
    let mut s = news::system(60, 7, false).unwrap();
    let data = ddl::parse(&news::generate_ddl(60, 7)).unwrap();
    let query = parse_query(news::SITE_QUERY).unwrap();
    let opts = s.options_mut().clone();
    let program = strudel::struql::SiteProgram::compile(&query, &opts.predicates).unwrap();
    let conjunctions = program.conjunctions().len();
    let site = DynamicSite::new(&data, &query, opts).unwrap();
    let crawl = || crawl(&site);

    let pages = crawl();
    let first = site.plan_cache_stats();
    let queries = site.stats().clause_queries;
    assert!(
        pages > 60 && conjunctions == 5,
        "{pages} pages, {conjunctions}"
    );
    assert_eq!(first.misses, conjunctions as u64, "{first:?}");
    assert_eq!(first.hits + first.misses, queries, "{first:?}");

    site.cache_clear();
    assert_eq!(crawl(), pages);
    let second = site.plan_cache_stats();
    let queries = site.stats().clause_queries - queries;
    assert_eq!(second.misses, first.misses, "{second:?}");
    assert_eq!(second.hits - first.hits, queries, "{second:?}");

    s.build_site().unwrap();
    assert_eq!(site.plan_cache_stats(), second);
}

/// A ring of `n` nodes in `Nodes`, each with a `next` edge to its successor.
fn ring(n: usize) -> Graph {
    let mut g = Graph::standalone();
    let nodes: Vec<_> = (0..n).map(|i| g.new_node(Some(&format!("r{i}")))).collect();
    for (i, &v) in nodes.iter().enumerate() {
        g.add_to_collection_str("Nodes", Value::Node(v));
        g.add_edge_str(v, "next", Value::Node(nodes[(i + 1) % n]))
            .unwrap();
    }
    g
}

/// Path memos live in the plan slot of their conjunction: a ring site's
/// first crawl misses once for the automaton and once per start node, and
/// hits the automaton on every other page; after `cache_clear` a second
/// crawl only hits. An evaluation with a clone of the site's options runs
/// through slots of its own and leaves the site's counts as they were.
#[test]
fn site_path_memos_live_in_their_slots() {
    use strudel::site::DynamicSite;
    const NODES: u64 = 40;
    let data = ring(NODES as usize);
    let query = parse_query(
        r#"CREATE Root()
           { WHERE Nodes(x)
             CREATE P(x)
             LINK Root() -> "node" -> P(x)
             { WHERE x -> * -> y LINK P(x) -> "reach" -> y } }"#,
    )
    .unwrap();
    let opts = EvalOptions::default();
    let site = DynamicSite::new(&data, &query, opts.clone()).unwrap();

    assert_eq!(crawl(&site), NODES as usize + 1);
    let first = site.path_cache_stats();
    assert_eq!((first.hits, first.misses), (NODES - 1, NODES + 1));

    site.cache_clear();
    crawl(&site);
    let second = site.path_cache_stats();
    assert_eq!(second.misses, first.misses, "{second:?}");
    assert_eq!(second.hits - first.hits, 2 * NODES, "{second:?}");

    let out = query.evaluate(&data, &opts.clone()).unwrap();
    assert_eq!(out.table.iter().count(), NODES as usize + 1);
    assert_eq!(site.path_cache_stats(), second);
}

/// A reach set is never read against a later state of its graph: an edge
/// that extends `p -> * -> q` shows on the next evaluation with the same
/// (cloned) options.
#[test]
fn a_reach_memo_never_outlives_its_graph_state() {
    let mut g = Graph::standalone();
    let [p, q, r] = ["p", "q", "r"].map(|name| g.new_node(Some(name)));
    g.add_to_collection_str("Start", Value::Node(p));
    g.add_edge_str(p, "next", Value::Node(q)).unwrap();
    let query = parse_query(r#"WHERE Start(p), p -> * -> q COLLECT Reached(q)"#).unwrap();
    let opts = EvalOptions::default();
    let reached = |g: &Graph| {
        let out = query.evaluate(g, &opts.clone()).unwrap();
        let coll = out.graph.collection_str("Reached").unwrap();
        let mut got: Vec<_> = coll.items().iter().map(|v| v.as_node().unwrap()).collect();
        got.sort();
        got
    };
    assert_eq!(reached(&g), [p, q]);
    g.add_edge_str(q, "next", Value::Node(r)).unwrap();
    assert_eq!(reached(&g), [p, q, r]);
}

/// A hub-skewed graph whose per-label averages mislead the static planner.
/// `Big` holds only the 10 hubs, whose `a` fan-out (200) dwarfs the label's
/// average (~1.1, dragged down by 20,000 one-edge fillers), so the row
/// estimate after the first expansion is off by ~200×. The two follow-up
/// labels are inverted the same way: `x1` looks cheap (average ~3.6) but
/// expands the rows that actually flow 30×, `x2` looks expensive (average
/// 5) but keeps one row in twenty.
fn skew_graph() -> Graph {
    let mut g = Graph::standalone();
    for h in 0..10 {
        let hub = g.new_node(Some(&format!("hub{h}")));
        g.add_to_collection_str("Big", Value::Node(hub));
        for t in 0..200 {
            let tgt = g.new_node(Some(&format!("t{h}_{t}")));
            g.add_edge_str(hub, "a", Value::Node(tgt)).unwrap();
            for u in 0..30 {
                g.add_edge_str(tgt, "x1", Value::str(format!("u{h}_{t}_{u}")))
                    .unwrap();
            }
            if t % 20 == 0 {
                g.add_edge_str(tgt, "x2", Value::str("hit")).unwrap();
            }
        }
    }
    for i in 0..20_000 {
        let f = g.new_node(Some(&format!("f{i}")));
        g.add_edge_str(f, "a", Value::str("fa")).unwrap();
        g.add_edge_str(f, "x1", Value::str("fx")).unwrap();
        for j in 0..5 {
            g.add_edge_str(f, "x2", Value::str(format!("w{j}")))
                .unwrap();
        }
    }
    g
}

/// Adaptive re-planning, asserted as the count behind the speed-up rather
/// than as a time: on the skew graph the static cost-based plan runs `x1`
/// before `x2` and materializes 65,010 intermediate rows; the adaptive run
/// measures the true multipliers after the first expansion, swaps the two
/// and materializes 5,110. Both must produce the reference interpreter's
/// rows. This is the one place a re-planned suffix is compared with
/// anything: the graphs of `compiled_plans_match_reference` are too small
/// to reach the 128-row floor, so they never re-plan.
#[test]
fn adaptive_replanning_cuts_intermediate_rows_on_skew() {
    const VARS: [&str; 4] = ["x", "y", "u", "w"];
    let g = skew_graph();
    // One Skolem node per binding row, so the rows and the counters come
    // from the same evaluation.
    let q = parse_query(
        r#"WHERE Big(x), x -> "a" -> y, y -> "x1" -> u, y -> "x2" -> w
           CREATE Row(x, y, u, w)"#,
    )
    .unwrap();
    let run = |adaptive: bool| {
        let opts = EvalOptions {
            adaptive,
            ..Default::default()
        };
        let out = q.evaluate(&g, &opts).unwrap();
        let rows: reference::RowSet = out
            .table
            .iter()
            .map(|(_, args, _)| {
                let mut row: Vec<(String, String)> = VARS
                    .iter()
                    .zip(args)
                    .map(|(var, v)| (var.to_string(), reference::vkey(v)))
                    .collect();
                row.sort();
                row
            })
            .collect();
        (out.stats, rows)
    };
    let (fixed, fixed_rows) = run(false);
    let (adaptive, adaptive_rows) = run(true);

    let expect = reference::canon(reference::evaluate(&g, &q.root.where_).iter());
    assert_eq!(expect.len(), 3_000);
    assert_eq!(
        fixed_rows, expect,
        "static plan diverges from the reference"
    );
    assert_eq!(
        adaptive_rows, expect,
        "re-planned suffix diverges from the reference"
    );

    assert_eq!(fixed.plan_replans, 0);
    assert!(
        adaptive.plan_replans >= 1,
        "the skew must trigger a re-plan"
    );
    assert!(
        fixed.intermediate_rows >= 5 * adaptive.intermediate_rows,
        "static {} vs adaptive {} intermediate rows",
        fixed.intermediate_rows,
        adaptive.intermediate_rows
    );
}

// --------------------------------------- known labels and the validator ----
//
// `l = "text"` turns an arc-variable edge into the path `-> "text" ->` from
// the node where the compare has run. What that may change is stated here:
// the row *set* of every conjunction stays the arc operators' (the extended
// generators above, against the reference), the multiplicities do not — the
// graph is a multigraph, an arc operator emits a row per edge and a label
// operator a row per distinct (source, target) — and everything built from a
// relation (Skolem nodes, links, collections, aggregates over value sets)
// reads it as a set. The validator holds the other half: which variables
// each operator of a plan finds bound.

/// The conditions of a one-block query, analyzed.
fn where_of(src: &str) -> Vec<strudel::struql::Condition> {
    let q = parse_query(src).unwrap();
    let registry = strudel::struql::PredicateRegistry::with_builtins();
    let program = strudel::struql::SiteProgram::compile(&q, &registry).unwrap();
    program.stages()[0].block.where_.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The known-label plan against the same conjunction in written order:
    /// `Optimizer::Naive` runs the edge on the arc operator and filters by
    /// the compare afterwards, the other two bind `l` first and follow the
    /// label. Same site, on a multigraph with number-like labels.
    #[test]
    fn known_label_plan_agrees_with_naive(rg in arb_graph(), pick in 0usize..5) {
        let g = build_labelled(&rg);
        let label = ["a", "b", "val", "1997", "zzz"][pick];
        let q = parse_query(&format!(
            r#"WHERE Nodes(x), x -> l -> y, l = "{label}"
               CREATE P(x, y)
               LINK P(x, y) -> l -> y, P(x, y) -> "n" -> COUNT(y)
               COLLECT Out(P(x, y))"#
        ))
        .unwrap();
        let naive = q.explain(&g, &EvalOptions::with_optimizer(Optimizer::Naive)).unwrap();
        prop_assert!(naive.contains("[arc-forward]"), "{}", naive);
        // Every node carries one `val` edge among at least two others, so
        // there the compare always goes first; `"1997"` reads as a number
        // and is left to the arc operators; the rest depends on the graph.
        let costed = q.explain(&g, &EvalOptions::default()).unwrap();
        let follows_label = costed.contains("] x -> l -> y as -> ");
        prop_assert!(follows_label || label != "val", "{}", costed);
        prop_assert!(!follows_label || label != "1997", "{}", costed);
        let mut sites = Vec::new();
        for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
            let out = q.evaluate(&g, &EvalOptions::with_optimizer(opt)).unwrap();
            sites.push(site_signature(&out.graph, &out.table));
        }
        prop_assert_eq!(&sites[0], &sites[1]);
        prop_assert_eq!(&sites[1], &sites[2]);
    }

    /// The validator's static chain is the evaluator's runtime schema:
    /// after every node of every compiled plan, the variables the validated
    /// chain says are bound are the variables the live relation binds
    /// (fewer only when the relation emptied and evaluation stopped early).
    #[test]
    fn plan_validator_tracks_runtime_boundness(
        rg in arb_graph(),
        shape in 0u8..20,
        specs in proptest::collection::vec(
            (0..SPEC_KINDS, 0u8..8, 0u8..8, 0u8..8, 0u8..9, 0u8..4, 0u8..4, -3i64..6),
            0..6,
        ),
    ) {
        use std::collections::BTreeSet;
        use strudel::struql::plan::validate;
        use strudel::struql::{execute_plan, PhysicalPlan};
        let (g, la) = shaped(&rg, shape);
        let (bound, _, start) = start_of(&la);
        let conds = lower_from(&specs, bound);
        let start_set = bound.iter().copied().collect();
        for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
            let plan = PhysicalPlan::compile(&conds, &start_set, &g, opt).unwrap();
            prop_assert_eq!(plan.nodes.len(), conds.len());
            for k in 0..plan.nodes.len() {
                let prefix = PhysicalPlan { nodes: plan.nodes[..=k].to_vec(), ..plan.clone() };
                let statically: BTreeSet<&str> = validate(&prefix.nodes, &conds, &start_set)
                    .unwrap()
                    .into_iter()
                    .collect();
                let rows = execute_plan(&conds, &prefix, &g, start.clone(), &EvalOptions::default())
                    .unwrap();
                let runtime: BTreeSet<&str> = rows.vars().iter().map(String::as_str).collect();
                if rows.is_empty() {
                    prop_assert!(runtime.is_subset(&statically), "{:?} node {}", opt, k);
                } else {
                    prop_assert_eq!(&runtime, &statically, "{:?} node {}", opt, k);
                }
            }
        }
    }
}

/// Trap (c), stated: over two parallel `a` edges an arc operator keeps two
/// rows and the label operator in its place one, and they are the same set
/// — which is all a site is built from. Forward, reverse and scan.
#[test]
fn label_operators_keep_pairs_where_arc_operators_keep_edges() {
    use strudel::struql::plan::PlanNode;
    use strudel::struql::{execute_plan, Bindings, PhysOp, PhysOp::*, PhysicalPlan};
    let mut g = Graph::standalone();
    let (n, m) = (g.new_node(Some("n")), g.new_node(Some("m")));
    g.add_to_collection_str("Nodes", Value::Node(n));
    g.add_to_collection_str("Ends", Value::Node(m));
    for label in ["a", "a", "b"] {
        g.add_edge_str(n, label, Value::Node(m)).unwrap();
    }
    type Ops<'a> = &'a [(usize, PhysOp, Option<&'a str>)];
    let rows = |conds: &[strudel::struql::Condition], ops: Ops| {
        let nodes = ops.iter().map(|&(cond, op, label)| PlanNode {
            cond,
            op,
            label: label.map(Into::into),
            est_mult: 1.0,
            est_rows: 1.0,
        });
        let plan = PhysicalPlan {
            nodes: nodes.collect(),
            est_cost: 0.0,
            optimizer: Optimizer::CostBased,
            dp_fallback: false,
        };
        execute_plan(conds, &plan, &g, Bindings::unit(), &EvalOptions::default()).unwrap()
    };
    let a = Some("a");
    let cases: [(&str, Ops, Ops); 3] = [
        (
            r#"WHERE Nodes(x), x -> l -> y, l = "a" COLLECT Out(y)"#,
            &[
                (0, CollectionScan, None),
                (1, ArcForward, None),
                (2, CompareFilter, None),
            ],
            &[
                (2, CompareBind, None),
                (0, CollectionScan, None),
                (1, LabelForward, a),
            ],
        ),
        (
            r#"WHERE Ends(y), x -> l -> y, l = "a" COLLECT Out(x)"#,
            &[
                (0, CollectionScan, None),
                (1, ArcReverseIndex, None),
                (2, CompareFilter, None),
            ],
            &[
                (2, CompareBind, None),
                (0, CollectionScan, None),
                (1, LabelReverseIndex, a),
            ],
        ),
        (
            r#"WHERE x -> l -> y, l = "a" COLLECT Out(x)"#,
            &[(0, ArcScan, None), (1, CompareFilter, None)],
            &[(1, CompareBind, None), (0, LabelScan, a)],
        ),
    ];
    for (src, by_arc, by_label) in cases {
        let conds = where_of(src);
        let (per_edge, per_pair) = (rows(&conds, by_arc), rows(&conds, by_label));
        assert_eq!((per_edge.len(), per_pair.len()), (2, 1), "{src}");
        assert_eq!(
            engine_row_set(&per_edge),
            engine_row_set(&per_pair),
            "{src}"
        );
    }
}

/// The guard on the known-label rule, and what it guards: `l in {1997}`
/// binds `l` to both labels that read as the number, `"1997"` and
/// `"1997.0"`, as the edge would, and `l = "1997"` keeps the one spelled so
/// — one row, whichever of the three conditions a plan runs first.
#[test]
fn a_label_that_reads_as_a_number_is_not_a_known_label() {
    use strudel::struql::evaluate_conditions;
    let mut g = Graph::standalone();
    let n = g.new_node(Some("n"));
    g.add_to_collection_str("Nodes", Value::Node(n));
    g.add_edge_str(n, "1997", Value::str("one spelling"))
        .unwrap();
    g.add_edge_str(n, "1997.0", Value::str("the other"))
        .unwrap();
    let conds = where_of(r#"WHERE Nodes(x), l in {1997}, l = "1997", x -> l -> y COLLECT Out(y)"#);
    let expect = reference::canon(reference::evaluate(&g, &conds).iter());
    let y = |row: &Vec<(String, String)>| row.iter().any(|(v, k)| v == "y" && k.contains("one"));
    assert!(expect.len() == 1 && expect.iter().all(y), "{expect:?}");
    for opt in [Optimizer::Naive, Optimizer::Heuristic, Optimizer::CostBased] {
        let opts = EvalOptions::with_optimizer(opt);
        let unit = strudel::struql::Bindings::unit();
        let got = evaluate_conditions(&conds, &g, unit, &opts, &PlanSlot::default());
        assert_eq!(engine_row_set(&got.unwrap()), expect, "{opt:?}");
    }
}

/// A plan that did not come from the compiler is checked before it runs:
/// each of these would trip an operator's `expect` (or silently widen a row)
/// and is refused with a typed error naming the node and the variable.
#[test]
fn plan_validator_rejects_plans_the_operators_would_trip_over() {
    use strudel::struql::plan::PlanNode;
    use strudel::struql::{execute_plan, Bindings, PhysOp, PhysicalPlan};
    let mut g = Graph::standalone();
    let n = g.new_node(Some("n"));
    g.add_to_collection_str("Nodes", Value::Node(n));
    g.add_edge_str(n, "a", Value::Node(n)).unwrap();
    let conds = where_of(r#"WHERE Nodes(x), x -> l -> y, l = "a" COLLECT Out(y)"#);
    let good =
        PhysicalPlan::compile(&conds, &Default::default(), &g, Optimizer::CostBased).unwrap();
    let node = |cond, op, label: Option<&str>| PlanNode {
        cond,
        op,
        label: label.map(Into::into),
        est_mult: 1.0,
        est_rows: 1.0,
    };
    let refused_on = |conds: &[strudel::struql::Condition], nodes: Vec<PlanNode>| {
        let plan = PhysicalPlan {
            nodes,
            ..good.clone()
        };
        let run = execute_plan(conds, &plan, &g, Bindings::unit(), &EvalOptions::default());
        run.expect_err("an invalid plan").to_string()
    };
    let refused = |nodes| refused_on(&conds, nodes);
    // A single-label operator before the compare that makes its label known.
    let early = refused(vec![node(1, PhysOp::LabelScan, Some("a"))]);
    assert!(
        early.contains("node 0 [label-scan]") && early.contains("needs `l` bound"),
        "{early}"
    );
    // An expansion from a source nothing has bound.
    let sourceless = refused(vec![node(1, PhysOp::ArcForward, None)]);
    assert!(sourceless.contains("needs `x` bound"), "{sourceless}");
    // A scan that would bind a bound variable a second time.
    let twice = refused(vec![
        node(0, PhysOp::CollectionScan, None),
        node(0, PhysOp::CollectionScan, None),
    ]);
    assert!(
        twice.contains("node 1") && twice.contains("binds `x`, which is bound already"),
        "{twice}"
    );
    // A single-label operator over an arc variable without its label.
    let unlabelled = refused(vec![
        node(2, PhysOp::CompareBind, None),
        node(1, PhysOp::LabelScan, None),
    ]);
    assert!(unlabelled.contains("does not apply"), "{unlabelled}");
    // An edge scan onto a bound target: that target is the reverse index's.
    let onto = where_of(r#"WHERE Nodes(y), x -> l -> y COLLECT Out(x)"#);
    let bound_target = refused_on(
        &onto,
        vec![
            node(0, PhysOp::CollectionScan, None),
            node(1, PhysOp::ArcScan, None),
        ],
    );
    assert!(
        bound_target.contains("node 1 [arc-scan]")
            && bound_target.contains("binds `y`, which is bound already"),
        "{bound_target}"
    );
    // And the compiler's own plan passes.
    let rows = execute_plan(&conds, &good, &g, Bindings::unit(), &EvalOptions::default()).unwrap();
    assert_eq!(rows.len(), 1);
}

/// The operator catalog in docs/OBSERVABILITY.md lists every physical
/// operator's tag once, and no other: an operator added, renamed or deleted
/// fails here until the document says the same.
#[test]
fn operator_catalog_in_the_docs_is_the_tag_list() {
    use strudel::struql::PhysOp::{self, *};
    const ALL: [PhysOp; 22] = [
        CollectionSemijoin,
        CollectionScan,
        CollectionConst,
        CompareBind,
        CompareFilter,
        InSemijoin,
        InExpand,
        PredicateFilter,
        NegEdgeSemijoin,
        ArcForward,
        ArcReverseIndex,
        ArcScan,
        NegLabelSemijoin,
        LabelForward,
        LabelSemijoin,
        LabelReverseIndex,
        LabelScan,
        NegRpeSemijoin,
        RpeForward,
        RpeReverse,
        RpeScan,
        BareEdge,
    ];
    // No wildcard arm: a variant added to `PhysOp` fails to compile here
    // until it is listed, here and in `ALL`.
    let listed = |op: PhysOp| match op {
        CollectionSemijoin | CollectionScan | CollectionConst | CompareBind | CompareFilter
        | InSemijoin | InExpand | PredicateFilter | NegEdgeSemijoin | ArcForward
        | ArcReverseIndex | ArcScan | NegLabelSemijoin | LabelForward | LabelSemijoin
        | LabelReverseIndex | LabelScan | NegRpeSemijoin | RpeForward | RpeReverse | RpeScan
        | BareEdge => op.tag(),
    };
    let mut declared: Vec<&str> = ALL.map(listed).to_vec();
    let mut documented: Vec<&str> = include_str!("../docs/OBSERVABILITY.md")
        .lines()
        .skip_while(|l| *l != "### Operator catalog")
        .skip_while(|l| !l.starts_with("| tag |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .flat_map(|l| {
            l.split('|')
                .nth(1)
                .unwrap_or("")
                .split('`')
                .skip(1)
                .step_by(2)
        })
        .collect();
    declared.sort_unstable();
    documented.sort_unstable();
    assert_eq!(documented, declared, "the catalog's tag column, sorted");
}

// ------------------------------------------------------------- templates ----

proptest! {
    /// Plain HTML without directives passes through untouched.
    #[test]
    fn plain_html_is_verbatim(html in "[a-zA-Z0-9 <>/=\"\\n]{0,80}") {
        // Exclude accidental directives.
        prop_assume!(!html.to_ascii_lowercase().contains("<sfmt"));
        prop_assume!(!html.to_ascii_lowercase().contains("<sif"));
        prop_assume!(!html.to_ascii_lowercase().contains("<sfor"));
        prop_assume!(!html.to_ascii_lowercase().contains("<selse"));
        let t = strudel::template::parse_template(&html).unwrap();
        let mut g = Graph::standalone();
        let n = g.new_node(None);
        let mut ts = strudel::template::TemplateSet::new();
        ts.set_object_template(n, &html).unwrap();
        let rendered = strudel::template::Generator::new(&g, &ts).render_fragment(n).unwrap();
        prop_assert_eq!(rendered, html);
        prop_assert_eq!(t.directive_count(), 0);
    }

    /// Escaped text never contains raw markup characters.
    #[test]
    fn escape_is_safe(s in "\\PC{0,60}") {
        let escaped = strudel::template::gen::escape(&s);
        prop_assert!(!escaped.contains('<'));
        prop_assert!(!escaped.contains('>'));
        // `&` only as part of an entity.
        for (i, _) in escaped.match_indices('&') {
            let rest = &escaped[i..];
            prop_assert!(
                rest.starts_with("&amp;") || rest.starts_with("&lt;")
                    || rest.starts_with("&gt;") || rest.starts_with("&quot;"),
                "bare & in {escaped:?}"
            );
        }
    }
}

/// A sort key of every kind `ORDER=` can meet, by code; `None` is an item
/// without the key attribute, which is then its own key.
fn sort_key(code: u8, n: i64, nodes: &[strudel::graph::Oid]) -> Option<Value> {
    Some(match code {
        0 => return None,
        1 => Value::Int(n),
        2 => Value::Float(n as f64 / 2.0),
        3 => Value::Float(f64::NAN),
        4 => Value::str(format!(" {} ", n * 5)),
        5 => Value::str(format!("k{n}")),
        6 => Value::url(format!("http://h/{n}")),
        7 => Value::Bool(n % 2 == 0),
        _ => Value::Node(nodes[n.unsigned_abs() as usize % nodes.len()]),
    })
}

/// How `ORDER=` compares two keys: by coercion, and by printed form where
/// they do not coerce.
fn sort_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    a.coerced_cmp(b)
        .unwrap_or_else(|| a.to_string().cmp(&b.to_string()))
}

/// Whether [`sort_cmp`] puts `keys` in an order at all. It need not:
/// `url(a) < "b"` as text, `"b" < 1` and `1 < url(a)` as printed.
fn in_order(keys: &[Value]) -> bool {
    let le = |a: &Value, b: &Value| sort_cmp(a, b).is_le();
    keys.iter().all(|a| {
        keys.iter().all(|b| {
            sort_cmp(a, b) == sort_cmp(b, a).reverse()
                && keys.iter().all(|c| !(le(a, b) && le(b, c)) || le(a, c))
        })
    })
}

/// Holds a rendered sorted list (`unsorted[i]` has `keys[i]`, items joined
/// by commas) to the order the generator this one replaced gave it:
/// `sort_by` with both keys looked up again in every comparison, `descend`
/// as the stable ascending order reversed, so ties come out reversed. Keys
/// in no order have no order to keep: `sort_by` may leave any permutation
/// or panic, and a panic the generator owes as a typed error.
fn assert_reference_order(
    rendered: strudel::template::Result<String>,
    unsorted: &[String],
    keys: &[Value],
    descend: bool,
) {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    if in_order(keys) {
        order.sort_by(|&a, &b| {
            let (ka, kb) = (keys[a].clone(), keys[b].clone());
            sort_cmp(&ka, &kb)
        });
        if descend {
            order.reverse();
        }
        let want: Vec<&str> = order.iter().map(|&i| unsorted[i].as_str()).collect();
        assert_eq!(rendered.unwrap(), want.join(","), "{keys:?}");
        return;
    }
    match rendered {
        Ok(html) => {
            let mut got: Vec<&str> = html.split(',').collect();
            got.sort_unstable();
            order.sort_unstable_by_key(|&i| &unsorted[i]);
            let want: Vec<&str> = order.iter().map(|&i| unsorted[i].as_str()).collect();
            assert_eq!(got, want, "{keys:?}");
        }
        Err(e) => assert!(e.to_string().contains("total order"), "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `SFOR … ORDER KEY` over objects and `SFMT … ALL ORDER` over values
    /// put a list in the reference's order, whatever kinds of key it mixes.
    #[test]
    fn sorted_lists_keep_the_reference_order(
        kinds in proptest::collection::vec(0u8..9, 1..5),
        keys in proptest::collection::vec((0usize..6, -3i64..4), 0..32),
        descend in any::<bool>(),
    ) {
        use strudel::template::{Generator, TemplateSet};
        let mut g = Graph::standalone();
        let [by_key, by_value, unsorted] = ["key", "value", "unsorted"].map(|n| g.new_node(Some(n)));
        let items: Vec<_> = (0..keys.len().max(1)).map(|_| g.new_node(None)).collect();
        let keys: Vec<Option<Value>> = keys
            .iter()
            .map(|&(kind, n)| sort_key(kinds[kind % kinds.len()], n, &items))
            .collect();
        for (i, (&item, key)) in items.iter().zip(&keys).enumerate() {
            g.add_edge_str(by_key, "item", Value::Node(item)).unwrap();
            g.add_edge_str(item, "id", i as i64).unwrap();
            if let Some(key) = key {
                g.add_edge_str(item, "k", key.clone()).unwrap();
                g.add_edge_str(by_value, "v", key.clone()).unwrap();
                g.add_edge_str(unsorted, "v", key.clone()).unwrap();
            }
        }
        let order = if descend { "descend" } else { "ascend" };
        let mut ts = TemplateSet::new();
        ts.set_object_template(by_key, &format!(
            r#"<SFOR x IN @item ORDER={order} KEY=@k DELIM=","><SFMT @x.id></SFOR>"#
        )).unwrap();
        ts.set_object_template(by_value, &format!(r#"<SFMT @v ALL ORDER={order} DELIM=",">"#)).unwrap();
        ts.set_object_template(unsorted, r#"<SFMT @v ALL DELIM=",">"#).unwrap();
        let generator = Generator::new(&g, &ts);

        let ids: Vec<String> = (0..keys.len()).map(|i| i.to_string()).collect();
        let item_keys: Vec<Value> = keys
            .iter()
            .zip(&items)
            .map(|(key, &item)| key.clone().unwrap_or(Value::Node(item)))
            .collect();
        assert_reference_order(generator.render_fragment(by_key), &ids, &item_keys, descend);

        let values: Vec<Value> = keys.into_iter().flatten().collect();
        let unsorted = generator.render_fragment(unsorted).unwrap();
        let unsorted: Vec<String> = unsorted.split(',').map(String::from).collect();
        if !values.is_empty() {
            assert_reference_order(generator.render_fragment(by_value), &unsorted, &values, descend);
        }
    }
}

// ------------------------------------------------------------- tracing ----

/// A recorder of its own for each case: full sampling, and a ring small
/// enough that the larger span bursts wrap it.
fn recorder() -> strudel::obs::trace::Recorder {
    strudel::obs::trace::Recorder::new(strudel::obs::trace::TraceConfig {
        sample_rate: 1.0,
        slow_ms: 0,
        capacity: 64,
    })
}

/// Opens a nest of spans `depth` deep with `fanout` siblings per level.
fn span_burst(depth: usize, fanout: usize) {
    if depth == 0 {
        return;
    }
    for _ in 0..fanout {
        let _s = strudel::obs::trace::span("work", strudel::obs::trace::Layer::Eval);
        span_burst(depth - 1, fanout);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Span trees stay well-formed when a parallel worker pool records
    /// under one trace: every child's interval nests inside its parent's
    /// (same-thread RAII nesting), and after ring wrap-around spans whose
    /// parents were overwritten surface as extra roots instead of being
    /// dropped — the assembled forest always accounts for every span.
    #[test]
    fn span_trees_are_well_formed_under_parallel_workers(
        depth in 1usize..4,
        fanout in 1usize..4,
        workers in 1usize..5,
    ) {
        use strudel::obs::trace;
        let recorder = recorder();
        let root = recorder.begin_request("request");
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let ctx = root.ctx();
                scope.spawn(move || {
                    let _enter = trace::enter(&ctx);
                    span_burst(depth, fanout);
                });
            }
        });
        root.finish();

        let spans = recorder.snapshot_spans();
        prop_assert!(!spans.is_empty());
        let by_id: std::collections::HashMap<u64, &strudel::obs::trace::SpanRecord> =
            spans.iter().map(|s| (s.span_id, s)).collect();
        for s in &spans {
            prop_assert!(s.end_ns >= s.start_ns, "inverted interval");
            if let Some(parent) = by_id.get(&s.parent_id) {
                prop_assert!(
                    s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
                    "child [{}, {}] escapes parent [{}, {}]",
                    s.start_ns, s.end_ns, parent.start_ns, parent.end_ns,
                );
            }
        }
        // The assembled forest accounts for every captured span, even when
        // wrap-around turned interior spans into orphans.
        fn count(nodes: &[strudel::obs::trace::TreeNode]) -> usize {
            nodes.iter().map(|n| 1 + count(&n.children)).sum()
        }
        let forest = strudel::obs::trace::assemble_tree(&spans);
        prop_assert_eq!(count(&forest), spans.len());
        for node in &forest {
            prop_assert!(node.self_ns <= node.span.dur_ns());
        }
    }

    /// The Chrome trace-event export always round-trips as valid JSON:
    /// an array of complete (`ph: "X"`) events with monotonically
    /// non-decreasing timestamps and a duration on every event.
    #[test]
    fn chrome_export_roundtrips_with_monotone_ts(
        requests in 1usize..5,
        depth in 1usize..4,
    ) {
        use strudel::obs::trace;
        let recorder = recorder();
        for _ in 0..requests {
            let root = recorder.begin_request("request");
            let ctx = root.ctx();
            let _enter = trace::enter(&ctx);
            span_burst(depth, 2);
            drop(_enter);
            root.finish();
        }
        let text = recorder.traces_chrome();
        let doc = strudel::obs::json::parse(&text).expect("valid JSON");
        let events = doc.as_array().expect("an array of events");
        let mut last_ts = f64::MIN;
        for e in events {
            prop_assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            prop_assert!(e.get("dur").and_then(|d| d.as_f64()).is_some());
            prop_assert!(e.get("name").and_then(|n| n.as_str()).is_some());
            let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
            prop_assert!(ts >= last_ts, "ts went backwards: {ts} < {last_ts}");
            last_ts = ts;
        }
    }
}
