//! Integrity constraints on site structure (\[FER 98b\], §1/§3.2).
//!
//! "Given a description of the Web site's structure in StruQL, we want to
//! check whether the resulting Web site is guaranteed to satisfy certain
//! constraints (e.g., all pages are reachable from the root, every
//! organization homepage points to the homepages of its suborganizations, or
//! proprietary data is not displayed on the external version of the site)."
//!
//! Two checkers are provided:
//!
//! * [`verify_schema`] — a *static*, conservative analysis over the
//!   [`SiteSchema`]: it answers [`Verdict::Satisfied`] or
//!   [`Verdict::Violated`] when the schema alone decides the constraint for
//!   **every** possible data graph, and [`Verdict::Unknown`] otherwise
//!   (e.g. an edge that exists only under a strictly stronger conjunction
//!   than one of the page's creation clauses, or out of pages of other
//!   arguments, may or may not materialize).
//! * [`verify_graph`] — an *exact* check on a materialized site graph,
//!   using the Skolem table to find each function's extension.

use crate::schema::SiteSchema;
use strudel_graph::fxhash::FxHashSet;
use strudel_graph::{Graph, Oid, Value};
use strudel_struql::{BlockId, SkolemTable};

/// A structural integrity constraint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Constraint {
    /// Every page (Skolem node) is reachable from pages of the root Skolem
    /// function: "all pages are reachable from the site's root".
    AllReachableFrom {
        /// The root Skolem function name, e.g. `RootPage`.
        root: String,
    },
    /// Every `from`-page has at least one edge labeled `label` to a
    /// `to`-page: "every organization homepage points to the homepages of
    /// its suborganizations".
    EveryHasEdge {
        /// Source Skolem function.
        from: String,
        /// Required edge label.
        label: String,
        /// Target Skolem function.
        to: String,
    },
    /// No page of function `forbidden` is reachable from pages of function
    /// `from`: "proprietary data is not displayed on the external version".
    NoneReachable {
        /// Start Skolem function.
        from: String,
        /// Forbidden Skolem function.
        forbidden: String,
    },
}

/// The result of a static schema check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Guaranteed for every data graph.
    Satisfied,
    /// Guaranteed violated (structurally impossible to satisfy).
    Violated(String),
    /// The schema alone cannot decide; check the materialized graph.
    Unknown(String),
}

/// Whether an edge exists wherever a page is created: the edge's governing
/// blocks all govern the creation (every condition of the edge's
/// conjunction is one of the creation's), and the edge's end at the page
/// carries the creation's argument variables, so it names that very page.
fn guarantees(creation: (&[BlockId], &[String]), edge: &[BlockId], edge_args: &[String]) -> bool {
    let (create_q, create_args) = creation;
    edge.iter().all(|x| create_q.contains(x)) && edge_args == create_args
}

/// Statically verifies `constraint` against a site schema.
pub fn verify_schema(schema: &SiteSchema, constraint: &Constraint) -> Verdict {
    match constraint {
        Constraint::AllReachableFrom { root } => {
            let Some(root_idx) = schema.node_index(root) else {
                return Verdict::Violated(format!("no Skolem function named {root}"));
            };
            let reach: FxHashSet<usize> = schema.reachable_from(root_idx).into_iter().collect();
            let mut conditional = Vec::new();
            for (i, node) in schema.nodes().iter().enumerate() {
                let creations = schema.creations(i);
                if creations.is_empty() {
                    continue; // NS or never-created function
                }
                if !reach.contains(&i) {
                    return Verdict::Violated(format!(
                        "{} is never linked from {root} in the schema",
                        node.name()
                    ));
                }
                // Reachable in the schema, but is every *instance* linked?
                // Conservative: under each of the node's creation clauses,
                // some schema edge into `i` must be guaranteed. We only
                // check the direct in-edges here.
                let guaranteed = creations.iter().all(|&c| {
                    (schema.edges().iter())
                        .any(|e| e.to == i && guarantees(c, &e.queries, &e.to_args))
                });
                if !guaranteed && i != root_idx {
                    conditional.push(node.name().to_string());
                }
            }
            if conditional.is_empty() {
                Verdict::Satisfied
            } else {
                Verdict::Unknown(format!(
                    "pages of {} are linked only under extra conditions",
                    conditional.join(", ")
                ))
            }
        }
        Constraint::EveryHasEdge { from, label, to } => {
            let Some(from_idx) = schema.node_index(from) else {
                return Verdict::Violated(format!("no Skolem function named {from}"));
            };
            let Some(to_idx) = schema.node_index(to) else {
                return Verdict::Violated(format!("no Skolem function named {to}"));
            };
            let edges: Vec<_> = (schema.edges().iter())
                .filter(|e| {
                    e.from == from_idx && e.to == to_idx && e.label.as_deref() == Some(label)
                })
                .collect();
            // The edge exists whenever the page exists, under each of its
            // creation clauses.
            let guaranteed = schema
                .creations(from_idx)
                .into_iter()
                .all(|c| (edges.iter()).any(|e| guarantees(c, &e.queries, &e.from_args)));
            if edges.is_empty() {
                Verdict::Violated(format!(
                    "no link clause {from} -{label}-> {to} in the query"
                ))
            } else if guaranteed {
                Verdict::Satisfied
            } else {
                Verdict::Unknown(format!(
                    "{from} -{label}-> {to} is not linked under every creation of {from}"
                ))
            }
        }
        Constraint::NoneReachable { from, forbidden } => {
            let Some(from_idx) = schema.node_index(from) else {
                return Verdict::Violated(format!("no Skolem function named {from}"));
            };
            let Some(bad_idx) = schema.node_index(forbidden) else {
                // Nothing of that function can ever exist.
                return Verdict::Satisfied;
            };
            if schema.reachable_from(from_idx).contains(&bad_idx) {
                // A schema path exists; it may or may not materialize.
                Verdict::Unknown(format!("a schema path {from} →* {forbidden} exists"))
            } else {
                Verdict::Satisfied
            }
        }
    }
}

/// The extension of a Skolem function in a materialized site.
fn extension(table: &SkolemTable, name: &str) -> Vec<Oid> {
    table
        .iter()
        .filter(|(f, _, _)| *f == name)
        .map(|(_, _, oid)| oid)
        .collect()
}

/// Node-to-node reachability over a site graph.
fn graph_reachable(graph: &Graph, starts: &[Oid]) -> FxHashSet<Oid> {
    let reader = graph.reader();
    let mut seen: FxHashSet<Oid> = FxHashSet::default();
    let mut stack: Vec<Oid> = starts.to_vec();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        for (_, v) in reader.out(n) {
            if let Value::Node(m) = v {
                if !seen.contains(m) {
                    stack.push(*m);
                }
            }
        }
    }
    seen
}

/// Exactly verifies `constraint` against a materialized site graph and the
/// Skolem table that built it.
pub fn verify_graph(graph: &Graph, table: &SkolemTable, constraint: &Constraint) -> Verdict {
    match constraint {
        Constraint::AllReachableFrom { root } => {
            let roots = extension(table, root);
            if roots.is_empty() {
                return Verdict::Violated(format!("no instances of {root} exist"));
            }
            let reach = graph_reachable(graph, &roots);
            for (f, args, oid) in table.iter() {
                if !reach.contains(&oid) {
                    return Verdict::Violated(format!(
                        "{f}({}) is not reachable from {root}",
                        args.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    ));
                }
            }
            Verdict::Satisfied
        }
        Constraint::EveryHasEdge { from, label, to } => {
            let to_set: FxHashSet<Oid> = extension(table, to).into_iter().collect();
            let reader = graph.reader();
            let Some(sym) = graph.universe().interner().get(label) else {
                return Verdict::Violated(format!("label {label:?} never occurs in the site"));
            };
            for n in extension(table, from) {
                let ok = reader
                    .attr_values(n, sym)
                    .any(|v| v.as_node().is_some_and(|m| to_set.contains(&m)));
                if !ok {
                    return Verdict::Violated(format!(
                        "{} lacks a {label:?} edge to a {to} page",
                        graph.node_name(n).unwrap_or_default()
                    ));
                }
            }
            Verdict::Satisfied
        }
        Constraint::NoneReachable { from, forbidden } => {
            let reach = graph_reachable(graph, &extension(table, from));
            for n in extension(table, forbidden) {
                if reach.contains(&n) {
                    return Verdict::Violated(format!(
                        "{} is reachable from {from}",
                        graph.node_name(n).unwrap_or_default()
                    ));
                }
            }
            Verdict::Satisfied
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_struql::{parse_query, EvalOptions, PredicateRegistry, Query, SiteProgram};

    fn schema_of(q: &Query) -> SiteSchema {
        SiteSchema::new(SiteProgram::compile(q, &PredicateRegistry::with_builtins()).unwrap())
    }

    fn data() -> Graph {
        ddl::parse(
            r#"
object p1 in Publications { title "A" year 1997 }
object p2 in Publications { title "B" year 1998 proprietary true }
"#,
        )
        .unwrap()
    }

    const GOOD: &str = r#"
CREATE Root()
{
  WHERE Publications(x)
  CREATE Page(x)
  LINK Root() -> "Paper" -> Page(x), Page(x) -> "Up" -> Root()
}
"#;

    #[test]
    fn schema_reachability_satisfied() {
        let q = parse_query(GOOD).unwrap();
        let s = schema_of(&q);
        assert_eq!(
            verify_schema(
                &s,
                &Constraint::AllReachableFrom {
                    root: "Root".into()
                }
            ),
            Verdict::Satisfied
        );
    }

    #[test]
    fn schema_reachability_violated_for_orphan() {
        let q = parse_query(
            r#"CREATE Root()
               { WHERE Publications(x) CREATE Orphan(x) LINK Orphan(x) -> "Up" -> Root() }"#,
        )
        .unwrap();
        let s = schema_of(&q);
        match verify_schema(
            &s,
            &Constraint::AllReachableFrom {
                root: "Root".into(),
            },
        ) {
            Verdict::Violated(msg) => assert!(msg.contains("Orphan"), "{msg}"),
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn schema_reachability_unknown_when_link_is_conditional() {
        // Pages are created for every publication, but linked only for 1997
        // ones: the schema alone cannot guarantee reachability.
        let q = parse_query(
            r#"CREATE Root()
               { WHERE Publications(x) CREATE Page(x)
                 { WHERE x -> "year" -> 1997 LINK Root() -> "Paper" -> Page(x) } }"#,
        )
        .unwrap();
        let s = schema_of(&q);
        assert!(matches!(
            verify_schema(
                &s,
                &Constraint::AllReachableFrom {
                    root: "Root".into()
                }
            ),
            Verdict::Unknown(_)
        ));
        // ...and the exact graph check catches the violation on real data.
        let out = parse_query(q.to_string().as_str())
            .unwrap()
            .evaluate(&data(), &EvalOptions::default())
            .unwrap();
        assert!(matches!(
            verify_graph(
                &out.graph,
                &out.table,
                &Constraint::AllReachableFrom {
                    root: "Root".into()
                }
            ),
            Verdict::Violated(_)
        ));
    }

    #[test]
    fn every_has_edge_schema_and_graph() {
        let q = parse_query(GOOD).unwrap();
        let s = schema_of(&q);
        let c = Constraint::EveryHasEdge {
            from: "Page".into(),
            label: "Up".into(),
            to: "Root".into(),
        };
        assert_eq!(verify_schema(&s, &c), Verdict::Satisfied);
        let out = q.evaluate(&data(), &EvalOptions::default()).unwrap();
        assert_eq!(verify_graph(&out.graph, &out.table, &c), Verdict::Satisfied);

        let missing = Constraint::EveryHasEdge {
            from: "Root".into(),
            label: "Index".into(),
            to: "Page".into(),
        };
        assert!(matches!(verify_schema(&s, &missing), Verdict::Violated(_)));
        assert!(matches!(
            verify_graph(&out.graph, &out.table, &missing),
            Verdict::Violated(_)
        ));
    }

    #[test]
    fn none_reachable_proprietary_exclusion() {
        // External site links only non-proprietary pages.
        let external = parse_query(
            r#"CREATE Root()
               { WHERE Publications(x), not(x -> "proprietary" -> true)
                 CREATE Page(x) LINK Root() -> "Paper" -> Page(x) }
               { WHERE Publications(x), x -> "proprietary" -> true
                 CREATE Secret(x) }"#,
        )
        .unwrap();
        let s = schema_of(&external);
        let c = Constraint::NoneReachable {
            from: "Root".into(),
            forbidden: "Secret".into(),
        };
        assert_eq!(verify_schema(&s, &c), Verdict::Satisfied);
        let out = external.evaluate(&data(), &EvalOptions::default()).unwrap();
        assert_eq!(verify_graph(&out.graph, &out.table, &c), Verdict::Satisfied);
    }

    #[test]
    fn none_reachable_detects_leak() {
        let leaky = parse_query(
            r#"CREATE Root()
               { WHERE Publications(x), x -> "proprietary" -> true
                 CREATE Secret(x) LINK Root() -> "Paper" -> Secret(x) }"#,
        )
        .unwrap();
        let s = schema_of(&leaky);
        let c = Constraint::NoneReachable {
            from: "Root".into(),
            forbidden: "Secret".into(),
        };
        assert!(matches!(verify_schema(&s, &c), Verdict::Unknown(_)));
        let out = leaky.evaluate(&data(), &EvalOptions::default()).unwrap();
        assert!(matches!(
            verify_graph(&out.graph, &out.table, &c),
            Verdict::Violated(_)
        ));
    }

    #[test]
    fn unknown_function_names() {
        let q = parse_query(GOOD).unwrap();
        let s = schema_of(&q);
        assert!(matches!(
            verify_schema(
                &s,
                &Constraint::AllReachableFrom {
                    root: "Nope".into()
                }
            ),
            Verdict::Violated(_)
        ));
        assert_eq!(
            verify_schema(
                &s,
                &Constraint::NoneReachable {
                    from: "Root".into(),
                    forbidden: "Nope".into()
                }
            ),
            Verdict::Satisfied
        );
    }

    #[test]
    fn graph_check_handles_empty_roots() {
        let q = parse_query(
            r#"{ WHERE Publications(x), x -> "year" -> 1642 CREATE Root() }
               { WHERE Publications(x) CREATE Page(x) COLLECT P(Page(x)) }"#,
        )
        .unwrap();
        let out = q.evaluate(&data(), &EvalOptions::default()).unwrap();
        assert!(matches!(
            verify_graph(
                &out.graph,
                &out.table,
                &Constraint::AllReachableFrom {
                    root: "Root".into()
                }
            ),
            Verdict::Violated(_)
        ));
    }
}
