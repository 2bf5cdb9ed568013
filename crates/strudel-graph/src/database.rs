//! A database: a set of named graphs over one shared object universe (§2.1).
//!
//! "A database consists of a set of graphs … Graphs of the same database may
//! share objects and/or collections." The database is the unit the STRUDEL
//! query processor operates on: StruQL names one input graph and one output
//! graph (`INPUT BIBTEX … OUTPUT HomePage`), both resolved here.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, Universe};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of named graphs sharing a [`Universe`].
pub struct Database {
    universe: Arc<Universe>,
    graphs: BTreeMap<String, Graph>,
}

impl Database {
    /// Creates an empty database with a fresh universe.
    pub fn new() -> Self {
        Database {
            universe: Universe::new(),
            graphs: BTreeMap::new(),
        }
    }

    /// The shared universe.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Creates an empty graph under `name`.
    pub fn create_graph(&mut self, name: &str) -> Result<&mut Graph> {
        if self.graphs.contains_key(name) {
            return Err(GraphError::DuplicateGraph(name.to_string()));
        }
        self.graphs
            .insert(name.to_string(), Graph::new(Arc::clone(&self.universe)));
        Ok(self.graphs.get_mut(name).expect("just inserted"))
    }

    /// Inserts an existing graph under `name`. The graph must share this
    /// database's universe (so oids and symbols are meaningful).
    pub fn insert_graph(&mut self, name: &str, graph: Graph) -> Result<()> {
        if self.graphs.contains_key(name) {
            return Err(GraphError::DuplicateGraph(name.to_string()));
        }
        assert!(
            Arc::ptr_eq(graph.universe(), &self.universe),
            "graph belongs to a different universe"
        );
        self.graphs.insert(name.to_string(), graph);
        Ok(())
    }

    /// Removes and returns the graph under `name`.
    pub fn remove_graph(&mut self, name: &str) -> Result<Graph> {
        self.graphs
            .remove(name)
            .ok_or_else(|| GraphError::UnknownGraph(name.to_string()))
    }

    /// Borrows the graph under `name`.
    pub fn graph(&self, name: &str) -> Result<&Graph> {
        self.graphs
            .get(name)
            .ok_or_else(|| GraphError::UnknownGraph(name.to_string()))
    }

    /// Whether a graph named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.graphs.contains_key(name)
    }

    /// Names of all graphs, sorted.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> {
        self.graphs.keys().map(String::as_str)
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the database holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_graph("BIBTEX").unwrap();
        assert!(db.contains("BIBTEX"));
        assert!(db.graph("BIBTEX").is_ok());
        assert!(db.graph("missing").is_err());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::new();
        db.create_graph("G").unwrap();
        assert!(matches!(
            db.create_graph("G"),
            Err(GraphError::DuplicateGraph(_))
        ));
    }

    #[test]
    fn graphs_share_objects() {
        let mut db = Database::new();
        let n = {
            let data = db.create_graph("Data").unwrap();
            let n = data.new_node(Some("shared"));
            data.add_edge_str(n, "k", 7i64).unwrap();
            n
        };
        {
            let site = db.create_graph("Site").unwrap();
            site.adopt_node(n).unwrap();
        }
        let site = db.graph("Site").unwrap();
        assert!(site.contains_node(n));
        assert_eq!(site.node_name(n).as_deref(), Some("shared"));
        let k = db.universe().interner().get("k").unwrap();
        assert_eq!(site.reader().attr(n, k), Some(&Value::Int(7)));
    }

    #[test]
    fn remove_returns_graph() {
        let mut db = Database::new();
        db.create_graph("G").unwrap();
        let g = db.remove_graph("G").unwrap();
        assert_eq!(g.node_count(), 0);
        assert!(!db.contains("G"));
        assert!(db.remove_graph("G").is_err());
    }

    #[test]
    fn graph_names_sorted() {
        let mut db = Database::new();
        db.create_graph("b").unwrap();
        db.create_graph("a").unwrap();
        let names: Vec<_> = db.graph_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
