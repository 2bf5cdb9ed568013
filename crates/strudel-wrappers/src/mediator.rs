//! The mediator: GAV data integration with warehousing (§2.3).
//!
//! "STRUDEL's mediator supports data integration by providing a uniform view
//! of all underlying data, irrespective of where it is stored." The
//! prototype chose **warehousing** ("data from multiple sources is loaded
//! into a warehouse, and all queries are applied to the warehoused data";
//! this "simplified our implementation and sufficed for our applications,
//! which have small databases") and **global-as-view** mappings ("for each
//! relation R in the mediated schema, a query over the source relations
//! specifies how to obtain R's tuples"; GAV "was immediately extensible to
//! StruQL" and suited the small, stable set of sources).
//!
//! Here each source is a [`Source`] producing a graph in the mediator's
//! universe; each GAV mapping is a StruQL query over one source graph whose
//! construction clauses populate the mediated data graph. All mappings
//! share one Skolem table, so objects derived from different sources unify
//! when their Skolem terms agree — that is how overlapping sources merge.

use std::sync::Arc;
use strudel_graph::graph::Universe;
use strudel_graph::Graph;
use strudel_struql::{parse_query, EvalOptions, Query, Result, SkolemTable, StruqlError};

/// A data source: anything that can materialize its contents as a graph in
/// the mediator's universe.
pub trait Source {
    /// Loads the source into a fresh graph belonging to `universe`.
    fn load(&self, universe: &Arc<Universe>) -> Result<Graph>;
}

/// A source backed by a closure (wrappers adapt through this).
pub struct FnSource<F>(pub F);

impl<F> Source for FnSource<F>
where
    F: Fn(&Arc<Universe>) -> Result<Graph>,
{
    fn load(&self, universe: &Arc<Universe>) -> Result<Graph> {
        (self.0)(universe)
    }
}

struct Registered {
    name: String,
    source: Box<dyn Source>,
    /// GAV mappings over this source. `None` entries mean "identity":
    /// adopt the source graph's nodes and collections verbatim.
    mappings: Vec<Query>,
    identity: bool,
}

/// The warehousing mediator.
pub struct Mediator {
    universe: Arc<Universe>,
    sources: Vec<Registered>,
    opts: EvalOptions,
    warehouse: Option<Graph>,
    refresh_count: u64,
}

impl Mediator {
    /// Creates an empty mediator with its own universe.
    pub fn new() -> Self {
        Mediator {
            universe: Universe::new(),
            sources: Vec::new(),
            opts: EvalOptions::default(),
            warehouse: None,
            refresh_count: 0,
        }
    }

    /// The mediator's universe (site graphs should be built in it too).
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Registers a source with *identity* integration: its objects and
    /// collections enter the data graph unchanged.
    pub fn add_source(&mut self, name: &str, source: Box<dyn Source>) {
        self.sources.push(Registered {
            name: name.to_string(),
            source,
            mappings: Vec::new(),
            identity: true,
        });
        self.warehouse = None;
    }

    /// Adds a GAV mapping: a StruQL query evaluated over the named source's
    /// graph, whose `CREATE`/`LINK`/`COLLECT` clauses populate the mediated
    /// data graph. Registering a mapping turns identity integration off for
    /// that source.
    pub fn add_mapping(&mut self, source_name: &str, query_src: &str) -> Result<()> {
        let query = parse_query(query_src)?;
        let reg = self
            .sources
            .iter_mut()
            .find(|s| s.name == source_name)
            .ok_or_else(|| StruqlError::Eval(format!("no source named {source_name}")))?;
        reg.mappings.push(query);
        reg.identity = false;
        self.warehouse = None;
        Ok(())
    }

    /// Whether the warehouse must be rebuilt before queries can run.
    pub fn is_stale(&self) -> bool {
        self.warehouse.is_none()
    }

    /// Number of refreshes performed.
    pub fn refresh_count(&self) -> u64 {
        self.refresh_count
    }

    /// (Re)builds the warehouse: loads every source and runs its mappings
    /// (or identity integration) into a fresh mediated data graph.
    pub fn refresh(&mut self) -> Result<&Graph> {
        let mut data = Graph::new(Arc::clone(&self.universe));
        let mut table = SkolemTable::new();
        for reg in &self.sources {
            let source_graph = reg.source.load(&self.universe)?;
            if reg.identity {
                adopt_all(&mut data, &source_graph)?;
            } else {
                for mapping in &reg.mappings {
                    mapping.evaluate_into(&source_graph, &mut data, &mut table, &self.opts)?;
                }
            }
        }
        self.warehouse = Some(data);
        self.refresh_count += 1;
        Ok(self.warehouse.as_ref().expect("just built"))
    }

    /// The warehoused data graph; `None` until [`Mediator::refresh`] runs.
    pub fn data_graph(&self) -> Option<&Graph> {
        self.warehouse.as_ref()
    }
}

impl Default for Mediator {
    fn default() -> Self {
        Self::new()
    }
}

/// Identity integration: every node and collection of `src` joins `data`
/// (without reading the nodes, so a store's segments stay unbuilt).
fn adopt_all(data: &mut Graph, src: &Graph) -> Result<()> {
    data.adopt_graph(src).map_err(StruqlError::Graph)?;
    for &coll in src.collection_names() {
        let name = src.resolve(coll);
        let sym = data.ensure_collection(&name);
        for item in src.collection(coll).expect("listed").items() {
            data.add_to_collection(sym, item.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bibtex, relational};
    use strudel_graph::Oid;

    /// The first node of `g` whose provenance name is `name`.
    fn node_named(g: &Graph, name: &str) -> Option<Oid> {
        g.nodes()
            .iter()
            .copied()
            .find(|&n| g.node_name(n).as_deref() == Some(name))
    }

    fn bib_source() -> Box<dyn Source> {
        Box::new(FnSource(|u: &Arc<Universe>| {
            let mut g = Graph::new(Arc::clone(u));
            bibtex::load_into(
                &mut g,
                r#"@article{a1, title = {Paper One}, author = {Mary Fernandez}, year = 1997}"#,
            )
            .map_err(StruqlError::Graph)?;
            Ok(g)
        }))
    }

    fn people_source() -> Box<dyn Source> {
        Box::new(FnSource(|u: &Arc<Universe>| {
            let mut g = Graph::new(Arc::clone(u));
            let t =
                relational::Table::from_csv("People", "id,name\n1,Mary Fernandez\n2,Dan Suciu\n")
                    .map_err(StruqlError::Graph)?;
            relational::load_into(&mut g, &[t], &[]).map_err(StruqlError::Graph)?;
            Ok(g)
        }))
    }

    #[test]
    fn identity_integration_unions_sources() {
        let mut m = Mediator::new();
        m.add_source("bib", bib_source());
        m.add_source("people", people_source());
        let data = m.refresh().unwrap();
        assert_eq!(data.collection_str("Publications").unwrap().len(), 1);
        assert_eq!(data.collection_str("People").unwrap().len(), 2);
    }

    #[test]
    fn gav_mappings_restructure_sources() {
        let mut m = Mediator::new();
        m.add_source("bib", bib_source());
        m.add_source("people", people_source());
        // Mediated schema: Person(name) objects, fed by BOTH sources, unified
        // by Skolem identity on the name.
        m.add_mapping(
            "bib",
            r#"WHERE Publications(p), p -> "author" -> a
               CREATE Person(a)
               LINK Person(a) -> "name" -> a, Person(a) -> "wrote" -> p
               COLLECT Persons(Person(a))"#,
        )
        .unwrap();
        m.add_mapping(
            "people",
            r#"WHERE People(x), x -> "name" -> a
               CREATE Person(a)
               LINK Person(a) -> "name" -> a, Person(a) -> "staffRecord" -> x
               COLLECT Persons(Person(a))"#,
        )
        .unwrap();
        let data = m.refresh().unwrap();
        let persons = data.collection_str("Persons").unwrap();
        // Mary appears in both sources → one unified object; Dan only in
        // the staff table → 2 persons total.
        assert_eq!(persons.len(), 2, "overlapping sources must unify");
        let mary = node_named(data, "Person(Mary Fernandez)").expect("unified node");
        let interner = data.universe().interner();
        let r = data.reader();
        assert!(r.attr(mary, interner.get("wrote").unwrap()).is_some());
        assert!(r.attr(mary, interner.get("staffRecord").unwrap()).is_some());
    }

    #[test]
    fn staleness_and_refresh_cycle() {
        let mut m = Mediator::new();
        m.add_source("bib", bib_source());
        assert!(m.is_stale());
        assert!(m.data_graph().is_none());
        m.refresh().unwrap();
        assert!(!m.is_stale());
        assert_eq!(m.refresh_count(), 1);
        m.add_source("people", people_source());
        assert!(m.is_stale());
        m.refresh().unwrap();
        assert_eq!(m.refresh_count(), 2);
    }

    #[test]
    fn adding_sources_or_mappings_invalidates() {
        let mut m = Mediator::new();
        m.add_source("bib", bib_source());
        m.refresh().unwrap();
        m.add_source("people", people_source());
        assert!(m.is_stale());
        m.refresh().unwrap();
        m.add_mapping("bib", "WHERE Publications(p) CREATE P(p) COLLECT Ps(P(p))")
            .unwrap();
        assert!(m.is_stale());
    }

    #[test]
    fn mapping_unknown_source_errors() {
        let mut m = Mediator::new();
        assert!(m.add_mapping("nope", "CREATE X()").is_err());
    }

    #[test]
    fn mixed_identity_and_mapped_sources() {
        let mut m = Mediator::new();
        m.add_source("bib", bib_source()); // identity
        m.add_source("people", people_source());
        m.add_mapping("people", r#"WHERE People(x), x -> "name" -> a CREATE Staff(x) LINK Staff(x) -> "name" -> a COLLECT AllStaff(Staff(x))"#)
            .unwrap();
        let data = m.refresh().unwrap();
        assert!(data.collection_str("Publications").is_some());
        assert_eq!(data.collection_str("AllStaff").unwrap().len(), 2);
        assert!(
            data.collection_str("People").is_none(),
            "mapped source collections do not leak"
        );
    }
}
