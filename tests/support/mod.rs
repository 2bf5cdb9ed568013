//! Shared by the test binaries that reproduce the paper's experiments:
//! Fig. 8's site definitions at four levels of structure ([`fig8`]), the
//! two hand-coded sites it compares STRUDEL with ([`baselines`]), and the
//! digests that pin a rendered site and a site graph.

// Each test binary that declares `mod support;` uses a part of it.
#![allow(dead_code)]

pub mod baselines;
pub mod fig8;

use strudel::graph::Value;
use strudel::template::GeneratedSite;
use strudel::SiteBuild;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64 bits, over a stream of NUL-terminated fields.
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, s: &str) {
        for b in s.bytes().chain([0]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// FNV-1a, 64 bits, over every `(name, html)` of a site in name order — the
/// benchmark's `digests.site`.
pub fn site_digest(site: &GeneratedSite) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for (name, html) in &site.pages {
        h.field(name);
        h.field(html);
    }
    h.0
}

/// `(members, edges, graph, collections)` of a built site graph. `graph`
/// digests the members in order with their names, each member's out-list in
/// order (label text; a node target by name, any other value printed), the
/// summed `ConstructStats` and `SkolemTable::len`; `collections` every
/// collection in order with its items in order.
pub fn site_graph_digest(build: &SiteBuild) -> (usize, usize, u64, u64) {
    let g = &build.graph;
    let name = |v: &Value| match v {
        Value::Node(n) => g
            .node_name(*n)
            .map_or_else(|| v.to_string(), |s| s.to_string()),
        other => other.to_string(),
    };
    let reader = g.reader();
    let mut graph = Fnv(FNV_OFFSET);
    for &n in g.nodes() {
        graph.field(&name(&Value::Node(n)));
        for (label, to) in reader.out(n) {
            graph.field(&g.resolve(*label));
            graph.field(&name(to));
        }
        graph.field("");
    }
    let s = build.stats.iter().fold([0u64; 6], |t, s| {
        let c = &s.construct;
        let row = [
            c.nodes_created,
            c.edges_created,
            c.collected,
            c.edges_removed,
            c.collect_removed,
            c.nodes_removed,
        ];
        std::array::from_fn(|i| t[i] + row[i])
    });
    graph.field(&format!("{s:?} {}", build.table.len()));
    let mut collections = Fnv(FNV_OFFSET);
    for &c in g.collection_names() {
        collections.field(&g.resolve(c));
        for item in g.collection(c).unwrap().items() {
            collections.field(&name(item));
        }
    }
    (g.node_count(), g.edge_count(), graph.0, collections.0)
}
