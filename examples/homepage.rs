//! The §3.1 example: a researcher's home page generated from a BibTeX
//! bibliography plus a personal-data structured file — the paper's running
//! example (Figs. 2–5 and 7), at the scale of the "mff" site of §5.1.
//!
//! ```text
//! cargo run --example homepage
//! ```
//!
//! Also demonstrates the internal/external two-version story: the same site
//! graph rendered through two template sets, the external one excluding
//! patents and proprietary publications.

use std::path::Path;
use strudel::site::Constraint;
use strudel::synth::bib;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let owner = "Mary Fernandez";
    let mut s = bib::system(owner, 30, 42)?;

    // Inspect the site schema before materializing anything (Fig. 5).
    let schema = s.site_schema()?;
    println!(
        "site schema: {} node types, {} link kinds",
        schema.nodes().len(),
        schema.edges().len()
    );

    // Verify structural constraints on the design ([FER 98b]).
    for constraint in [
        Constraint::AllReachableFrom {
            root: "RootPage".into(),
        },
        Constraint::EveryHasEdge {
            from: "PaperPresentation".into(),
            label: "Abstract".into(),
            to: "AbstractPage".into(),
        },
    ] {
        let (schema_verdict, exact) = s.verify(&constraint)?;
        println!("{constraint:?}\n  schema: {schema_verdict:?}  exact: {exact:?}");
    }

    // Internal version.
    let internal_dir = Path::new("target/site-homepage-internal");
    let internal = s.publish(&["RootPage"], internal_dir)?;
    println!(
        "internal site: {} pages -> {}",
        internal.pages.len(),
        internal_dir.display()
    );

    // External version: same site graph, different templates (§5.1: "the
    // HTML templates for the external version exclude patents, and any
    // publications and projects that are proprietary").
    *s.templates_mut() = bib::templates_external()?;
    let external_dir = Path::new("target/site-homepage-external");
    let external = s.publish(&["RootPage"], external_dir)?;
    println!(
        "external site: {} pages -> {}",
        external.pages.len(),
        external_dir.display()
    );

    println!(
        "\nquery: {} lines (paper's mff query: 48 lines)",
        bib::site_query_lines()
    );
    Ok(())
}
