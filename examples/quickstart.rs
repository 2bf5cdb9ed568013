//! Quickstart: the whole STRUDEL pipeline on a tiny bibliography.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a data graph from inline BibTeX, defines the site structure with
//! a StruQL query, renders it through HTML templates, and writes the
//! browsable site to `target/site-quickstart/`.

use std::path::Path;
use strudel::Strudel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Strudel::new();

    // 1. Data management: wrap a BibTeX source into the data graph.
    s.add_bibtex_source(
        "bibliography",
        r#"
@article{toplas97,
  title      = {Specifying Representations of Machine Instructions},
  author     = {Norman Ramsey and Mary Fernandez},
  year       = 1997,
  journal    = {Transactions on Programming Languages and Systems},
  postscript = {papers/toplas97.ps.gz}
}
@inproceedings{icde98,
  title      = {Optimizing Regular Path Expressions},
  author     = {Mary Fernandez and Dan Suciu},
  year       = 1998,
  booktitle  = {Proc. of ICDE},
  postscript = {papers/icde98.ps.gz}
}
"#,
    );

    // 2. Structure management: declare the site's structure in StruQL.
    s.add_site_query(
        r#"
CREATE HomePage()
COLLECT Roots(HomePage())
{
  WHERE Publications(x), x -> l -> v
  CREATE Paper(x)
  LINK Paper(x) -> l -> v,
       HomePage() -> "Paper" -> Paper(x)
}
"#,
    )?;

    // 3. Visual presentation: one template per page type.
    s.templates_mut().set_collection_template(
        "HomePage",
        r#"<html><body><h1>Publications</h1>
<SFOR p IN @Paper ORDER=descend KEY=@year LIST=ul><SFMT @p LINK=@p.title></SFOR>
</body></html>"#,
    )?;
    s.templates_mut().set_collection_template(
        "Paper",
        r#"<html><body><h1><SFMT @title></h1>
<p>By <SFMT @author ALL DELIM=", "> (<SFMT @year>).</p>
<SIF @journal><p>In <SFMT @journal>.</p></SIF>
<SIF @booktitle><p>In <SFMT @booktitle>.</p></SIF>
<p><SFMT @postscript LINK="Download PostScript"></p>
</body></html>"#,
    )?;

    let dir = Path::new("target/site-quickstart");
    let site = s.publish(&["HomePage"], dir)?;

    println!("wrote {} pages to {}:", site.pages.len(), dir.display());
    for name in site.pages.keys() {
        println!("  {name}");
    }
    let schema = s.site_schema()?;
    println!("\nsite schema (DOT):\n{}", schema.to_dot());
    Ok(())
}
