//! The personal home-page sites (§3.1, §5.1).
//!
//! "Our own home pages are examples of small sites generated by STRUDEL.
//! The main data sources for these sites are our bibliographies. A simple
//! wrapper maps BibTeX files into data graphs; other information is stored
//! in files in STRUDEL's data definition language. … The mff example …
//! contains data from two sources: a BibTeX file and a STRUDEL data file,
//! which contains personal information, such as address, phone, projects,
//! professional activities, patents, and is defined by a 48-line query and
//! thirteen HTML templates (202 lines)."

use crate::synth::{person_name, pick, rng, TOPICS};
use crate::{Result, Strudel};
use rand::Rng;
use std::fmt::Write as _;
use strudel_template::TemplateSet;

/// Generates a BibTeX bibliography with `n` publications for `owner`.
pub fn generate_bibtex(owner: &str, n: usize, seed: u64) -> String {
    let mut r = rng(seed);
    let mut out = String::new();
    for i in 0..n {
        let kind = *pick(&mut r, &["article", "inproceedings", "techreport"]);
        let year = 1988 + r.gen_range(0..11i64);
        let mut authors = vec![owner.to_string()];
        for _ in 0..r.gen_range(0..3usize) {
            authors.push(person_name(&mut r));
        }
        let _ = writeln!(out, "@{kind}{{p{i},");
        let _ = writeln!(
            out,
            "  title = {{{} Revisited, {i}}},",
            pick(&mut r, TOPICS)
        );
        let _ = writeln!(out, "  author = {{{}}},", authors.join(" and "));
        let _ = writeln!(out, "  year = {year},");
        match kind {
            "article" => {
                let _ = writeln!(out, "  journal = {{Journal of {}}},", pick(&mut r, TOPICS));
                let _ = writeln!(
                    out,
                    "  volume = {{{} ({})}},",
                    r.gen_range(1..30),
                    r.gen_range(1..4)
                );
            }
            "inproceedings" => {
                let _ = writeln!(
                    out,
                    "  booktitle = {{Proc. of {}}},",
                    pick(&mut r, &["SIGMOD", "VLDB", "ICDE", "PODS"])
                );
            }
            _ => {
                let _ = writeln!(out, "  institution = {{AT\\&T Labs}},");
            }
        }
        let _ = writeln!(out, "  category = {{{}}},", pick(&mut r, TOPICS));
        if r.gen_bool(0.8) {
            let _ = writeln!(out, "  abstract = {{abstracts/p{i}.txt}},");
        }
        if r.gen_bool(0.1) {
            let _ = writeln!(out, "  proprietary = {{yes}},");
        }
        let _ = writeln!(out, "  postscript = {{papers/p{i}.ps.gz}}");
        let _ = writeln!(out, "}}");
    }
    out
}

/// The personal-information structured file (STRUDEL DDL), the second data
/// source of the mff example: address, phone, projects, activities, patents.
pub fn personal_ddl(owner: &str) -> String {
    format!(
        r#"
object me in Owner {{
  name "{owner}"
  email "{user}@research.example.com"
  phone "555-0142"
  address {{ street "180 Park Avenue" city "Florham Park" state "NJ" zipcode "07932" }}
  project "STRUDEL: Web-site management"
  project "Query optimization for semistructured data"
  activity "PC member, SIGMOD"
  activity "Editor, TODS"
  patent "US-5999999: Declarative web site specification"
  patent "US-6000001: Semistructured data indexing"
}}
"#,
        user = owner
            .split_whitespace()
            .next()
            .unwrap_or("me")
            .to_lowercase()
    )
}

/// The home-page site query: Fig. 3 (root, abstracts, year and category
/// pages) extended with the personal-information pages from the second
/// source — the "48-line query" of the mff example.
pub const SITE_QUERY: &str = r#"
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
COLLECT Roots(RootPage())
{
  WHERE Owner(o), o -> l -> v
  LINK RootPage() -> l -> v
}
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
"#;

/// Non-blank line count of [`SITE_QUERY`].
pub fn site_query_lines() -> usize {
    SITE_QUERY
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// The internal template set (Fig. 7's five page templates plus the
/// presentation component and personal sections).
pub fn templates_internal() -> Result<TemplateSet> {
    let mut t = TemplateSet::new();
    t.set_collection_template(
        "RootPage",
        r#"<html><head><title><SFMT @name></title></head><body>
<h1><SFMT @name></h1>
<p><SFMT @email> / <SFMT @phone></p>
<SIF @address><p><SFMT @address EMBED></p></SIF>
<h2>Projects</h2><SFMT @project ALL LIST=ul>
<h2>Professional activities</h2><SFMT @activity ALL LIST=ul>
<SIF @patent><h2>Patents</h2><SFMT @patent ALL LIST=ul></SIF>
<h2>Publications by Year</h2>
<SFOR y IN @YearPage ORDER=descend KEY=@Year LIST=ul><SFMT @y LINK=@y.Year></SFOR>
<h2>Publications by Topic</h2>
<SFOR c IN @CategoryPage ORDER=ascend KEY=@Name LIST=ul><SFMT @c LINK=@c.Name></SFOR>
<p><SFMT @AbstractsPage LINK="All paper abstracts"></p>
</body></html>"#,
    )?;
    t.set_collection_template(
        "AbstractsPage",
        r#"<html><body><h1>Paper Abstracts</h1>
<SFOR a IN @Abstract ORDER=descend KEY=@year><hr><SFMT @a EMBED></SFOR>
</body></html>"#,
    )?;
    t.set_collection_template(
        "YearPage",
        r#"<html><body><h1>Publications from <SFMT @Year></h1>
<SFOR p IN @Paper ORDER=ascend KEY=@title LIST=ul><SFMT @p EMBED></SFOR>
</body></html>"#,
    )?;
    t.set_collection_template(
        "CategoryPage",
        r#"<html><body><h1>Publications on <SFMT @Name></h1>
<SFOR p IN @Paper ORDER=ascend KEY=@title LIST=ul><SFMT @p EMBED></SFOR>
</body></html>"#,
    )?;
    t.set_collection_template(
        "PaperPresentation",
        r#"<SFMT @postscript LINK=@title>. By <SFMT @author ALL DELIM=", ">.
<SIF @booktitle>In <SFMT @booktitle><SELSE><SIF @journal><SFMT @journal> <SFMT @volume></SIF></SIF>, <SFMT @year>.
<SIF @Abstract><SFMT @Abstract LINK="Abstract"></SIF>"#,
    )?;
    t.set_collection_template(
        "AbstractPage",
        r#"<html><body><h2><SFMT @title></h2>
<p>By <SFMT @author ALL DELIM=", ">, <SFMT @year>.</p>
<SIF @abstract><blockquote><SFMT @abstract></blockquote></SIF>
<p><SFMT @postscript LINK="PostScript"></p>
</body></html>"#,
    )?;
    // The anonymous address structure embeds inline.
    t.set_default(r#"<SFMT @street>, <SFMT @city>, <SFMT @state> <SFMT @zipcode>"#)?;
    Ok(t)
}

/// The external template set: "the HTML templates for the external version
/// exclude patents, and any publications and projects that are proprietary."
pub fn templates_external() -> Result<TemplateSet> {
    let mut t = templates_internal()?;
    t.set_collection_template(
        "RootPage",
        r#"<html><head><title><SFMT @name></title></head><body>
<h1><SFMT @name></h1>
<p><SFMT @email></p>
<h2>Projects</h2><SFMT @project ALL LIST=ul>
<h2>Publications by Year</h2>
<SFOR y IN @YearPage ORDER=descend KEY=@Year LIST=ul><SFMT @y LINK=@y.Year></SFOR>
<p><SFMT @AbstractsPage LINK="All paper abstracts"></p>
</body></html>"#,
    )?;
    t.set_collection_template(
        "PaperPresentation",
        r#"<SIF NOT @proprietary><SFMT @postscript LINK=@title>. By <SFMT @author ALL DELIM=", ">, <SFMT @year>.</SIF>"#,
    )?;
    t.set_collection_template(
        "AbstractPage",
        r#"<html><body><SIF @proprietary><p>This paper is not publicly available.</p>
<SELSE><h2><SFMT @title></h2>
<p>By <SFMT @author ALL DELIM=", ">, <SFMT @year>.</p>
<p><SFMT @postscript LINK="PostScript"></p></SIF>
</body></html>"#,
    )?;
    Ok(t)
}

/// Wires a full personal home-page system from the two sources.
pub fn system(owner: &str, n_pubs: usize, seed: u64) -> Result<Strudel> {
    let mut s = Strudel::new();
    s.add_bibtex_source("bibliography", &generate_bibtex(owner, n_pubs, seed));
    s.add_ddl_source("personal", &personal_ddl(owner));
    s.add_site_query(SITE_QUERY)?;
    *s.templates_mut() = templates_internal()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bibtex_is_parseable_and_irregular() {
        let bib = generate_bibtex("Mary Fernandez", 40, 5);
        let mut g = strudel_graph::Graph::standalone();
        strudel_wrappers::bibtex::load_into(&mut g, &bib).unwrap();
        assert_eq!(g.collection_str("Publications").unwrap().len(), 40);
        // Mixed journal/booktitle per pub-type.
        assert!(bib.contains("journal = "));
        assert!(bib.contains("booktitle = "));
    }

    #[test]
    fn homepage_site_builds() {
        let mut s = system("Mary Fernandez", 25, 6).unwrap();
        let build = s.build_site().unwrap();
        assert_eq!(build.pages_of("PaperPresentation").len(), 25);
        assert_eq!(build.pages_of("RootPage").len(), 1);
        assert!(!build.pages_of("YearPage").is_empty());
        let html = s.generate_site(&["RootPage"]).unwrap();
        let root = html
            .pages
            .iter()
            .find(|(k, _)| k.starts_with("rootpage"))
            .unwrap()
            .1;
        assert!(root.contains("Mary Fernandez"));
        assert!(root.contains("Patents"), "internal root shows patents");
        assert!(root.contains("Florham Park"), "address structure embedded");
    }

    #[test]
    fn external_version_hides_patents_and_proprietary() {
        let mut s = system("Dan Suciu", 30, 7).unwrap();
        *s.templates_mut() = templates_external().unwrap();
        let html = s.generate_site(&["RootPage"]).unwrap();
        let root = html
            .pages
            .iter()
            .find(|(k, _)| k.starts_with("rootpage"))
            .unwrap()
            .1;
        assert!(!root.contains("Patents"));
        assert!(!root.contains("555-0142"), "phone hidden externally");
        for (k, v) in &html.pages {
            if k.starts_with("abstractpage") && v.contains("not publicly available") {
                assert!(
                    !v.contains("PostScript"),
                    "{k} leaks a proprietary download link"
                );
            }
        }
    }

    #[test]
    fn query_line_count_is_paper_scale() {
        let lines = site_query_lines();
        assert!(
            (25..70).contains(&lines),
            "48-line-scale query, got {lines}"
        );
    }
}
