//! The Fig. 8 sweep: STRUDEL across (quantity of data × complexity of
//! structure).
//!
//! The paper measures structural complexity as "the number of link clauses
//! in the site-definition query" and, for current practice, "the number of
//! CGI-BIN scripts required to generate a site". The sweep holds the data
//! generator fixed (the news corpus) and scales both axes:
//!
//! * **data size** — number of articles;
//! * **complexity level** — progressively richer site definitions, from a
//!   flat article list (level 1) to the full cross-linked news site with
//!   sections, top stories, related links, and by-author and by-date
//!   indexes (level 4).
//!
//! The two baselines ([`super::baselines`]) exist at one level each: the
//! procedural program implements level 3 (the paper's point: every level
//! is a *new program*), and the RDBMS-style dump implements level 1.

use std::ops::RangeInclusive;
use strudel::synth::news;
use strudel::template::TemplateSet;
use strudel::{Result, Strudel};

/// The complexity levels of the sweep.
pub const LEVELS: RangeInclusive<usize> = 1..=4;

/// The StruQL site definition at a level.
pub fn query(level: usize) -> String {
    let mut q = String::from(
        r#"
CREATE FrontPage()
COLLECT Roots(FrontPage())
{
  WHERE Articles(a), a -> l -> v
  CREATE ArticlePage(a)
  LINK ArticlePage(a) -> l -> v,
       FrontPage() -> "Article" -> ArticlePage(a)
"#,
    );
    if level >= 2 {
        q.push_str(
            r#"  {
    WHERE l = "section"
    CREATE SectionPage(v)
    LINK SectionPage(v) -> "Name" -> v,
         SectionPage(v) -> "Story" -> ArticlePage(a),
         FrontPage() -> "Section" -> SectionPage(v)
  }
"#,
        );
    }
    if level >= 3 {
        q.push_str(
            r#"  {
    WHERE l = "related"
    LINK ArticlePage(a) -> "Related" -> ArticlePage(v)
  }
  {
    WHERE l = "editorial_rank", v <= 10
    LINK FrontPage() -> "TopStory" -> ArticlePage(a)
  }
"#,
        );
    }
    if level >= 4 {
        q.push_str(
            r#"  {
    WHERE l = "byline"
    CREATE AuthorPage(v)
    LINK AuthorPage(v) -> "Name" -> v,
         AuthorPage(v) -> "Wrote" -> ArticlePage(a),
         FrontPage() -> "Author" -> AuthorPage(v)
  }
  {
    WHERE l = "date"
    CREATE DatePage(v)
    LINK DatePage(v) -> "Date" -> v,
         DatePage(v) -> "Published" -> ArticlePage(a),
         FrontPage() -> "ByDate" -> DatePage(v)
  }
"#,
        );
    }
    q.push_str("}\n");
    q
}

/// Number of link clauses at a level — the paper's complexity measure.
pub fn link_clauses(level: usize) -> usize {
    use strudel::struql::{program::Head, PredicateRegistry, SiteProgram};
    let q = strudel::struql::parse_query(&query(level)).expect("level query parses");
    let program = SiteProgram::compile(&q, &PredicateRegistry::with_builtins()).unwrap();
    let links = program.clauses().iter();
    links
        .filter(|c| matches!(c.head, Head::Link { .. }))
        .count()
}

/// The templates of a level as `(collection, source)` pairs: each
/// structural feature adds presentation.
pub fn templates(level: usize) -> Vec<(&'static str, String)> {
    let mut front = String::from("<html><body><h1>News</h1>\n");
    if level >= 3 {
        front.push_str("<SIF @TopStory><h2>Top</h2><SFOR s IN @TopStory LIST=ul><SFMT @s LINK=@s.headline></SFOR></SIF>\n");
    }
    if level >= 2 {
        front.push_str(
            "<h2>Sections</h2><SFOR s IN @Section LIST=ul><SFMT @s LINK=@s.Name></SFOR>\n",
        );
    } else {
        front.push_str(
            "<h2>Articles</h2><SFOR a IN @Article LIST=ul><SFMT @a LINK=@a.headline></SFOR>\n",
        );
    }
    if level >= 4 {
        front
            .push_str("<h2>Authors</h2><SFOR a IN @Author LIST=ul><SFMT @a LINK=@a.Name></SFOR>\n");
        front.push_str("<h2>By date</h2><SFOR d IN @ByDate ORDER=ascend KEY=@Date LIST=ul><SFMT @d LINK=@d.Date></SFOR>\n");
    }
    front.push_str("</body></html>");

    let mut article = String::from(
        "<html><body><h1><SFMT @headline></h1><p>By <SFMT @byline> - <SFMT @date></p><p><SFMT @summary></p>\n",
    );
    if level >= 3 {
        article.push_str("<SIF @Related><h2>Related</h2><SFOR r IN @Related LIST=ul><SFMT @r LINK=@r.headline></SFOR></SIF>\n");
    }
    article.push_str("</body></html>");

    let mut t = vec![("FrontPage", front), ("ArticlePage", article)];
    if level >= 2 {
        t.push((
            "SectionPage",
            "<html><body><h1><SFMT @Name></h1><SFOR s IN @Story LIST=ul><SFMT @s LINK=@s.headline></SFOR></body></html>".into(),
        ));
    }
    if level >= 4 {
        t.push((
            "AuthorPage",
            "<html><body><h1><SFMT @Name></h1><SFOR a IN @Wrote LIST=ul><SFMT @a LINK=@a.headline></SFOR></body></html>".into(),
        ));
        t.push((
            "DatePage",
            "<html><body><h1><SFMT @Date></h1><SFOR a IN @Published LIST=ul><SFMT @a LINK=@a.headline></SFOR></body></html>".into(),
        ));
    }
    t
}

/// Non-blank lines that are not `//` comments: how a specification or a
/// program is measured here.
pub fn lines(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// The declarative specification the site builder maintains at a level:
/// query lines plus template lines.
pub fn spec_lines(level: usize) -> usize {
    let template_lines: usize = templates(level).iter().map(|(_, src)| lines(src)).sum();
    lines(&query(level)) + template_lines
}

/// Wires a STRUDEL system for one sweep point.
pub fn system(n_articles: usize, seed: u64, level: usize) -> Result<Strudel> {
    let mut s = Strudel::new();
    s.add_ddl_source("articles", &news::generate_ddl(n_articles, seed));
    s.add_site_query(&query(level))?;
    let mut t = TemplateSet::new();
    for (collection, src) in templates(level) {
        t.set_collection_template(collection, &src)?;
    }
    *s.templates_mut() = t;
    Ok(s)
}
