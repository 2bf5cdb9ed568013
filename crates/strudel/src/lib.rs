//! # strudel
//!
//! A Rust reproduction of **STRUDEL — A Web-Site Management System**
//! (Fernandez, Florescu, Kang, Levy, Suciu; demonstrated at SIGMOD 1997).
//!
//! STRUDEL applies database concepts to building web sites by *separating*
//! three tasks: the management of the site's **data**, the declarative
//! definition of the site's **structure**, and the **visual presentation**
//! of its pages. The pipeline (Fig. 1 of the paper):
//!
//! ```text
//! external sources → wrappers → mediator → data graph
//!       data graph → StruQL site-definition query → site graph
//!       site graph → HTML templates → browsable web site
//! ```
//!
//! This crate is the facade over the subsystem crates:
//!
//! | crate | role |
//! |---|---|
//! | [`strudel_graph`] | semistructured labeled-graph data model + indexed repository |
//! | [`strudel_wrappers`] | BibTeX / CSV / HTML / DDL wrappers + GAV warehousing mediator |
//! | [`strudel_struql`] | the StruQL query & transformation language (parser, optimizer, evaluator) |
//! | [`strudel_site`] | site schemas, integrity-constraint verification, click-time evaluation |
//! | [`strudel_template`] | the HTML-template language (SFMT / SIF / SFOR) and the HTML generator |
//!
//! The [`Strudel`] type wires the whole pipeline; [`synth`] provides the
//! paper's workloads (the AT&T organization site, the CNN-style news site,
//! and the BibTeX personal home pages) as reproducible generators.
//!
//! ```
//! use strudel::Strudel;
//!
//! let mut s = Strudel::new();
//! s.add_ddl_source("pubs", r#"
//!     object p1 in Publications { title "UnQL" year 1996 }
//!     object p2 in Publications { title "Lorel" year 1996 }
//! "#);
//! s.add_site_query(r#"
//!     CREATE RootPage()
//!     {
//!       WHERE Publications(x), x -> "title" -> t
//!       CREATE Page(x)
//!       LINK Page(x) -> "Title" -> t, RootPage() -> "Paper" -> Page(x)
//!     }
//! "#).unwrap();
//! // Skolem-function names double as collections in the site graph, so a
//! // template per page *type* is one registration.
//! s.templates_mut().set_collection_template("RootPage",
//!     r#"<h1>Papers</h1><SFMT @Paper ALL DELIM=", ">"#).unwrap();
//! s.templates_mut().set_collection_template("Page",
//!     r#"<SFMT @Title>"#).unwrap();
//! let site = s.generate_site(&["RootPage"]).unwrap();
//! assert_eq!(site.pages.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod serve;
pub mod synth;
mod system;

pub use error::{Result, StrudelError};
pub use system::{SiteBuild, Strudel};

// Re-export the subsystem crates under short names.
pub use strudel_graph as graph;
pub use strudel_obs as obs;
pub use strudel_site as site;
pub use strudel_struql as struql;
pub use strudel_template as template;
pub use strudel_wrappers as wrappers;
