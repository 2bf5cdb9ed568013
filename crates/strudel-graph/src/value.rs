//! Atomic values and object references.
//!
//! STRUDEL supports several atomic types that commonly appear in Web pages
//! (§2.1): integers, strings, URLs, and PostScript / text / image / HTML
//! files. "The atomic types are handled in a uniform fashion, and values are
//! coerced dynamically when they are compared at run time" — see
//! [`Value::coerced_eq`] and [`Value::coerced_cmp`].

use crate::graph::NodeId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The kind of an external file referenced from a graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FileKind {
    /// A plain-text file, embedded inline when rendered.
    Text,
    /// An HTML fragment file, embedded verbatim when rendered.
    Html,
    /// An image file, rendered as an `<img>` element.
    Image,
    /// A PostScript file, rendered as a download link.
    PostScript,
}

impl FileKind {
    /// The DDL keyword for this kind (`text`, `html`, `image`, `ps`).
    pub fn keyword(self) -> &'static str {
        match self {
            FileKind::Text => "text",
            FileKind::Html => "html",
            FileKind::Image => "image",
            FileKind::PostScript => "ps",
        }
    }

    /// Parses a DDL keyword into a kind.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "text" => FileKind::Text,
            "html" => FileKind::Html,
            "image" | "img" => FileKind::Image,
            "ps" | "postscript" => FileKind::PostScript,
            _ => return None,
        })
    }

    /// Guesses a kind from a file-name extension, the way the BibTeX and
    /// HTML wrappers classify attachment paths.
    pub fn from_path(path: &str) -> Option<Self> {
        let lower = path.to_ascii_lowercase();
        let ext = lower.rsplit('.').next()?;
        Some(match ext {
            "txt" => FileKind::Text,
            "htm" | "html" => FileKind::Html,
            "gif" | "jpg" | "jpeg" | "png" => FileKind::Image,
            "ps" | "eps" => FileKind::PostScript,
            "gz" => {
                // `paper.ps.gz` is still PostScript for STRUDEL's purposes.
                let stem = lower.strip_suffix(".gz").unwrap_or(&lower);
                return FileKind::from_path(stem);
            }
            _ => return None,
        })
    }
}

/// An object in a STRUDEL graph: a node reference or an atomic value.
///
/// Equality and hashing are *strict* (used for indexes and Skolem-function
/// argument identity); query-time comparisons use the dynamic coercion rules
/// in [`Value::coerced_eq`].
#[derive(Clone, Debug)]
pub enum Value {
    /// An internal node, identified by oid.
    Node(NodeId),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(Arc<str>),
    /// A URL.
    Url(Arc<str>),
    /// A reference to an external file of the given kind.
    File(FileKind, Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for URL values.
    pub fn url(s: impl AsRef<str>) -> Self {
        Value::Url(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for file values.
    pub fn file(kind: FileKind, path: impl AsRef<str>) -> Self {
        Value::File(kind, Arc::from(path.as_ref()))
    }

    /// Returns the node id if this value is a node.
    #[inline]
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Value::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this value is an internal node.
    #[inline]
    pub fn is_node(&self) -> bool {
        matches!(self, Value::Node(_))
    }

    /// Whether this value is an atomic (non-node) value.
    #[inline]
    pub fn is_atomic(&self) -> bool {
        !self.is_node()
    }

    /// Dynamic-coercion equality (§2.1): atomic values of different types are
    /// coerced before comparison. `Int` and `Float` compare numerically;
    /// strings compare with numbers when they parse as numbers; URLs and
    /// files compare with strings by their text. Nodes compare only by oid.
    pub fn coerced_eq(&self, other: &Value) -> bool {
        self.coerced_cmp(other) == Some(Ordering::Equal)
    }

    /// Dynamic-coercion ordering. Returns `None` when the two values are
    /// incomparable (e.g. a node and a string, or a non-numeric string and
    /// an integer).
    pub fn coerced_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Node(a), Node(b)) => Some(a.cmp(b)),
            (Node(_), _) | (_, Node(_)) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Bool(_), _) | (_, Bool(_)) => None,
            (Int(_) | Float(_), _) => other
                .text()
                .and_then(|t| coerce_text_numeric(&t, self).map(Ordering::reverse)),
            (_, Int(_) | Float(_)) => self.text().and_then(|t| coerce_text_numeric(&t, other)),
            // Remaining cases are all text-like (Str / Url / File).
            _ => Some(self.text()?.cmp(&other.text()?)),
        }
    }

    /// The textual content of a text-like value (string, URL, file path).
    /// Returns `None` for nodes, numbers, and booleans.
    pub fn text(&self) -> Option<Arc<str>> {
        match self {
            Value::Str(s) | Value::Url(s) | Value::File(_, s) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// A *total* order over all values, with no coercion: values of
    /// different types order by a fixed type rank, values of the same type
    /// by their content (floats by `total_cmp`, so NaNs are ordered too).
    /// `Equal` holds exactly for [`PartialEq`]-identical values. This is not
    /// a semantic comparison — [`Value::coerced_cmp`] is — it exists so
    /// relations of values can be put in one canonical order regardless of
    /// how they were produced (the evaluator sorts every final bindings
    /// relation with it, making query output independent of the physical
    /// plan that computed it).
    pub fn canonical_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Node(_) => 0,
                Int(_) => 1,
                Float(_) => 2,
                Bool(_) => 3,
                Str(_) => 4,
                Url(_) => 5,
                File(..) => 6,
            }
        }
        match (self, other) {
            (Node(a), Node(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) | (Url(a), Url(b)) => a.cmp(b),
            (File(ka, a), File(kb, b)) => ka.cmp(kb).then_with(|| a.cmp(b)),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// Compares the text `t` (lhs) against the numeric value `num` (rhs),
/// coercing the text to a number if possible.
fn coerce_text_numeric(t: &str, num: &Value) -> Option<Ordering> {
    let lhs: f64 = t.trim().parse().ok()?;
    match num {
        Value::Int(b) => lhs.partial_cmp(&(*b as f64)),
        Value::Float(b) => lhs.partial_cmp(b),
        _ => None,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Node(a), Node(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Url(a), Url(b)) => a == b,
            (File(ka, a), File(kb, b)) => ka == kb && a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Node(n) => n.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) | Value::Url(s) => s.hash(state),
            Value::File(k, s) => {
                k.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Node(n) => write!(f, "&{}", n.0),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Url(s) => write!(f, "url({s})"),
            Value::File(k, s) => write!(f, "{}({s})", k.keyword()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<NodeId> for Value {
    fn from(v: NodeId) -> Self {
        Value::Node(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_eq_distinguishes_types() {
        assert_ne!(Value::Int(1997), Value::str("1997"));
        assert_ne!(Value::Str(Arc::from("x")), Value::Url(Arc::from("x")));
    }

    #[test]
    fn coerced_eq_crosses_types() {
        assert!(Value::Int(1997).coerced_eq(&Value::str("1997")));
        assert!(Value::str("1997").coerced_eq(&Value::Int(1997)));
        assert!(Value::Int(3).coerced_eq(&Value::Float(3.0)));
        assert!(Value::url("a/b").coerced_eq(&Value::str("a/b")));
        assert!(!Value::Int(1997).coerced_eq(&Value::str("abc")));
    }

    #[test]
    fn coerced_cmp_orders_numbers_and_text() {
        assert_eq!(
            Value::Int(1).coerced_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("1998").coerced_cmp(&Value::Int(1997)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(1997).coerced_cmp(&Value::str("1998")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").coerced_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Node(NodeId(1)).coerced_cmp(&Value::str("a")), None);
        assert_eq!(Value::Bool(true).coerced_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn float_nan_is_self_equal_strictly_but_not_coerced() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone()); // bitwise, for index keys
        assert!(!nan.coerced_eq(&nan)); // IEEE semantics at query time
    }

    #[test]
    fn file_kind_from_path() {
        assert_eq!(
            FileKind::from_path("papers/icde98.ps.gz"),
            Some(FileKind::PostScript)
        );
        assert_eq!(
            FileKind::from_path("abstracts/toplas97.txt"),
            Some(FileKind::Text)
        );
        assert_eq!(FileKind::from_path("logo.PNG"), Some(FileKind::Image));
        assert_eq!(FileKind::from_path("index.html"), Some(FileKind::Html));
        assert_eq!(FileKind::from_path("mystery.bin"), None);
        assert_eq!(FileKind::from_path("noext"), None);
    }

    #[test]
    fn file_kind_keyword_roundtrip() {
        for k in [
            FileKind::Text,
            FileKind::Html,
            FileKind::Image,
            FileKind::PostScript,
        ] {
            assert_eq!(FileKind::from_keyword(k.keyword()), Some(k));
        }
        assert_eq!(
            FileKind::from_keyword("postscript"),
            Some(FileKind::PostScript)
        );
        assert_eq!(FileKind::from_keyword("video"), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(
            Value::file(FileKind::Text, "a.txt").to_string(),
            "text(a.txt)"
        );
        assert_eq!(Value::Node(NodeId(3)).to_string(), "&3");
    }
}
