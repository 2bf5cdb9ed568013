//! Per-condition query execution profiles.
//!
//! When an evaluation runs with profiling enabled, the evaluator records
//! one [`CondProfile`] per applied condition: the relation cardinalities
//! around the physical operator, which strategy the operator chose (hash
//! probe vs. scan vs. in-place semi-join, …) and how the regular-path memo
//! cache behaved. The CLI renders the list as an aligned table
//! ([`render_profile_table`]) and as JSON ([`render_profile_json`]).

use crate::json;

/// The execution profile of one applied condition.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct CondProfile {
    /// The block the condition belongs to (e.g. `b0.1`); empty for bare
    /// conjunction evaluation.
    pub block: String,
    /// The condition, in query syntax.
    pub condition: String,
    /// The physical strategy the operator chose (see docs/OBSERVABILITY.md
    /// for the catalog).
    pub strategy: &'static str,
    /// Rows in the bindings relation entering the operator.
    pub rows_in: u64,
    /// Rows leaving it.
    pub rows_out: u64,
    /// Wall-clock time applying the condition, microseconds.
    pub elapsed_us: u64,
    /// Path-cache (memo) hits while applying this condition.
    pub cache_hits: u64,
    /// Path-cache misses likewise.
    pub cache_misses: u64,
}

/// Renders profiles as an aligned human-readable table.
pub fn render_profile_table(profile: &[CondProfile]) -> String {
    let header = [
        "#",
        "block",
        "condition",
        "strategy",
        "rows in",
        "rows out",
        "us",
        "cache h/m",
    ];
    let mut rows: Vec<[String; 8]> = Vec::with_capacity(profile.len());
    for (i, p) in profile.iter().enumerate() {
        rows.push([
            i.to_string(),
            p.block.clone(),
            p.condition.clone(),
            p.strategy.to_string(),
            p.rows_in.to_string(),
            p.rows_out.to_string(),
            p.elapsed_us.to_string(),
            format!("{}/{}", p.cache_hits, p.cache_misses),
        ]);
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = render_row(&header_cells);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders profiles as a JSON array (one object per condition, in
/// application order).
pub fn render_profile_json(profile: &[CondProfile]) -> String {
    let mut out = String::from("[");
    for (i, p) in profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"block\":\"{}\",\"condition\":\"{}\",\"strategy\":\"{}\",",
                "\"rows_in\":{},\"rows_out\":{},\"elapsed_us\":{},",
                "\"cache_hits\":{},\"cache_misses\":{}}}"
            ),
            json::escape(&p.block),
            json::escape(&p.condition),
            json::escape(p.strategy),
            p.rows_in,
            p.rows_out,
            p.elapsed_us,
            p.cache_hits,
            p.cache_misses,
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CondProfile> {
        vec![
            CondProfile {
                block: "b0".into(),
                condition: "Articles(a)".into(),
                strategy: "collection-scan",
                rows_in: 1,
                rows_out: 800,
                elapsed_us: 42,
                ..Default::default()
            },
            CondProfile {
                block: "b0".into(),
                condition: "a -> l -> v".into(),
                strategy: "arc-forward",
                rows_in: 800,
                rows_out: 4000,
                elapsed_us: 310,
                cache_hits: 2,
                cache_misses: 1,
            },
        ]
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let t = render_profile_table(&sample());
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with('#'));
        assert!(lines[0].contains("strategy"));
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[2].contains("collection-scan"));
        assert!(lines[3].ends_with("2/1"));
        // Alignment: "rows in" column starts at the same offset everywhere.
        let col = lines[0].find("rows in").unwrap();
        assert_eq!(&lines[2][col - 2..col], "  ");
    }

    #[test]
    fn json_round_trips_the_fields() {
        let j = render_profile_json(&sample());
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert!(j.contains("\"strategy\":\"arc-forward\""));
        assert!(j.contains("\"rows_out\":4000"));
        assert!(j.ends_with("\"cache_hits\":2,\"cache_misses\":1}]"));
        assert_eq!(render_profile_json(&[]), "[]");
    }
}
