//! The relational wrapper.
//!
//! The AT&T sites' data sources were "small relational databases that
//! contain personnel and organizational data" with "simple AWK programs"
//! mapping them into data-graph objects (§5.1). Here the relational side is
//! a tiny in-memory engine: [`Table`]s parsed from CSV text, with typed
//! columns and foreign keys. [`load_into`] performs the wrapper mapping: one
//! object per row, one collection per table, attributes per column, and
//! foreign-key columns resolved into node references so the data graph is
//! genuinely a graph.

use strudel_graph::fxhash::FxHashMap;
use strudel_graph::{Graph, GraphError, Oid, Value};

/// An in-memory relational table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Table name (becomes the collection name).
    pub name: String,
    /// Column names, from the CSV header.
    pub columns: Vec<String>,
    /// Rows of raw string cells (empty string = SQL NULL).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Parses CSV text (first line is the header). Supports quoted cells
    /// with `""` escapes and embedded commas/newlines.
    pub fn from_csv(name: &str, csv: &str) -> Result<Table, GraphError> {
        let mut records = parse_csv(csv)?;
        if records.is_empty() {
            return Err(GraphError::DdlParse {
                line: 1,
                message: format!("CSV for table {name} has no header"),
            });
        }
        let columns = records.remove(0);
        for (i, row) in records.iter().enumerate() {
            if row.len() != columns.len() {
                return Err(GraphError::DdlParse {
                    line: i + 2,
                    message: format!("row has {} cells, header has {}", row.len(), columns.len()),
                });
            }
        }
        Ok(Table {
            name: name.to_string(),
            columns,
            rows: records,
        })
    }

    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

fn parse_csv(csv: &str) -> Result<Vec<Vec<String>>, GraphError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut chars = csv.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    cell.push(c);
                }
                _ => cell.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !cell.is_empty() {
                        return Err(GraphError::DdlParse {
                            line,
                            message: "quote inside unquoted cell".into(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut cell));
                    records.push(std::mem::take(&mut record));
                }
                _ => cell.push(c),
            }
        }
    }
    if in_quotes {
        return Err(GraphError::DdlParse {
            line,
            message: "unterminated quoted cell".into(),
        });
    }
    if any && (!cell.is_empty() || !record.is_empty()) {
        record.push(cell);
        records.push(record);
    }
    // Drop blank trailing lines.
    records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    Ok(records)
}

/// A foreign-key declaration: values of `table.column` name rows of
/// `target_table` whose `target_key` column matches; the wrapper replaces
/// the cell with a node reference.
#[derive(Clone, Debug, PartialEq)]
pub struct ForeignKey {
    /// Referencing table.
    pub table: String,
    /// Referencing column.
    pub column: String,
    /// Referenced table.
    pub target_table: String,
    /// Referenced key column.
    pub target_key: String,
}

/// Infers a typed value from a CSV cell: integers, floats, and booleans are
/// recognized; everything else stays a string.
fn typed_cell(cell: &str) -> Value {
    if let Ok(i) = cell.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = cell.parse::<f64>() {
        return Value::Float(f);
    }
    match cell {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        _ => Value::str(cell),
    }
}

/// Maps tables into an existing graph: one collection per table, one object
/// per row (named `<table><row>`), one attribute per non-empty cell
/// (empty cells are *missing attributes*, the natural semistructured
/// rendering of SQL NULL), and foreign keys resolved to node references.
pub fn load_into(g: &mut Graph, tables: &[Table], fks: &[ForeignKey]) -> Result<(), GraphError> {
    // First pass: create all row nodes so FKs can point anywhere.
    let mut row_nodes: FxHashMap<(String, usize), Oid> = FxHashMap::default();
    // Key index: (table, key column, cell value) → node.
    let mut key_index: FxHashMap<(String, String, String), Oid> = FxHashMap::default();
    for table in tables {
        let coll = g.ensure_collection(&table.name);
        for (i, row) in table.rows.iter().enumerate() {
            let node = g.new_node(Some(&format!("{}{}", table.name, i)));
            g.add_to_collection(coll, Value::Node(node));
            row_nodes.insert((table.name.clone(), i), node);
            for (col, cell) in table.columns.iter().zip(row) {
                if !cell.is_empty() {
                    key_index.insert((table.name.clone(), col.clone(), cell.clone()), node);
                }
            }
        }
    }
    // Second pass: attributes, with FK columns resolved.
    let fk_of = |table: &str, column: &str| {
        fks.iter()
            .find(|fk| fk.table == table && fk.column == column)
    };
    for table in tables {
        for (i, row) in table.rows.iter().enumerate() {
            let node = row_nodes[&(table.name.clone(), i)];
            for (col, cell) in table.columns.iter().zip(row) {
                if cell.is_empty() {
                    continue; // NULL → missing attribute
                }
                let value = match fk_of(&table.name, col) {
                    Some(fk) => {
                        match key_index.get(&(
                            fk.target_table.clone(),
                            fk.target_key.clone(),
                            cell.clone(),
                        )) {
                            Some(&target) => Value::Node(target),
                            None => {
                                return Err(GraphError::DdlParse {
                                    line: i + 2,
                                    message: format!(
                                        "dangling foreign key {}.{} = {cell:?} (no {}.{} match)",
                                        table.name, col, fk.target_table, fk.target_key
                                    ),
                                })
                            }
                        }
                    }
                    None => typed_cell(cell),
                };
                g.add_edge_str(node, col, value).expect("member");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_graph(tables: &[Table], fks: &[ForeignKey]) -> Result<Graph, GraphError> {
        let mut g = Graph::standalone();
        load_into(&mut g, tables, fks)?;
        Ok(g)
    }

    const PEOPLE: &str = "\
id,name,title,dept,phone
1,Mary Fernandez,Researcher,db,555-0101
2,Dan Suciu,Researcher,db,
3,Ed Director,Director,mgmt,555-0103
";

    const DEPTS: &str = "\
code,name,head
db,Database Research,3
mgmt,Management,3
";

    fn tables() -> Vec<Table> {
        vec![
            Table::from_csv("People", PEOPLE).unwrap(),
            Table::from_csv("Departments", DEPTS).unwrap(),
        ]
    }

    fn fks() -> Vec<ForeignKey> {
        vec![
            ForeignKey {
                table: "People".into(),
                column: "dept".into(),
                target_table: "Departments".into(),
                target_key: "code".into(),
            },
            ForeignKey {
                table: "Departments".into(),
                column: "head".into(),
                target_table: "People".into(),
                target_key: "id".into(),
            },
        ]
    }

    #[test]
    fn csv_parsing_basics() {
        let t = Table::from_csv("People", PEOPLE).unwrap();
        assert_eq!(t.columns, vec!["id", "name", "title", "dept", "phone"]);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][1], "Mary Fernandez");
        assert_eq!(t.column("title"), Some(2));
        assert_eq!(t.column("nope"), None);
    }

    #[test]
    fn quoted_cells_with_commas_and_quotes() {
        let t = Table::from_csv("T", "a,b\n\"x, y\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.rows[0], vec!["x, y", "say \"hi\""]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Table::from_csv("T", "a,b\n1\n").is_err());
        assert!(Table::from_csv("T", "").is_err());
    }

    #[test]
    fn rows_become_objects_in_collections() {
        let g = to_graph(&tables(), &fks()).unwrap();
        assert_eq!(g.collection_str("People").unwrap().len(), 3);
        assert_eq!(g.collection_str("Departments").unwrap().len(), 2);
        let interner = g.universe().interner();
        let r = g.reader();
        let mary = g.nodes()[0];
        assert_eq!(
            r.attr(mary, interner.get("name").unwrap()),
            Some(&Value::str("Mary Fernandez"))
        );
        assert_eq!(
            r.attr(mary, interner.get("id").unwrap()),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn nulls_become_missing_attributes() {
        let g = to_graph(&tables(), &fks()).unwrap();
        let interner = g.universe().interner();
        let r = g.reader();
        let dan = g.nodes()[1];
        assert!(r.attr(dan, interner.get("phone").unwrap()).is_none());
        assert!(r
            .attr(g.nodes()[0], interner.get("phone").unwrap())
            .is_some());
    }

    #[test]
    fn foreign_keys_become_node_references() {
        let g = to_graph(&tables(), &fks()).unwrap();
        let interner = g.universe().interner();
        let r = g.reader();
        let mary = g.nodes()[0];
        let dept = r
            .attr(mary, interner.get("dept").unwrap())
            .unwrap()
            .as_node()
            .expect("node ref");
        assert_eq!(
            r.attr(dept, interner.get("name").unwrap()),
            Some(&Value::str("Database Research"))
        );
        // Cyclic FK: Departments.head → People.
        let head = r
            .attr(dept, interner.get("head").unwrap())
            .unwrap()
            .as_node()
            .expect("node ref");
        assert_eq!(
            r.attr(head, interner.get("title").unwrap()),
            Some(&Value::str("Director"))
        );
    }

    #[test]
    fn dangling_foreign_keys_error() {
        let bad = vec![Table::from_csv("People", "id,dept\n1,nowhere\n").unwrap()];
        let fk = vec![ForeignKey {
            table: "People".into(),
            column: "dept".into(),
            target_table: "Departments".into(),
            target_key: "code".into(),
        }];
        assert!(to_graph(&bad, &fk).is_err());
    }

    #[test]
    fn typed_cells() {
        assert_eq!(typed_cell("42"), Value::Int(42));
        assert_eq!(typed_cell("4.5"), Value::Float(4.5));
        assert_eq!(typed_cell("true"), Value::Bool(true));
        assert_eq!(typed_cell("hello"), Value::str("hello"));
    }
}
