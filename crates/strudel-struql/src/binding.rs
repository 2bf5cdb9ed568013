//! The bindings relation produced by the query stage.
//!
//! "The meaning of the where-clause is the set of assignments … that satisfy
//! all conditions in the where clause"; its result is "a relation with one
//! attribute for each variable" (§3). Arc variables bind to labels,
//! represented as [`Value::Str`] so that comparisons like `l = "year"` are
//! ordinary value comparisons.
//!
//! Storage is a single contiguous slab of values with a fixed stride (the
//! schema width): row *i* is `data[i*width .. (i+1)*width]`. The evaluator's
//! physical operators append directly into the slab instead of allocating a
//! `Vec` per emitted row, and deduplication hashes row *slices* against a
//! hash → row-index table rather than cloning candidate rows into a seen-set.

use std::hash::{Hash, Hasher};
use strudel_graph::fxhash::{FxHashMap, FxHasher};
use strudel_graph::Value;

/// A relation: a variable schema plus rows of values, stored in one slab.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    vars: Vec<String>,
    index: FxHashMap<String, usize>,
    /// Row count. Tracked explicitly because the zero-width relation (the
    /// `unit` of condition evaluation) has rows but no values.
    len: usize,
    /// The value slab: `len * vars.len()` values, row-major.
    data: Vec<Value>,
}

impl Bindings {
    /// An empty relation with no variables and no rows.
    pub fn empty() -> Bindings {
        Bindings::default()
    }

    /// The relation with no variables and exactly one (empty) row — the
    /// identity for condition evaluation. A block with an empty `WHERE`
    /// clause binds this once, which is why `CREATE RootPage()` with no
    /// conditions creates exactly one node.
    pub fn unit() -> Bindings {
        Bindings {
            len: 1,
            ..Bindings::default()
        }
    }

    /// Creates a relation with the given schema and no rows.
    pub fn with_vars(vars: Vec<String>) -> Bindings {
        let index = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();
        Bindings {
            vars,
            index,
            len: 0,
            data: Vec::new(),
        }
    }

    /// The schema.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The schema width (values per row).
    #[inline]
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Column index of `var`, if bound.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.index.get(var).copied()
    }

    /// Whether `var` is in the schema.
    pub fn is_bound(&self, var: &str) -> bool {
        self.index.contains_key(var)
    }

    /// Appends a new variable column, returning its index. Only valid while
    /// the relation has no rows (operators build fresh output relations);
    /// use [`Bindings::add_var_with`] to extend existing rows.
    pub fn add_var(&mut self, var: &str) -> usize {
        debug_assert!(
            !self.index.contains_key(var),
            "variable {var} already bound"
        );
        debug_assert!(
            self.len == 0,
            "add_var on a non-empty relation (use add_var_with)"
        );
        let i = self.vars.len();
        self.vars.push(var.to_string());
        self.index.insert(var.to_string(), i);
        i
    }

    /// Appends a new variable column bound to `value` in every existing row.
    pub fn add_var_with(&mut self, var: &str, value: Value) -> usize {
        debug_assert!(
            !self.index.contains_key(var),
            "variable {var} already bound"
        );
        let old_width = self.vars.len();
        let i = old_width;
        self.vars.push(var.to_string());
        self.index.insert(var.to_string(), i);
        if self.len > 0 {
            let mut data = Vec::with_capacity(self.len * (old_width + 1));
            for row in self.data.chunks(old_width.max(1)) {
                if old_width > 0 {
                    data.extend(row.iter().cloned());
                }
                data.push(value.clone());
            }
            if old_width == 0 {
                // chunks() above yielded nothing for an empty slab.
                data.clear();
                for _ in 0..self.len {
                    data.push(value.clone());
                }
            }
            self.data = data;
        }
        i
    }

    /// The value of `var` in `row`.
    pub fn get<'a>(&self, row: &'a [Value], var: &str) -> Option<&'a Value> {
        self.col(var).and_then(|i| row.get(i))
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as a slice of the slab.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        debug_assert!(i < self.len);
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterates the rows as slab slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        let w = self.vars.len();
        (0..self.len).map(move |i| &self.data[i * w..(i + 1) * w])
    }

    /// Reserves slab capacity for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data
            .reserve(additional.saturating_mul(self.vars.len()));
    }

    /// Appends a row, cloning from a slice.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.vars.len());
        self.data.extend(row.iter().cloned());
        self.len += 1;
    }

    /// Appends a row made of `base` (cloned) followed by owned `extra`
    /// values — the widening-operator fast path: no intermediate `Vec`.
    #[inline]
    pub fn push_row_extend(&mut self, base: &[Value], extra: impl IntoIterator<Item = Value>) {
        self.data.extend(base.iter().cloned());
        self.data.extend(extra);
        debug_assert_eq!(self.data.len() % self.vars.len().max(1), 0);
        self.len += 1;
    }

    /// Keeps only the rows for which `keep` returns true, compacting the
    /// slab in place (no per-row allocation).
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let w = self.vars.len();
        if w == 0 {
            // Zero-width relation: rows are indistinguishable; `keep` sees
            // the empty slice once per row.
            let mut kept = 0;
            for _ in 0..self.len {
                if keep(&[]) {
                    kept += 1;
                }
            }
            self.len = kept;
            return;
        }
        let mut write = 0usize;
        for read in 0..self.len {
            let keep_it = keep(&self.data[read * w..(read + 1) * w]);
            if keep_it {
                if write != read {
                    for k in 0..w {
                        self.data.swap(write * w + k, read * w + k);
                    }
                }
                write += 1;
            }
        }
        self.data.truncate(write * w);
        self.len = write;
    }

    /// Drops all rows, keeping the schema and the slab's capacity.
    pub fn clear_rows(&mut self) {
        self.data.clear();
        self.len = 0;
    }

    /// Sorts the rows into the canonical relation order: columns compared
    /// in variable-name order (so the order is a property of the *schema*,
    /// not of the column positions a particular plan happened to produce),
    /// rows by [`Value::canonical_cmp`]. Any two plans for the same
    /// conjunction produce the same row *set*; after this sort they produce
    /// the same row *sequence* — which is what makes constructed output
    /// (node creation order, page bytes) independent of the physical plan.
    pub fn canonical_sort(&mut self) {
        let w = self.vars.len();
        let n = self.len;
        if n <= 1 || w == 0 {
            return;
        }
        let mut cols: Vec<usize> = (0..w).collect();
        cols.sort_by(|&a, &b| self.vars[a].cmp(&self.vars[b]));
        // Caching an order-preserving digest of each row's primary column
        // keeps almost every comparison inside this contiguous array of
        // `(u64, u32)` pairs; only digest ties pay a full row comparison.
        let primary = cols[0];
        let mut order: Vec<(u64, u32)> = (0..n)
            .map(|r| (sort_digest(&self.data[r * w + primary]), r as u32))
            .collect();
        let data = &self.data;
        // Unstable is fine: `canonical_cmp` returns `Equal` only for
        // identical values, so ties are entirely identical rows.
        order.sort_unstable_by(|&(ka, ra), &(kb, rb)| {
            ka.cmp(&kb).then_with(|| {
                let (ra, rb) = (ra as usize, rb as usize);
                for &c in &cols {
                    match data[ra * w + c].canonical_cmp(&data[rb * w + c]) {
                        std::cmp::Ordering::Equal => {}
                        o => return o,
                    }
                }
                std::cmp::Ordering::Equal
            })
        });
        if order.iter().enumerate().all(|(i, &(_, r))| i == r as usize) {
            return;
        }
        // Apply the permutation with in-place row swaps: no value clones, so
        // no refcount traffic on the `Arc`-backed strings. `inv[src] = dest`;
        // the swap loop applies the inverse of `inv`, i.e. `order` itself.
        let mut inv = vec![0u32; n];
        for (dest, &(_, src)) in order.iter().enumerate() {
            inv[src as usize] = dest as u32;
        }
        for i in 0..n {
            while inv[i] as usize != i {
                let j = inv[i] as usize;
                for k in 0..w {
                    self.data.swap(i * w + k, j * w + k);
                }
                inv.swap(i, j);
            }
        }
    }

    /// Projects onto a subset of variables (deduplicating rows), used when
    /// handing a parent block's bindings to a nested block. Candidate rows
    /// are hashed as slices and compared against the output slab — no row is
    /// cloned twice and rejected duplicates are never materialized.
    pub fn project(&self, keep: &[String]) -> Bindings {
        let cols: Vec<usize> = keep.iter().filter_map(|v| self.col(v)).collect();
        let kept: Vec<String> = keep.iter().filter(|v| self.is_bound(v)).cloned().collect();
        let mut out = Bindings::with_vars(kept);
        let mut dedup = RowDedup::default();
        for row in self.rows() {
            let projected = cols.iter().map(|&c| &row[c]);
            if dedup.probe(&out, projected.clone()) {
                out.push_row_extend(&[], projected.cloned());
                dedup.commit(out.len - 1);
            }
        }
        out
    }
}

/// An order-preserving 64-bit digest of a value: comparing digests never
/// contradicts [`Value::canonical_cmp`], and unequal digests imply the same
/// strict order. Equal digests say nothing (low bits of large integers and
/// string tails past 7 bytes are dropped), so ties must fall back to the
/// full comparison. The top byte is the `canonical_cmp` type rank; the low
/// 56 bits are a monotone compression of the content.
fn sort_digest(v: &Value) -> u64 {
    fn prefix7(s: &str) -> u64 {
        let mut k = 0u64;
        for i in 0..7 {
            k = (k << 8) | *s.as_bytes().get(i).unwrap_or(&0) as u64;
        }
        k
    }
    let (rank, body) = match v {
        Value::Node(n) => (0u64, n.0 as u64),
        Value::Int(i) => (1, (*i as u64 ^ (1 << 63)) >> 8),
        Value::Float(f) => {
            // The IEEE-754 total-order trick: flip all bits of negatives,
            // set the sign bit of non-negatives, and the unsigned bit
            // patterns sort exactly like `f64::total_cmp`.
            let b = f.to_bits();
            let k = if b >> 63 == 1 { !b } else { b | (1 << 63) };
            (2, k >> 8)
        }
        Value::Bool(b) => (3, *b as u64),
        Value::Str(s) => (4, prefix7(s)),
        Value::Url(s) => (5, prefix7(s)),
        Value::File(kind, s) => (6, ((*kind as u64) << 48) | (prefix7(s) >> 8)),
    };
    (rank << 56) | body
}

/// Deduplicates rows of a growing [`Bindings`] slab: a row-hash → row-index
/// table, with collision resolution by comparing against the slab itself.
/// Protocol: call [`RowDedup::probe`] with the candidate; if it returns
/// `true`, push the row and [`RowDedup::commit`] its index. Rows of one
/// hash are chained through `earlier`, so a distinct row costs no
/// allocation of its own.
#[derive(Default)]
pub struct RowDedup {
    /// Row hash → the latest committed row with it.
    latest: FxHashMap<u64, u32>,
    /// Per committed row, in commit order: its index in the slab and the
    /// position here of the row committed before it under the same hash.
    earlier: Vec<(u32, Option<u32>)>,
    pending: u64,
}

impl RowDedup {
    /// Whether a row with these values is absent from `b` (among committed
    /// rows). Remembers the hash for a following [`RowDedup::commit`].
    pub fn probe<'a>(
        &mut self,
        b: &Bindings,
        row: impl Iterator<Item = &'a Value> + Clone,
    ) -> bool {
        let mut h = FxHasher::default();
        let mut n = 0usize;
        for v in row.clone() {
            v.hash(&mut h);
            n += 1;
        }
        n.hash(&mut h);
        self.pending = h.finish();
        let mut at = self.latest.get(&self.pending).copied();
        while let Some((i, before)) = at.map(|at| self.earlier[at as usize]) {
            if b.row(i as usize).iter().eq(row.clone()) {
                return false;
            }
            at = before;
        }
        true
    }

    /// Records that the row just probed was pushed at `row_index`.
    pub fn commit(&mut self, row_index: usize) {
        let at = self.earlier.len() as u32;
        let before = self.latest.insert(self.pending, at);
        self.earlier.push((row_index as u32, before));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_has_one_empty_row() {
        let u = Bindings::unit();
        assert_eq!(u.len(), 1);
        assert!(u.vars().is_empty());
        assert_eq!(u.row(0), &[] as &[Value]);
    }

    #[test]
    fn add_var_and_get() {
        let mut b = Bindings::unit();
        let _x = b.add_var_with("x", Value::Int(7));
        assert_eq!(b.get(b.row(0), "x"), Some(&Value::Int(7)));
        assert_eq!(b.get(b.row(0), "y"), None);
        assert!(b.is_bound("x"));
    }

    #[test]
    fn add_var_with_extends_every_row() {
        let mut b = Bindings::with_vars(vec!["x".into()]);
        b.push_row(&[Value::Int(1)]);
        b.push_row(&[Value::Int(2)]);
        b.add_var_with("y", Value::str("k"));
        assert_eq!(b.width(), 2);
        assert_eq!(b.row(0), &[Value::Int(1), Value::str("k")]);
        assert_eq!(b.row(1), &[Value::Int(2), Value::str("k")]);
    }

    #[test]
    fn retain_rows_compacts() {
        let mut b = Bindings::with_vars(vec!["x".into()]);
        for i in 0..10 {
            b.push_row(&[Value::Int(i)]);
        }
        b.retain_rows(|r| matches!(r[0], Value::Int(i) if i % 3 == 0));
        assert_eq!(b.len(), 4);
        let got: Vec<_> = b.rows().map(|r| r[0].clone()).collect();
        assert_eq!(
            got,
            vec![Value::Int(0), Value::Int(3), Value::Int(6), Value::Int(9)]
        );
    }

    #[test]
    fn project_deduplicates() {
        let mut b = Bindings::with_vars(vec!["x".into(), "y".into()]);
        b.push_row(&[Value::Int(1), Value::Int(10)]);
        b.push_row(&[Value::Int(1), Value::Int(20)]);
        b.push_row(&[Value::Int(2), Value::Int(30)]);
        let p = b.project(&["x".to_string()]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.vars(), &["x".to_string()]);
    }

    #[test]
    fn project_ignores_unbound() {
        let b = Bindings::with_vars(vec!["x".into()]);
        let p = b.project(&["x".to_string(), "z".to_string()]);
        assert_eq!(p.vars(), &["x".to_string()]);
    }

    #[test]
    fn canonical_sort_orders_by_var_name_then_value() {
        // Schema order y,x — canonical order still compares column x first.
        let mut b = Bindings::with_vars(vec!["y".into(), "x".into()]);
        b.push_row(&[Value::Int(1), Value::Int(2)]);
        b.push_row(&[Value::Int(9), Value::Int(1)]);
        b.push_row(&[Value::Int(0), Value::Int(2)]);
        b.canonical_sort();
        let got: Vec<_> = b.rows().map(|r| (r[0].clone(), r[1].clone())).collect();
        assert_eq!(
            got,
            vec![
                (Value::Int(9), Value::Int(1)),
                (Value::Int(0), Value::Int(2)),
                (Value::Int(1), Value::Int(2)),
            ]
        );
        // Mixed types order by rank: nodes < ints < strings.
        let mut m = Bindings::with_vars(vec!["v".into()]);
        m.push_row(&[Value::str("s")]);
        m.push_row(&[Value::Int(5)]);
        m.canonical_sort();
        assert_eq!(m.row(0), &[Value::Int(5)]);
    }

    #[test]
    fn row_dedup_distinguishes_equal_hashes_by_content() {
        let mut b = Bindings::with_vars(vec!["x".into(), "y".into()]);
        let mut dedup = RowDedup::default();
        let rows = [
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(1), Value::str("b")],
        ];
        let mut inserted = 0;
        for r in &rows {
            if dedup.probe(&b, r.iter()) {
                b.push_row(r);
                dedup.commit(b.len() - 1);
                inserted += 1;
            }
        }
        assert_eq!(inserted, 2);
    }
}
