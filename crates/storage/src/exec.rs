//! Physical operators: pattern scans and execution metrics.
//!
//! Joins and projections live on [`Relation`];
//! this module contributes the store-facing scan operator and the metrics
//! the experiments report (intermediate result sizes — the quantities the
//! paper quotes for Example 1, e.g. "33,328,108 results each").

use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::store::{Bound, RangePattern, TripleSource};
use rdfref_model::{EncodedTriple, TermId};
use rdfref_query::ast::{Atom, PTerm};
use rdfref_query::Var;
use std::time::Duration;

/// One recorded execution step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStep {
    /// Operator label, e.g. `scan(?x type C)` or `join`.
    pub label: String,
    /// Rows produced by the operator.
    pub rows: usize,
    /// Operator wall time. `Duration::ZERO` unless a recorder was installed
    /// when the step ran (timing is only measured under observation).
    pub wall: Duration,
}

/// Execution metrics: per-operator row counts and aggregates.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Ordered operator trace.
    pub steps: Vec<ExecStep>,
    /// Total rows emitted by scans.
    pub rows_scanned: usize,
    /// Largest intermediate relation observed.
    pub peak_intermediate: usize,
}

impl ExecMetrics {
    /// Record an operator's output size.
    pub fn record(&mut self, label: impl Into<String>, rows: usize) {
        self.record_timed(label, rows, Duration::ZERO);
    }

    /// Record an operator's output size together with its wall time.
    pub fn record_timed(&mut self, label: impl Into<String>, rows: usize, wall: Duration) {
        self.steps.push(ExecStep {
            label: label.into(),
            rows,
            wall,
        });
        self.peak_intermediate = self.peak_intermediate.max(rows);
    }

    /// Record a scan specifically (also counted in `rows_scanned`).
    pub fn record_scan(&mut self, label: impl Into<String>, rows: usize) {
        self.rows_scanned += rows;
        self.record(label, rows);
    }

    /// Record a timed scan (also counted in `rows_scanned`).
    pub fn record_scan_timed(&mut self, label: impl Into<String>, rows: usize, wall: Duration) {
        self.rows_scanned += rows;
        self.record_timed(label, rows, wall);
    }

    /// Merge metrics from a sub-evaluation (a union's disjunct morsel
    /// units).
    pub fn absorb(&mut self, other: ExecMetrics) {
        self.rows_scanned += other.rows_scanned;
        self.peak_intermediate = self.peak_intermediate.max(other.peak_intermediate);
        self.steps.extend(other.steps);
    }
}

/// Translate one pattern position into a scan bound.
fn bound_of(t: &PTerm) -> Bound {
    match t {
        PTerm::Var(_) => Bound::Any,
        PTerm::Const(c) => Bound::Const(*c),
        PTerm::Range(lo, hi) => Bound::Range(*lo, *hi),
    }
}

/// The compiled shape of one pattern scan: the index pattern, the output
/// columns (the atom's distinct variables in `s, p, o` position order)
/// with their source positions, and the equality filters induced by
/// repeated variables. Compiled once per atom and shared by the sequential
/// scan and by every morsel worker.
#[derive(Debug, Clone)]
pub(crate) struct ScanShape {
    pub(crate) pattern: RangePattern,
    pub(crate) columns: Vec<Var>,
    col_pos: Vec<usize>,
    eq_checks: Vec<(usize, usize)>, // (pos_a, pos_b) must be equal
}

#[inline]
fn position_of(t: &EncodedTriple, pos: usize) -> TermId {
    match pos {
        0 => t.s,
        1 => t.p,
        _ => t.o,
    }
}

impl ScanShape {
    pub(crate) fn of(atom: &Atom) -> ScanShape {
        let pattern = RangePattern {
            s: bound_of(&atom.s),
            p: bound_of(&atom.p),
            o: bound_of(&atom.o),
        };
        let mut columns: Vec<Var> = Vec::new();
        let mut col_pos: Vec<usize> = Vec::new();
        let mut eq_checks: Vec<(usize, usize)> = Vec::new();
        for (pos, t) in atom.positions().into_iter().enumerate() {
            if let PTerm::Var(v) = t {
                match columns.iter().position(|c| c == v) {
                    Some(existing) => eq_checks.push((col_pos[existing], pos)),
                    None => {
                        columns.push(v.clone());
                        col_pos.push(pos);
                    }
                }
            }
        }
        ScanShape {
            pattern,
            columns,
            col_pos,
            eq_checks,
        }
    }

    /// Project one matching triple into `rel` if it passes the
    /// repeated-variable filters. `row_buf` is caller-provided scratch so
    /// the hot loop never allocates.
    pub(crate) fn emit(
        &self,
        t: &EncodedTriple,
        row_buf: &mut Vec<TermId>,
        rel: &mut Relation,
    ) -> Result<()> {
        if self
            .eq_checks
            .iter()
            .all(|&(a, b)| position_of(t, a) == position_of(t, b))
        {
            row_buf.clear();
            row_buf.extend(self.col_pos.iter().map(|&p| position_of(t, p)));
            rel.push_row(row_buf)?;
        }
        Ok(())
    }
}

/// Scan one triple pattern into a relation whose columns are the atom's
/// distinct variables in `s, p, o` position order. Constants and id
/// intervals constrain the index scan (intervals bind no column); repeated
/// variables become equality filters.
pub fn scan_atom(source: &dyn TripleSource, atom: &Atom) -> Result<Relation> {
    let shape = ScanShape::of(atom);
    let mut rel = Relation::empty(shape.columns.clone());
    let mut row: Vec<TermId> = Vec::with_capacity(shape.columns.len());
    // `scan_into`'s callback cannot propagate errors, so a push failure is
    // captured here and surfaced after the scan completes.
    let mut push_err: Option<StorageError> = None;
    source.scan_range_into(&shape.pattern, &mut |t| {
        if push_err.is_none() {
            if let Err(e) = shape.emit(&t, &mut row, &mut rel) {
                push_err = Some(e);
            }
        }
    });
    match push_err {
        Some(e) => Err(e),
        None => Ok(rel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use rdfref_model::{Dictionary, EncodedTriple, Term};

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn fixture() -> (Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["a", "b", "p"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (a, b, p) = (ids[0], ids[1], ids[2]);
        let store = Store::from_triples(&[
            EncodedTriple::new(a, p, b),
            EncodedTriple::new(a, p, a), // self-loop
            EncodedTriple::new(b, p, a),
        ]);
        (store, ids)
    }

    #[test]
    fn scan_binds_variables_in_position_order() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("y"))).unwrap();
        assert_eq!(rel.columns(), &[v("x"), v("y")]);
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn scan_with_constant_filters() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], v("y"))).unwrap();
        assert_eq!(rel.columns(), &[v("y")]);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn repeated_variable_is_equality_filter() {
        let (store, ids) = fixture();
        // (?x p ?x) matches only the self-loop.
        let rel = scan_atom(&store, &Atom::new(v("x"), ids[2], v("x"))).unwrap();
        assert_eq!(rel.columns(), &[v("x")]);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[ids[0]]);
    }

    #[test]
    fn all_constant_atom_yields_zero_column_rows() {
        let (store, ids) = fixture();
        let rel = scan_atom(&store, &Atom::new(ids[0], ids[2], ids[1])).unwrap();
        assert_eq!(rel.arity(), 0);
        assert_eq!(rel.len(), 1); // matched: acts as a "true" unit row
        let rel2 = scan_atom(&store, &Atom::new(ids[1], ids[2], ids[1])).unwrap();
        assert!(rel2.is_empty()); // no match: "false"
    }

    #[test]
    fn variable_property_scans_everything() {
        let (store, _) = fixture();
        let rel = scan_atom(&store, &Atom::new(v("s"), v("p"), v("o"))).unwrap();
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn metrics_aggregate() {
        let mut m = ExecMetrics::default();
        m.record_scan("scan A", 10);
        m.record("join", 50);
        let mut m2 = ExecMetrics::default();
        m2.record_scan("scan B", 7);
        m2.record("join", 100);
        m.absorb(m2);
        assert_eq!(m.rows_scanned, 17);
        assert_eq!(m.peak_intermediate, 100);
        assert_eq!(m.steps.len(), 4);
    }
}
