//! Column-store storage: schemas, compact decimal columns, tables, and
//! the catalog.
//!
//! DECIMAL columns are stored in the compact byte-aligned representation
//! of §III-B (Fig. 4) — `Lb` bytes per value, sign folded into one bit —
//! exactly the buffers the generated kernels read. Precision and scale
//! live in the column metadata ("the precision and scale are contained in
//! the metadata of the relation"), never per value.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use up_num::{encode_compact_into, DecimalType, NumError, UpDecimal};

/// A column's declared type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// `DECIMAL(p, s)` stored compact.
    Decimal(DecimalType),
    /// 64-bit integer.
    Int64,
    /// 64-bit float (the DOUBLE baseline).
    Float64,
    /// Variable-length string (dictionary-free, for TPC-H flags/dates).
    Str,
}

/// A named column.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Column name (lowercase).
    pub name: String,
    /// Type.
    pub ty: ColumnType,
}

/// A table schema.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    /// Ordered columns.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema from (name, type) pairs.
    pub fn new(cols: Vec<(&str, ColumnType)>) -> Schema {
        Schema {
            columns: cols
                .into_iter()
                .map(|(n, ty)| ColumnDef { name: n.to_lowercase(), ty })
                .collect(),
        }
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lname = name.to_lowercase();
        self.columns.iter().position(|c| c.name == lname)
    }
}

/// Column storage.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// Compact decimal bytes, `lb` per value.
    Decimal {
        /// The declared type.
        ty: DecimalType,
        /// Packed compact values.
        bytes: Vec<u8>,
    },
    /// Integers.
    Int64(Vec<i64>),
    /// Floats.
    Float64(Vec<f64>),
    /// Strings.
    Str(Vec<String>),
}

impl ColumnData {
    /// Empty storage for a column type.
    pub fn new(ty: ColumnType) -> ColumnData {
        match ty {
            ColumnType::Decimal(t) => ColumnData::Decimal { ty: t, bytes: Vec::new() },
            ColumnType::Int64 => ColumnData::Int64(Vec::new()),
            ColumnType::Float64 => ColumnData::Float64(Vec::new()),
            ColumnType::Str => ColumnData::Str(Vec::new()),
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Decimal { ty, bytes } => bytes.len() / ty.lb(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this column occupies in storage — what PCIe transfers move.
    pub fn byte_size(&self) -> u64 {
        match self {
            ColumnData::Decimal { bytes, .. } => bytes.len() as u64,
            ColumnData::Int64(v) => 8 * v.len() as u64,
            ColumnData::Float64(v) => 8 * v.len() as u64,
            ColumnData::Str(v) => v.iter().map(|s| s.len() as u64 + 4).sum(),
        }
    }

    /// Appends a decimal (must match the column type).
    pub fn push_decimal(&mut self, v: &UpDecimal) -> Result<(), NumError> {
        match self {
            ColumnData::Decimal { ty, bytes } => {
                debug_assert_eq!(v.dtype(), *ty, "value type must match column");
                let lb = ty.lb();
                let start = bytes.len();
                bytes.resize(start + lb, 0);
                encode_compact_into(v, *ty, &mut bytes[start..])
            }
            _ => panic!("push_decimal on a non-decimal column"),
        }
    }

    /// Reads a decimal by row index.
    pub fn get_decimal(&self, row: usize) -> UpDecimal {
        match self {
            ColumnData::Decimal { ty, bytes } => {
                let lb = ty.lb();
                up_num::decode_compact(&bytes[row * lb..(row + 1) * lb], *ty)
            }
            _ => panic!("get_decimal on a non-decimal column"),
        }
    }

    /// The raw compact buffer of a decimal column (kernel input).
    pub fn decimal_bytes(&self) -> (&[u8], DecimalType) {
        match self {
            ColumnData::Decimal { ty, bytes } => (bytes, *ty),
            _ => panic!("decimal_bytes on a non-decimal column"),
        }
    }
}

/// An in-memory table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Name (lowercase).
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// One [`ColumnData`] per schema column.
    pub columns: Vec<ColumnData>,
    /// Row count.
    pub rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, schema: Schema) -> Table {
        let columns = schema.columns.iter().map(|c| ColumnData::new(c.ty)).collect();
        Table { name: name.to_lowercase(), schema, columns, rows: 0 }
    }

    /// Total storage bytes (for scan/PCIe models).
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(ColumnData::byte_size).sum()
    }

    /// Appends one row of [`Value`]s.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), NumError> {
        assert_eq!(row.len(), self.columns.len(), "row arity");
        for (col, v) in self.columns.iter_mut().zip(row) {
            match (col, v) {
                (c @ ColumnData::Decimal { .. }, Value::Decimal(d)) => c.push_decimal(&d)?,
                (ColumnData::Int64(vs), Value::Int64(i)) => vs.push(i),
                (ColumnData::Float64(vs), Value::Float64(f)) => vs.push(f),
                (ColumnData::Str(vs), Value::Str(s)) => vs.push(s),
                (c, v) => panic!("type mismatch: column {c:?} value {v:?}"),
            }
        }
        self.rows += 1;
        Ok(())
    }
}

/// A scalar value crossing the engine's boundaries.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Decimal.
    Decimal(UpDecimal),
    /// Integer.
    Int64(i64),
    /// Float.
    Float64(f64),
    /// String.
    Str(String),
    /// SQL NULL (only produced by empty aggregates).
    Null,
}

impl Value {
    /// Renders for result display.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// The result-display text: what [`Value::render`] returns and what a
/// `Rows` frame carries per cell.
impl core::fmt::Display for Value {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Value::Decimal(d) => d.fmt(f),
            Value::Int64(i) => i.fmt(f),
            Value::Float64(x) => x.fmt(f),
            Value::Str(s) => f.write_str(s),
            Value::Null => f.write_str("NULL"),
        }
    }
}

/// The table catalog, lock-striped per table.
///
/// Each table sits behind its own `RwLock`, so row appends into
/// *different* tables proceed in parallel and never block readers of
/// other tables — only the catalog map itself (DDL: create/replace)
/// needs `&mut Catalog`. Callers that lock **more than one** table must
/// acquire the guards in sorted lowercase-name order; that single global
/// order is what makes multi-table queries deadlock-free against each
/// other (see `exec::execute` and `plan::plan`).
#[derive(Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<RwLock<Table>>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table (replacing any previous one of the same name).
    /// DDL: requires exclusive catalog access.
    pub fn put(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), Arc::new(RwLock::new(table)));
    }

    /// The per-table lock handle (survives even if the catalog entry is
    /// later replaced).
    pub fn handle(&self, name: &str) -> Option<Arc<RwLock<Table>>> {
        self.tables.get(&name.to_lowercase()).cloned()
    }

    /// Read-locks a table.
    pub fn read(&self, name: &str) -> Option<RwLockReadGuard<'_, Table>> {
        self.tables
            .get(&name.to_lowercase())
            .map(|t| t.read().expect("table lock poisoned"))
    }

    /// Write-locks a table (row appends; schema edits still go through
    /// [`Catalog::put`]).
    pub fn write(&self, name: &str) -> Option<RwLockWriteGuard<'_, Table>> {
        self.tables
            .get(&name.to_lowercase())
            .map(|t| t.write().expect("table lock poisoned"))
    }

    /// Table names.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn decimal_column_round_trip() {
        let mut col = ColumnData::new(ColumnType::Decimal(dt(10, 2)));
        let vals = ["1.23", "-99999999.99", "0.00", "42.00"];
        for s in vals {
            col.push_decimal(&UpDecimal::parse(s, dt(10, 2)).unwrap()).unwrap();
        }
        assert_eq!(col.len(), 4);
        for (i, s) in vals.iter().enumerate() {
            assert_eq!(col.get_decimal(i).to_string(), *s);
        }
        // Storage is exactly Lb per value.
        assert_eq!(col.byte_size(), 4 * dt(10, 2).lb() as u64);
    }

    #[test]
    fn table_push_and_schema_lookup() {
        let schema = Schema::new(vec![
            ("c1", ColumnType::Decimal(dt(4, 2))),
            ("n", ColumnType::Int64),
            ("tag", ColumnType::Str),
        ]);
        let mut t = Table::new("R", schema);
        t.push_row(vec![
            Value::Decimal(UpDecimal::parse("1.23", dt(4, 2)).unwrap()),
            Value::Int64(7),
            Value::Str("x".into()),
        ])
        .unwrap();
        assert_eq!(t.rows, 1);
        assert_eq!(t.schema.index_of("C1"), Some(0));
        assert_eq!(t.schema.index_of("missing"), None);
        assert_eq!(t.columns[0].get_decimal(0).to_string(), "1.23");
    }

    #[test]
    fn catalog_is_case_insensitive() {
        let mut cat = Catalog::new();
        cat.put(Table::new("LineItem", Schema::default()));
        assert!(cat.read("lineitem").is_some());
        assert!(cat.read("LINEITEM").is_some());
    }

    #[test]
    fn table_locks_stripe_independently() {
        let mut cat = Catalog::new();
        cat.put(Table::new("a", Schema::default()));
        cat.put(Table::new("b", Schema::default()));
        // Holding a write lock on one table must not block the other.
        let _wa = cat.write("a").unwrap();
        let rb = cat.read("b").unwrap();
        assert_eq!(rb.rows, 0);
    }
}
