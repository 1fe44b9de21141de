//! Schemas, relation symbols, database values, tuples and the value interner.
//!
//! A schema (Sec. 2 of the paper) is a finite set of relation symbols, each
//! with a non-negative arity.  Relation symbols are interned into dense
//! [`RelId`]s so that atoms, instances and homomorphism searches compare
//! symbols by integer.
//!
//! Domain values are interned the same way: every [`Schema`] owns a shared
//! [`Domain`] mapping each distinct [`DbValue`] to a dense [`ValueId`]
//! (a `u32`).  Query evaluation only ever compares values for equality, so
//! the entire evaluation stack — instances, delta joins, the brute-force
//! oracle — operates on `ValueId`s and touches the heap-carrying `DbValue`
//! representation only at the public API boundary (insertion, lookup,
//! display).  Cloning a schema shares its domain, so instances and queries
//! built over clones of one schema agree on every `ValueId`.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A relation symbol, identified by its index in the owning [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// An interned domain value: the index of a [`DbValue`] in the owning
/// [`Domain`].  Equal values intern to equal ids (within one domain), so
/// value equality — the only operation query evaluation needs — is a `u32`
/// compare instead of a `DbValue` (potentially string) compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// An interned tuple: the [`ValueId`] image of a [`Tuple`].
pub type IdTuple = Vec<ValueId>;

#[derive(Debug, Default)]
struct DomainInner {
    values: Vec<DbValue>,
    index: HashMap<DbValue, ValueId>,
}

/// A shared, append-only interner from [`DbValue`]s to dense [`ValueId`]s.
///
/// Cloning is cheap (an [`Arc`] bump) and clones share the table, so every
/// instance over clones of one schema maps equal values to equal ids.  The
/// table is behind an [`RwLock`]: interning is a read-locked lookup with a
/// write-locked miss path, and hot paths pre-intern once and then work on
/// plain `u32`s without touching the lock at all.
#[derive(Clone, Debug, Default)]
pub struct Domain {
    inner: Arc<RwLock<DomainInner>>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value, returning its id (allocating one on first sight).
    pub fn intern(&self, value: &DbValue) -> ValueId {
        if let Some(id) = self.lookup(value) {
            return id;
        }
        let mut inner = write_lock(&self.inner);
        // Double-checked: another thread may have interned it meanwhile.
        if let Some(&id) = inner.index.get(value) {
            return id;
        }
        let id = ValueId(inner.values.len() as u32);
        inner.values.push(value.clone());
        inner.index.insert(value.clone(), id);
        id
    }

    /// The id of an already-interned value, or `None`.  Lookups never grow
    /// the domain, so read-only paths (e.g. [`Instance::annotation`]
    /// probes for arbitrary tuples) cannot balloon it.
    ///
    /// [`Instance::annotation`]: crate::instance::Instance::annotation
    pub fn lookup(&self, value: &DbValue) -> Option<ValueId> {
        read_lock(&self.inner).index.get(value).copied()
    }

    /// The value behind an id.  Panics if the id was not produced by this
    /// domain (or a clone of it).
    pub fn resolve(&self, id: ValueId) -> DbValue {
        read_lock(&self.inner).values[id.0 as usize].clone()
    }

    /// Interns every value of a tuple.
    pub fn intern_tuple(&self, tuple: &[DbValue]) -> IdTuple {
        tuple.iter().map(|v| self.intern(v)).collect()
    }

    /// Looks up every value of a tuple; `None` if any value is unknown (in
    /// which case the tuple cannot occur in any instance over this domain).
    pub fn lookup_tuple(&self, tuple: &[DbValue]) -> Option<IdTuple> {
        let inner = read_lock(&self.inner);
        tuple.iter().map(|v| inner.index.get(v).copied()).collect()
    }

    /// Resolves an interned tuple back to its [`DbValue`] form.
    pub fn resolve_tuple(&self, row: &[ValueId]) -> Tuple {
        let inner = read_lock(&self.inner);
        row.iter()
            .map(|id| inner.values[id.0 as usize].clone())
            .collect()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        read_lock(&self.inner).values.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two handles share one interner table (ids interchangeable).
    pub fn shares_with(&self, other: &Domain) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

fn read_lock(lock: &RwLock<DomainInner>) -> std::sync::RwLockReadGuard<'_, DomainInner> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_lock(lock: &RwLock<DomainInner>) -> std::sync::RwLockWriteGuard<'_, DomainInner> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An error raised when a schema declaration conflicts with an existing one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// A relation was re-declared with a different arity.
    ArityConflict {
        /// The relation name.
        name: String,
        /// The arity it was first declared with.
        existing: usize,
        /// The conflicting arity of the new declaration.
        requested: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ArityConflict {
                name,
                existing,
                requested,
            } => write!(
                f,
                "relation {name} re-declared with arity {requested} \
                 but was declared with arity {existing}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A database schema: an ordered list of named relation symbols with
/// arities, plus the shared value [`Domain`] of instances over it.
///
/// Equality compares the relation list only — two independently built
/// schemas with the same relations are equal even though their domains are
/// distinct interners (instances over them still compare equal value-wise;
/// see [`Instance`](crate::instance::Instance)).
///
/// The relation table is copy-on-write: clones share it behind an [`Arc`],
/// and a clone copies it only when it registers a relation the table does
/// not hold yet.  Cloning a schema — and so every [`Cq`](crate::Cq), which
/// carries its schema — is two reference-count bumps.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    relations: Arc<Relations>,
    domain: Domain,
}

/// The relation table behind a [`Schema`]: `(name, arity)` by id, and the
/// id by name.
#[derive(Clone, Debug, Default)]
struct Relations {
    list: Vec<(String, usize)>,
    by_name: HashMap<String, RelId>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.relations.list == other.relations.list
    }
}

impl Eq for Schema {}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schema from `(name, arity)` pairs.
    pub fn with_relations<'a>(rels: impl IntoIterator<Item = (&'a str, usize)>) -> Self {
        let mut schema = Schema::new();
        for (name, arity) in rels {
            schema.add_relation(name, arity);
        }
        schema
    }

    /// Adds (or retrieves) a relation symbol.  Returns a
    /// [`SchemaError::ArityConflict`] if a relation with the same name but a
    /// different arity already exists.
    pub fn try_add_relation(&mut self, name: &str, arity: usize) -> Result<RelId, SchemaError> {
        if let Some(&id) = self.relations.by_name.get(name) {
            let existing = self.relations.list[id.0 as usize].1;
            if existing != arity {
                return Err(SchemaError::ArityConflict {
                    name: name.to_string(),
                    existing,
                    requested: arity,
                });
            }
            return Ok(id);
        }
        let relations = Arc::make_mut(&mut self.relations);
        let id = RelId(relations.list.len() as u32);
        relations.list.push((name.to_string(), arity));
        relations.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds (or retrieves) a relation symbol.  Panics if a relation with the
    /// same name but a different arity already exists — a thin wrapper over
    /// [`Schema::try_add_relation`] for construction-time use.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> RelId {
        self.try_add_relation(name, arity)
            // invariant: documented panic — duplicate relation names are a caller bug (see the docs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Looks up a relation symbol by name.
    pub fn relation(&self, name: &str) -> Option<RelId> {
        self.relations.by_name.get(name).copied()
    }

    /// The name of a relation symbol.
    pub fn name(&self, rel: RelId) -> &str {
        &self.relations.list[rel.0 as usize].0
    }

    /// The arity of a relation symbol.
    pub fn arity(&self, rel: RelId) -> usize {
        self.relations.list[rel.0 as usize].1
    }

    /// The number of relation symbols.
    pub fn len(&self) -> usize {
        self.relations.list.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.list.is_empty()
    }

    /// Iterates over all relation symbols.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.list.len() as u32).map(RelId)
    }

    /// The shared value interner of instances over this schema.  Clones of a
    /// schema share one domain, so interned ids are interchangeable across
    /// them.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Convenience: interns a value into the schema's domain.
    pub fn intern_value(&self, value: &DbValue) -> ValueId {
        self.domain.intern(value)
    }
}

/// A database value (an element of the domain `D`).
///
/// Query evaluation only ever compares values for equality, so the concrete
/// carrier is irrelevant to the theory; integers and strings cover the
/// examples, and `Fresh` values are used internally by canonical instances
/// (one value per query variable).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DbValue {
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(String),
    /// A fresh value, used for canonical instances ⟦Q⟧ whose domain is the
    /// set of variables of `Q` (Sec. 4.6).
    Fresh(u32),
}

impl DbValue {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Self {
        DbValue::Str(s.to_string())
    }
}

impl From<i64> for DbValue {
    fn from(v: i64) -> Self {
        DbValue::Int(v)
    }
}

impl From<&str> for DbValue {
    fn from(v: &str) -> Self {
        DbValue::Str(v.to_string())
    }
}

impl fmt::Display for DbValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbValue::Int(i) => write!(f, "{}", i),
            DbValue::Str(s) => write!(f, "{}", s),
            DbValue::Fresh(n) => write!(f, "#{}", n),
        }
    }
}

/// A database tuple.
pub type Tuple = Vec<DbValue>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_interns_relations() {
        let mut s = Schema::new();
        let r = s.add_relation("R", 2);
        let t = s.add_relation("S", 1);
        let r2 = s.add_relation("R", 2);
        assert_eq!(r, r2);
        assert_ne!(r, t);
        assert_eq!(s.name(r), "R");
        assert_eq!(s.arity(r), 2);
        assert_eq!(s.arity(t), 1);
        assert_eq!(s.relation("S"), Some(t));
        assert_eq!(s.relation("T"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.rel_ids().count(), 2);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut s = Schema::new();
        s.add_relation("R", 2);
        s.add_relation("R", 3);
    }

    #[test]
    fn try_add_relation_reports_conflicts() {
        let mut s = Schema::new();
        let r = s.try_add_relation("R", 2).unwrap();
        assert_eq!(s.try_add_relation("R", 2), Ok(r));
        let err = s.try_add_relation("R", 3).unwrap_err();
        assert_eq!(
            err,
            SchemaError::ArityConflict {
                name: "R".into(),
                existing: 2,
                requested: 3,
            }
        );
        let shown = err.to_string();
        assert!(shown.contains('R') && shown.contains('2') && shown.contains('3'));
        // The failed declaration leaves the schema untouched.
        assert_eq!(s.len(), 1);
        assert_eq!(s.arity(r), 2);
    }

    #[test]
    fn with_relations_builder() {
        let s = Schema::with_relations([("R", 2), ("S", 1)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(s.relation("R").unwrap()), 2);
    }

    #[test]
    fn db_values() {
        assert_eq!(DbValue::from(3), DbValue::Int(3));
        assert_eq!(DbValue::from("a"), DbValue::Str("a".into()));
        assert_eq!(DbValue::str("a"), DbValue::Str("a".into()));
        assert_eq!(format!("{}", DbValue::Int(7)), "7");
        assert_eq!(format!("{}", DbValue::str("x")), "x");
        assert_eq!(format!("{}", DbValue::Fresh(2)), "#2");
        assert_ne!(DbValue::Int(1), DbValue::Fresh(1));
    }

    #[test]
    fn domain_interns_and_resolves() {
        let d = Domain::new();
        assert!(d.is_empty());
        let a = d.intern(&DbValue::str("a"));
        let b = d.intern(&DbValue::Int(1));
        let a2 = d.intern(&DbValue::str("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a), DbValue::str("a"));
        assert_eq!(d.resolve(b), DbValue::Int(1));
        assert_eq!(d.lookup(&DbValue::str("a")), Some(a));
        assert_eq!(d.lookup(&DbValue::str("z")), None);
    }

    #[test]
    fn domain_tuple_round_trip() {
        let d = Domain::new();
        let tuple: Tuple = vec!["a".into(), 1.into(), DbValue::Fresh(0), "a".into()];
        let row = d.intern_tuple(&tuple);
        assert_eq!(row.len(), 4);
        assert_eq!(row[0], row[3]);
        assert_eq!(d.resolve_tuple(&row), tuple);
        assert_eq!(d.lookup_tuple(&tuple), Some(row));
        assert_eq!(d.lookup_tuple(&[DbValue::Int(99)]), None);
    }

    #[test]
    fn registering_on_a_clone_leaves_the_original_untouched() {
        let original = Schema::with_relations([("R", 2)]);
        let mut clone = original.clone();
        let s = clone.add_relation("S", 1);
        assert_eq!(clone.len(), 2);
        assert_eq!(clone.relation("S"), Some(s));
        assert_eq!(original.len(), 1);
        assert_eq!(original.relation("S"), None);

        // … and the other way round: the original grows, the clone does not.
        let mut original = original;
        let before = original.clone();
        original.add_relation("T", 3);
        assert_eq!(original.len(), 2);
        assert_eq!(before.len(), 1);
        assert_eq!(before.relation("T"), None);
        assert_eq!(clone.relation("T"), None);
        // Clones keep sharing the value domain throughout.
        assert!(original.domain().shares_with(clone.domain()));
    }

    #[test]
    fn schema_clones_share_the_domain() {
        let s = Schema::with_relations([("R", 2)]);
        let s2 = s.clone();
        let id = s.intern_value(&DbValue::str("shared"));
        assert_eq!(s2.domain().lookup(&DbValue::str("shared")), Some(id));
        assert!(s.domain().shares_with(s2.domain()));
        // Independently built schemas are equal but do not share a domain.
        let s3 = Schema::with_relations([("R", 2)]);
        assert_eq!(s, s3);
        assert!(!s.domain().shares_with(s3.domain()));
    }
}
