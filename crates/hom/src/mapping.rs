//! Variable mappings (the carriers of homomorphisms between queries).
//!
//! A homomorphism from `Q₂` to `Q₁` (Sec. 3.3 of the paper) is a function
//! `h : u₂ ∪ v₂ → u₁ ∪ v₁` with `h(u₂) = u₁` mapping every atom of `Q₂` to an
//! atom of `Q₁`.  [`VarMap`] stores such a function as a dense vector indexed
//! by the source query's variables.

use annot_query::{Atom, QVar};

/// A (possibly partial) mapping from the variables of a source query to the
/// variables of a target query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarMap {
    map: Vec<Option<QVar>>,
}

impl VarMap {
    /// The mapping of a source query without variables.
    pub(crate) const EMPTY: VarMap = VarMap { map: Vec::new() };

    /// Makes the mapping empty for a source query with `num_source_vars`
    /// variables, keeping its buffer.
    pub(crate) fn reset(&mut self, num_source_vars: usize) {
        self.map.clear();
        self.map.resize(num_source_vars, None);
    }

    /// An empty (fully undefined) mapping for a source query with
    /// `num_source_vars` variables.
    pub fn new(num_source_vars: usize) -> Self {
        VarMap {
            map: vec![None; num_source_vars],
        }
    }

    /// The image of a source variable, if defined.
    pub fn get(&self, v: QVar) -> Option<QVar> {
        self.map[v.0 as usize]
    }

    /// Binds a source variable.  Returns `false` (and leaves the map
    /// unchanged) if the variable is already bound to a different target.
    pub fn bind(&mut self, v: QVar, target: QVar) -> bool {
        match self.map[v.0 as usize] {
            None => {
                self.map[v.0 as usize] = Some(target);
                true
            }
            Some(existing) => existing == target,
        }
    }

    /// Removes a binding.
    pub fn unbind(&mut self, v: QVar) {
        self.map[v.0 as usize] = None;
    }

    /// Whether every source variable is bound.
    pub fn is_total(&self) -> bool {
        self.map.iter().all(|m| m.is_some())
    }

    /// The image of an atom under the mapping.  Panics if any argument is
    /// unbound.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(
            atom.relation,
            atom.args
                .iter()
                // invariant: the caller checked the atom is fully bound
                .map(|&v| self.get(v).expect("atom argument not bound"))
                .collect(),
        )
    }

    /// The underlying vector (for inspection in tests).
    pub fn as_slice(&self) -> &[Option<QVar>] {
        &self.map
    }

    /// Whether the mapping, restricted to its defined part, is injective on
    /// variables.
    pub fn is_injective_on_vars(&self) -> bool {
        self.map
            .iter()
            .enumerate()
            .all(|(i, image)| image.is_none() || !self.map[i + 1..].contains(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::{Cq, Schema};

    #[test]
    fn bind_and_rebind() {
        let mut m = VarMap::new(3);
        assert!(m.bind(QVar(0), QVar(5)));
        assert!(m.bind(QVar(0), QVar(5))); // consistent rebind
        assert!(!m.bind(QVar(0), QVar(6))); // conflicting rebind
        assert_eq!(m.get(QVar(0)), Some(QVar(5)));
        assert_eq!(m.get(QVar(1)), None);
        assert!(!m.is_total());
        m.unbind(QVar(0));
        assert_eq!(m.get(QVar(0)), None);
    }

    #[test]
    fn totality_and_injectivity() {
        let mut m = VarMap::new(2);
        m.bind(QVar(0), QVar(1));
        m.bind(QVar(1), QVar(1));
        assert!(m.is_total());
        assert!(!m.is_injective_on_vars());
        let mut m2 = VarMap::new(2);
        m2.bind(QVar(0), QVar(0));
        m2.bind(QVar(1), QVar(2));
        assert!(m2.is_injective_on_vars());
    }

    #[test]
    fn atom_images() {
        let schema = Schema::with_relations([("R", 2)]);
        let q = Cq::builder(&schema).atom("R", &["x", "y"]).build();
        let mut m = VarMap::new(2);
        m.bind(QVar(0), QVar(7));
        m.bind(QVar(1), QVar(7));
        let img = m.apply_atom(&q.atoms()[0]);
        assert_eq!(img.args, vec![QVar(7), QVar(7)]);
        assert_eq!(m.as_slice().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn applying_partial_map_panics() {
        let schema = Schema::with_relations([("R", 2)]);
        let q = Cq::builder(&schema).atom("R", &["x", "y"]).build();
        let m = VarMap::new(2);
        let _ = m.apply_atom(&q.atoms()[0]);
    }
}
