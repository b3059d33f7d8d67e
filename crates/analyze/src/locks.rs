//! Lock identity: resolving [`LockRef`]s through the component's
//! declared-lock table into dense ids.
//!
//! Java monitors are objects, and two textual references are the same
//! monitor exactly when they resolve to the same object. In the MIR the
//! candidates are `this` and the component's declared auxiliary locks, so
//! identity reduces to a small dense index: `this` is id 0, the `i`-th
//! declared lock is id `1 + i`. Dense ids give the analyzer `Ord`/`Copy`
//! lock handles (which `LockRef` lacks) for lattice maps, `BTreeSet`
//! dedup, and lock-order graph nodes.

use std::collections::HashMap;

use jcc_model::ast::{Component, LockRef};

/// Dense identity of a monitor inside one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub usize);

impl LockId {
    /// The implicit receiver monitor (`this`).
    pub const THIS: LockId = LockId(0);
}

/// The component's monitors: `this` plus the declared auxiliary locks.
#[derive(Debug, Clone)]
pub struct LockTable {
    names: Vec<String>,
    /// Declared lock name → id; the first declaration of a name wins.
    ids: HashMap<String, LockId>,
}

impl LockTable {
    /// Build the table from a component's declared locks.
    pub fn new(component: &Component) -> LockTable {
        let mut names = Vec::with_capacity(component.locks.len() + 1);
        names.push("this".to_string());
        names.extend(component.locks.iter().cloned());
        let mut ids = HashMap::with_capacity(component.locks.len());
        for (i, name) in component.locks.iter().enumerate() {
            ids.entry(name.clone()).or_insert(LockId(i + 1));
        }
        LockTable { names, ids }
    }

    /// Resolve a [`LockRef`] to its dense id. `None` means the reference
    /// names a lock the component never declared (a validation error
    /// upstream; the analyzer treats it as a distinct unknown monitor and
    /// skips lock-identity reasoning on it).
    pub fn resolve(&self, lock: &LockRef) -> Option<LockId> {
        match lock {
            LockRef::This => Some(LockId::THIS),
            LockRef::Named(n) => self.ids.get(n).copied(),
        }
    }

    /// The display name of a lock id.
    pub fn name(&self, id: LockId) -> &str {
        &self.names[id.0]
    }

    /// Number of monitors (always ≥ 1: `this`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never empty, but clippy insists the pair exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All lock ids in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = LockId> {
        (0..self.names.len()).map(LockId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::ast::Component;

    fn component_with_locks(locks: &[&str]) -> Component {
        Component {
            name: "C".into(),
            locks: locks.iter().map(|s| s.to_string()).collect(),
            fields: vec![],
            methods: vec![],
        }
    }

    #[test]
    fn this_is_id_zero_and_names_follow_declaration_order() {
        let t = LockTable::new(&component_with_locks(&["a", "b"]));
        assert_eq!(t.resolve(&LockRef::This), Some(LockId(0)));
        assert_eq!(t.resolve(&LockRef::Named("a".into())), Some(LockId(1)));
        assert_eq!(t.resolve(&LockRef::Named("b".into())), Some(LockId(2)));
        assert_eq!(t.name(LockId(0)), "this");
        assert_eq!(t.name(LockId(2)), "b");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn undeclared_lock_does_not_resolve() {
        let t = LockTable::new(&component_with_locks(&["a"]));
        assert_eq!(t.resolve(&LockRef::Named("ghost".into())), None);
    }

    #[test]
    fn a_lock_named_this_is_not_the_receiver() {
        // A declared auxiliary lock that happens to be *named* "this" is a
        // different monitor from the receiver — exactly the confusion the
        // old to_string() comparison in model::validate::lints had.
        let t = LockTable::new(&component_with_locks(&["this"]));
        assert_eq!(t.resolve(&LockRef::This), Some(LockId(0)));
        assert_eq!(t.resolve(&LockRef::Named("this".into())), Some(LockId(1)));
    }
}
