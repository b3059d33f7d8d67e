//! Generic place/transition nets with weighted arcs and firing semantics.
//!
//! The representation is dense and index-based: places and transitions are
//! small integers, markings are token-count vectors. Reachability lays the
//! net out once more for its inner loop (see [`crate::reach`]) and
//! allocates nothing per discovered state.

use std::fmt;

/// Identifier of a place within a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

/// Identifier of a transition within a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransId(pub(crate) u32);

impl PlaceId {
    /// The dense index of this place.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransId {
    /// The dense index of this transition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A marking: the number of tokens on each place, indexed by [`PlaceId`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(pub Box<[u32]>);

impl Marking {
    /// Tokens currently on `place`.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.index()]
    }

    /// Total number of tokens in the marking.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&t| u64::from(t)).sum()
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the marking has no places (degenerate nets only).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{:?}", &self.0)
    }
}

/// Errors from net construction or firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A transition was fired that is not enabled in the given marking.
    NotEnabled {
        /// The transition that was attempted.
        transition: TransId,
    },
    /// An arc referenced a place or transition that does not exist.
    UnknownNode(String),
    /// A duplicate place or transition name was registered.
    DuplicateName(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NotEnabled { transition } => {
                write!(f, "transition t{} is not enabled", transition.0)
            }
            NetError::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            NetError::DuplicateName(name) => write!(f, "duplicate node name `{name}`"),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug, Clone)]
struct TransitionData {
    name: String,
    /// (place, weight) consumed when firing.
    inputs: Vec<(PlaceId, u32)>,
    /// (place, weight) produced when firing.
    outputs: Vec<(PlaceId, u32)>,
}

/// An immutable place/transition net.
///
/// Build one with [`NetBuilder`]. Markings are held externally so a single
/// `Net` can drive many concurrent explorations.
#[derive(Debug, Clone)]
pub struct Net {
    place_names: Vec<String>,
    transitions: Vec<TransitionData>,
    initial: Marking,
}

/// Builder for [`Net`].
#[derive(Debug, Default)]
pub struct NetBuilder {
    place_names: Vec<String>,
    initial_tokens: Vec<u32>,
    transitions: Vec<TransitionData>,
}

impl NetBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a place with an initial token count, returning its id.
    pub fn place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        let id = PlaceId(self.place_names.len() as u32);
        self.place_names.push(name.into());
        self.initial_tokens.push(initial_tokens);
        id
    }

    /// Add a transition consuming `inputs` and producing `outputs`
    /// (unit arc weights), returning its id.
    pub fn transition(
        &mut self,
        name: impl Into<String>,
        inputs: &[PlaceId],
        outputs: &[PlaceId],
    ) -> TransId {
        self.weighted_transition(
            name,
            &inputs.iter().map(|&p| (p, 1)).collect::<Vec<_>>(),
            &outputs.iter().map(|&p| (p, 1)).collect::<Vec<_>>(),
        )
    }

    /// Add a transition with explicit arc weights.
    pub fn weighted_transition(
        &mut self,
        name: impl Into<String>,
        inputs: &[(PlaceId, u32)],
        outputs: &[(PlaceId, u32)],
    ) -> TransId {
        let id = TransId(self.transitions.len() as u32);
        self.transitions.push(TransitionData {
            name: name.into(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
        id
    }

    /// Finish building. Returns an error on duplicate node names.
    ///
    /// Duplicate arcs between one transition and one place are folded into
    /// a single arc with the summed weight, so `enabled` (per-arc weight
    /// check) and `fire` (per-arc token movement) always agree on the
    /// aggregate demand.
    pub fn build(mut self) -> Result<Net, NetError> {
        let mut seen = std::collections::HashSet::new();
        for name in self
            .place_names
            .iter()
            .chain(self.transitions.iter().map(|t| &t.name))
        {
            if !seen.insert(name.clone()) {
                return Err(NetError::DuplicateName(name.clone()));
            }
        }
        for t in &mut self.transitions {
            merge_duplicate_arcs(&mut t.inputs);
            merge_duplicate_arcs(&mut t.outputs);
        }
        Ok(Net {
            place_names: self.place_names,
            transitions: self.transitions,
            initial: Marking(self.initial_tokens.into_boxed_slice()),
        })
    }
}

/// Fold duplicate `(place, weight)` arcs into one arc with the summed
/// weight, preserving first-occurrence order.
fn merge_duplicate_arcs(arcs: &mut Vec<(PlaceId, u32)>) {
    let mut merged: Vec<(PlaceId, u32)> = Vec::with_capacity(arcs.len());
    for &(p, w) in arcs.iter() {
        match merged.iter_mut().find(|(mp, _)| *mp == p) {
            Some((_, mw)) => *mw += w,
            None => merged.push((p, w)),
        }
    }
    *arcs = merged;
}

impl Net {
    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Name of a place.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.place_names[place.index()]
    }

    /// Name of a transition.
    pub fn transition_name(&self, trans: TransId) -> &str {
        &self.transitions[trans.index()].name
    }

    /// Look up a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Look up a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(|i| TransId(i as u32))
    }

    /// All place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.place_names.len() as u32).map(PlaceId)
    }

    /// All transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransId> + '_ {
        (0..self.transitions.len() as u32).map(TransId)
    }

    /// Input arcs (place, weight) of a transition.
    pub fn inputs(&self, trans: TransId) -> &[(PlaceId, u32)] {
        &self.transitions[trans.index()].inputs
    }

    /// Output arcs (place, weight) of a transition.
    pub fn outputs(&self, trans: TransId) -> &[(PlaceId, u32)] {
        &self.transitions[trans.index()].outputs
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// True if `trans` is enabled in `marking` (every input place holds at
    /// least the arc weight).
    pub fn enabled(&self, marking: &Marking, trans: TransId) -> bool {
        self.transitions[trans.index()]
            .inputs
            .iter()
            .all(|&(p, w)| marking.0[p.index()] >= w)
    }

    /// Iterator over the transitions enabled in `marking`, in transition
    /// order. This is the allocation-free form exploration hot paths use;
    /// [`Net::enabled_transitions`] is the collecting convenience wrapper.
    pub fn enabled_iter<'a>(
        &'a self,
        marking: &'a Marking,
    ) -> impl Iterator<Item = TransId> + 'a {
        self.transitions().filter(move |&t| self.enabled(marking, t))
    }

    /// Call `f` for each transition enabled in `marking`, in transition
    /// order, without allocating.
    pub fn for_each_enabled(&self, marking: &Marking, mut f: impl FnMut(TransId)) {
        for t in self.enabled_iter(marking) {
            f(t);
        }
    }

    /// All transitions enabled in `marking`, collected into a `Vec`.
    /// Prefer [`Net::enabled_iter`] / [`Net::for_each_enabled`] on hot
    /// paths — this form allocates per call.
    pub fn enabled_transitions(&self, marking: &Marking) -> Vec<TransId> {
        self.enabled_iter(marking).collect()
    }

    /// True if no transition is enabled — the net is dead in `marking`.
    pub fn is_deadlocked(&self, marking: &Marking) -> bool {
        self.transitions().all(|t| !self.enabled(marking, t))
    }

    /// Fire `trans` in `marking`, returning the successor marking.
    pub fn fire(&self, marking: &Marking, trans: TransId) -> Result<Marking, NetError> {
        if !self.enabled(marking, trans) {
            return Err(NetError::NotEnabled { transition: trans });
        }
        let mut next = marking.0.clone();
        let data = &self.transitions[trans.index()];
        for &(p, w) in &data.inputs {
            next[p.index()] -= w;
        }
        for &(p, w) in &data.outputs {
            next[p.index()] += w;
        }
        Ok(Marking(next))
    }

    /// The net effect of `trans` on each place (outputs minus inputs), as a
    /// signed vector indexed by place. This is the transition's column of the
    /// incidence matrix.
    pub fn incidence_column(&self, trans: TransId) -> Vec<i64> {
        let mut col = vec![0i64; self.num_places()];
        let data = &self.transitions[trans.index()];
        for &(p, w) in &data.inputs {
            col[p.index()] -= i64::from(w);
        }
        for &(p, w) in &data.outputs {
            col[p.index()] += i64::from(w);
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_place_net() -> (Net, PlaceId, PlaceId, TransId) {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let c = b.place("c", 0);
        let t = b.transition("t", &[a], &[c]);
        (b.build().unwrap(), a, c, t)
    }

    #[test]
    fn fire_moves_token() {
        let (net, a, c, t) = two_place_net();
        let m0 = net.initial_marking();
        assert!(net.enabled(&m0, t));
        let m1 = net.fire(&m0, t).unwrap();
        assert_eq!(m1.tokens(a), 0);
        assert_eq!(m1.tokens(c), 1);
    }

    #[test]
    fn fire_disabled_errors() {
        let (net, _, _, t) = two_place_net();
        let m0 = net.initial_marking();
        let m1 = net.fire(&m0, t).unwrap();
        assert!(!net.enabled(&m1, t));
        assert_eq!(
            net.fire(&m1, t),
            Err(NetError::NotEnabled { transition: t })
        );
    }

    #[test]
    fn deadlock_detected_when_no_transition_enabled() {
        let (net, _, _, t) = two_place_net();
        let m1 = net.fire(&net.initial_marking(), t).unwrap();
        assert!(net.is_deadlocked(&m1));
        assert!(!net.is_deadlocked(&net.initial_marking()));
    }

    #[test]
    fn weighted_arcs_respected() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        let t = b.weighted_transition("t", &[(p, 2)], &[(q, 5)]);
        let net = b.build().unwrap();
        let m1 = net.fire(&net.initial_marking(), t).unwrap();
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(m1.tokens(q), 5);
        // Only 1 token left on p, weight-2 arc no longer enabled.
        assert!(!net.enabled(&m1, t));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetBuilder::new();
        b.place("x", 0);
        b.place("x", 0);
        assert!(matches!(b.build(), Err(NetError::DuplicateName(_))));
    }

    #[test]
    fn name_lookup() {
        let (net, a, _, t) = two_place_net();
        assert_eq!(net.place_by_name("a"), Some(a));
        assert_eq!(net.transition_by_name("t"), Some(t));
        assert_eq!(net.place_by_name("zzz"), None);
        assert_eq!(net.place_name(a), "a");
        assert_eq!(net.transition_name(t), "t");
    }

    #[test]
    fn incidence_column_signs() {
        let (net, a, c, t) = two_place_net();
        let col = net.incidence_column(t);
        assert_eq!(col[a.index()], -1);
        assert_eq!(col[c.index()], 1);
    }

    #[test]
    fn marking_total_and_len() {
        let (net, _, _, _) = two_place_net();
        let m = net.initial_marking();
        assert_eq!(m.total(), 1);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn duplicate_arcs_merge_into_summed_weight() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // q listed twice: builder folds to one weight-2 arc, so firing
        // produces 2 tokens and the arc list has no duplicates.
        let t = b.transition("t", &[p], &[q, q]);
        let net = b.build().unwrap();
        assert_eq!(net.outputs(t), &[(q, 2)]);
        let m1 = net.fire(&net.initial_marking(), t).unwrap();
        assert_eq!(m1.tokens(q), 2);
        // Duplicate *inputs* demand the aggregate: two p-arcs need 2 tokens.
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let t = b.transition("t", &[p, p], &[]);
        let net = b.build().unwrap();
        assert_eq!(net.inputs(t), &[(p, 2)]);
        assert!(!net.enabled(&net.initial_marking(), t));
    }

    #[test]
    fn enabled_iter_matches_collected_form() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t1 = b.transition("t1", &[p], &[q]);
        b.transition("t2", &[q], &[p]);
        let t3 = b.transition("t3", &[p], &[p]);
        let net = b.build().unwrap();
        let m0 = net.initial_marking();
        assert_eq!(net.enabled_iter(&m0).collect::<Vec<_>>(), vec![t1, t3]);
        assert_eq!(net.enabled_transitions(&m0), vec![t1, t3]);
        let mut seen = Vec::new();
        net.for_each_enabled(&m0, |t| seen.push(t));
        assert_eq!(seen, vec![t1, t3]);
    }

    #[test]
    fn self_loop_transition_requires_and_restores_token() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // Reads p (consumes and reproduces), produces q.
        let t = b.transition("t", &[p], &[p, q]);
        let net = b.build().unwrap();
        let m1 = net.fire(&net.initial_marking(), t).unwrap();
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(m1.tokens(q), 1);
        assert!(net.enabled(&m1, t));
    }
}
