//! State-space reduction: thread-permutation symmetry quotienting and
//! ample-set (strong stubborn set) partial-order reduction.
//!
//! Both reductions are *sound for deadlock detection*: the reduced
//! reachability graph contains every reachable dead marking (ample sets)
//! or one canonical representative of every orbit of dead markings
//! (symmetry), so the deadlock verdicts the Table-1 classification rests
//! on are preserved. They are *not* exhaustive — edge counts, state
//! counts and the bound witness `max_tokens_seen` cover only the explored
//! quotient — which is exactly the trade the next-order-of-magnitude
//! throughput comes from.
//!
//! * [`SymmetrySpec`] describes a block of interchangeable *lanes* —
//!   contiguous, equal-width runs of places, one per modeled thread, as
//!   laid out by [`crate::java_model::JavaNet`] (shared lock place `E`
//!   first, then four places per thread). Swapping two lanes of a marking
//!   maps reachable states to reachable states whenever the lane
//!   permutation is a net automorphism, which
//!   [`SymmetrySpec::is_automorphism`] verifies structurally before an
//!   exploration trusts the spec. Canonicalization sorts the lanes, so
//!   every orbit of thread-permuted markings collapses to one
//!   representative before dedup.
//! * [`StubbornSets`] computes, per marking, a deterministic *ample*
//!   subset of the enabled transitions with Valmari's strong-stubborn-set
//!   closure: an enabled member drags in every transition competing for
//!   its input tokens; a disabled member drags in the producers of one
//!   insufficient input place. Firing only the ample subset provably
//!   reaches every deadlock the full expansion reaches.
//!
//! [`Reduction`] packages the two knobs and rides inside
//! [`crate::reach::ReachLimits`] (it is `Copy`, so limits stay `Copy`).

use fxhash::FxHashMap;

use crate::net::{Marking, Net, TransId};

/// A block of interchangeable per-thread place lanes: `lanes` runs of
/// `lane_width` contiguous places starting at `first_place`. Swapping any
/// two lanes must map the net onto itself (checked by
/// [`SymmetrySpec::is_automorphism`]); places outside the block (shared
/// lock places, buffers) are fixed points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetrySpec {
    /// Index of the first place of lane 0.
    pub first_place: u32,
    /// Number of interchangeable lanes (modeled threads).
    pub lanes: u32,
    /// Places per lane.
    pub lane_width: u32,
}

impl SymmetrySpec {
    /// One past the last place covered by the lane block.
    #[inline]
    pub fn end_place(&self) -> usize {
        self.first_place as usize + (self.lanes as usize) * (self.lane_width as usize)
    }

    /// True when every adjacent lane transposition is an automorphism of
    /// `net`: the lane block is in bounds, the initial marking is
    /// lane-uniform, and the transition multiset is invariant under the
    /// place remapping. Adjacent transpositions generate the full
    /// symmetric group on lanes, so this suffices for every permutation.
    pub fn is_automorphism(&self, net: &Net) -> bool {
        let (first, n, w) = (
            self.first_place as usize,
            self.lanes as usize,
            self.lane_width as usize,
        );
        if n == 0 || w == 0 || self.end_place() > net.num_places() {
            return false;
        }
        if n == 1 {
            return true; // the trivial group
        }
        let m0 = net.initial_marking();
        let lane0 = &m0.0[first..first + w];
        for k in 1..n {
            if &m0.0[first + k * w..first + (k + 1) * w] != lane0 {
                return false;
            }
        }
        // The multiset of transition signatures must be invariant under
        // each swap. Every transition's signature is computed once and
        // numbered by class; a swap's image of each transition is built in
        // one reused buffer and taken off its class's multiplicity.
        let mut pairs = Vec::new();
        let mut words = Vec::new();
        let mut bounds = vec![0];
        for t in net.transitions() {
            arc_signature(net, t, |p| p, &mut pairs, &mut words);
            bounds.push(words.len());
        }
        let mut classes: FxHashMap<&[u32], usize> = FxHashMap::default();
        let mut multiplicity: Vec<usize> = Vec::new();
        for sig in bounds.windows(2).map(|b| &words[b[0]..b[1]]) {
            let next = classes.len();
            let class = *classes.entry(sig).or_insert(next);
            if class == multiplicity.len() {
                multiplicity.push(0);
            }
            multiplicity[class] += 1;
        }
        let (mut image, mut left) = (Vec::new(), Vec::new());
        for g in 0..n - 1 {
            let swap = |p: usize| -> usize {
                if p < first || p >= first + n * w {
                    return p;
                }
                let (lane, off) = ((p - first) / w, (p - first) % w);
                let swapped = match lane {
                    l if l == g => g + 1,
                    l if l == g + 1 => g,
                    l => l,
                };
                first + swapped * w + off
            };
            left.clone_from(&multiplicity);
            for t in net.transitions() {
                image.clear();
                arc_signature(net, t, swap, &mut pairs, &mut image);
                match classes.get(&image[..]) {
                    Some(&class) if left[class] > 0 => left[class] -= 1,
                    _ => return false,
                }
            }
        }
        true
    }

    /// Canonical representative of `m`'s orbit under lane permutation:
    /// lanes sorted lexicographically by their token sequence, places
    /// outside the lane block untouched. A test convenience; the engine
    /// goes through [`LaneCanon`] to avoid per-state allocation.
    pub fn canonicalize_marking(&self, m: &Marking) -> Marking {
        let mut tokens = m.0.to_vec();
        let mut canon = LaneCanon::new(*self);
        canon.canonicalize(&mut tokens);
        Marking(tokens.into_boxed_slice())
    }
}

/// Reusable scratch for sorting the lanes of markings in place.
#[derive(Debug, Clone)]
pub struct LaneCanon {
    spec: SymmetrySpec,
    order: Vec<u32>,
    buf: Vec<u32>,
}

impl LaneCanon {
    /// Scratch for canonicalizing markings under `spec`.
    pub fn new(spec: SymmetrySpec) -> LaneCanon {
        LaneCanon {
            spec,
            order: Vec::with_capacity(spec.lanes as usize),
            buf: Vec::with_capacity(spec.end_place() - spec.first_place as usize),
        }
    }

    /// Sort the lane block of `tokens` in place. Returns `true` when the
    /// marking changed (it was not its orbit's representative).
    pub fn canonicalize(&mut self, tokens: &mut [u32]) -> bool {
        let (first, n, w) = (
            self.spec.first_place as usize,
            self.spec.lanes as usize,
            self.spec.lane_width as usize,
        );
        if n <= 1 || w == 0 {
            return false;
        }
        self.order.clear();
        self.order.extend(0..n as u32);
        let lane = |k: u32| {
            let start = first + k as usize * w;
            start..start + w
        };
        self.order
            .sort_unstable_by(|&a, &b| tokens[lane(a)].cmp(&tokens[lane(b)]));
        self.buf.clear();
        for &k in &self.order {
            self.buf.extend_from_slice(&tokens[lane(k)]);
        }
        let block = &mut tokens[first..first + n * w];
        if block == &self.buf[..] {
            return false;
        }
        block.copy_from_slice(&self.buf);
        true
    }
}

/// The reduction knobs of one exploration. `Copy`, so
/// [`crate::reach::ReachLimits`] stays `Copy`. The default is everything
/// off: existing callers keep exhaustive semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reduction {
    /// Expand only a deterministic ample subset of the enabled
    /// transitions per state (strong stubborn sets — preserves the set of
    /// reachable dead markings exactly).
    pub ample: bool,
    /// Quotient the state space by lane-permutation symmetry. The spec is
    /// structurally validated per net; an invalid spec is ignored rather
    /// than trusted.
    pub symmetry: Option<SymmetrySpec>,
}

impl Reduction {
    /// No reduction: the exhaustive semantics every pre-reduction caller
    /// had.
    pub const NONE: Reduction = Reduction {
        ample: false,
        symmetry: None,
    };

    /// Both reductions on (symmetry only when a spec is given).
    pub fn full(symmetry: Option<SymmetrySpec>) -> Reduction {
        Reduction {
            ample: true,
            symmetry,
        }
    }

    /// True when no reduction is requested.
    pub fn is_none(&self) -> bool {
        !self.ample && self.symmetry.is_none()
    }
}

/// Per-net precomputation and per-state scratch for strong-stubborn-set
/// ample computation.
///
/// The closure rule, per candidate member `t` of the stubborn set:
///
/// * `t` enabled — add every transition sharing an input place with `t`
///   (only token *removal* can disable `t`, and only competitors for its
///   input tokens remove them);
/// * `t` disabled — pick the first input place with insufficient tokens
///   and add that place's producers (nothing else can enable `t`).
///
/// The ample set is the enabled part of the closure. Transitions outside
/// it neither disable nor are disabled by the ample members, so every
/// firing sequence to a dead marking can be reordered to fire an ample
/// member first — the reduced graph reaches every reachable deadlock.
#[derive(Debug, Clone)]
pub struct StubbornSets {
    /// Transition ids by index (avoids re-deriving `TransId`s).
    ids: Vec<TransId>,
    /// Per transition: aggregated input arcs as raw (place, weight).
    inputs: Vec<Vec<(u32, u32)>>,
    /// Per transition: other transitions sharing an input place.
    input_conflicts: Vec<Vec<u32>>,
    /// Per place: transitions producing into it.
    producers: Vec<Vec<u32>>,
    // Per-state scratch, reused across the whole exploration.
    enabled: Vec<u32>,
    enabled_mask: Vec<bool>,
    in_set: Vec<bool>,
    touched: Vec<u32>,
    stack: Vec<u32>,
    best: Vec<u32>,
    cand: Vec<u32>,
}

impl StubbornSets {
    /// Precompute the static dependency relation of `net`.
    pub fn new(net: &Net) -> StubbornSets {
        let nt = net.num_transitions();
        let np = net.num_places();
        let ids: Vec<TransId> = net.transitions().collect();
        let inputs: Vec<Vec<(u32, u32)>> = ids
            .iter()
            .map(|&t| {
                net.inputs(t)
                    .iter()
                    .map(|&(p, w)| (p.index() as u32, w))
                    .collect()
            })
            .collect();
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); np];
        let mut producers: Vec<Vec<u32>> = vec![Vec::new(); np];
        for (ti, &t) in ids.iter().enumerate() {
            for &(p, _) in net.inputs(t) {
                consumers[p.index()].push(ti as u32);
            }
            for &(p, _) in net.outputs(t) {
                producers[p.index()].push(ti as u32);
            }
        }
        let input_conflicts: Vec<Vec<u32>> = (0..nt)
            .map(|ti| {
                let mut deps: Vec<u32> = inputs[ti]
                    .iter()
                    .flat_map(|&(p, _)| consumers[p as usize].iter().copied())
                    .filter(|&u| u != ti as u32)
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            })
            .collect();
        StubbornSets {
            ids,
            inputs,
            input_conflicts,
            producers,
            enabled: Vec::new(),
            enabled_mask: vec![false; nt],
            in_set: vec![false; nt],
            touched: Vec::new(),
            stack: Vec::new(),
            best: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// Compute a deterministic ample set for the marking `tokens` into
    /// `out` (ascending transition order, every member enabled). Returns
    /// the number of enabled transitions, so callers can tally pruning.
    ///
    /// Every enabled transition is tried as the closure seed and the
    /// smallest resulting ample set wins (first seed on ties), stopping
    /// early at the optimum of one.
    pub fn ample_into(&mut self, tokens: &[u32], out: &mut Vec<TransId>) -> usize {
        out.clear();
        self.enabled.clear();
        for (ti, ins) in self.inputs.iter().enumerate() {
            let en = ins.iter().all(|&(p, w)| tokens[p as usize] >= w);
            self.enabled_mask[ti] = en;
            if en {
                self.enabled.push(ti as u32);
            }
        }
        let n_enabled = self.enabled.len();
        if n_enabled <= 1 {
            out.extend(self.enabled.iter().map(|&t| self.ids[t as usize]));
            return n_enabled;
        }
        let mut best_len = usize::MAX;
        for si in 0..self.enabled.len() {
            for &t in &self.touched {
                self.in_set[t as usize] = false;
            }
            self.touched.clear();
            self.stack.clear();
            self.stack.push(self.enabled[si]);
            while let Some(t) = self.stack.pop() {
                let ti = t as usize;
                if self.in_set[ti] {
                    continue;
                }
                self.in_set[ti] = true;
                self.touched.push(t);
                if self.enabled_mask[ti] {
                    for &u in &self.input_conflicts[ti] {
                        if !self.in_set[u as usize] {
                            self.stack.push(u);
                        }
                    }
                } else {
                    let p = self.inputs[ti]
                        .iter()
                        .find(|&&(p, w)| tokens[p as usize] < w)
                        .map(|&(p, _)| p)
                        .expect("a disabled transition has an insufficient input place");
                    for &u in &self.producers[p as usize] {
                        if !self.in_set[u as usize] {
                            self.stack.push(u);
                        }
                    }
                }
            }
            self.cand.clear();
            for &e in &self.enabled {
                if self.in_set[e as usize] {
                    self.cand.push(e);
                }
            }
            if self.cand.len() < best_len {
                best_len = self.cand.len();
                std::mem::swap(&mut self.best, &mut self.cand);
            }
            if best_len == 1 {
                break;
            }
        }
        out.extend(self.best.iter().map(|&t| self.ids[t as usize]));
        n_enabled
    }
}

/// Append `t`'s arc signature with places renamed by `map` to `out`: per
/// side, inputs then outputs, the arc count and then the sorted
/// `(place, weight)` pairs. `pairs` is scratch.
fn arc_signature(
    net: &Net,
    t: TransId,
    map: impl Fn(usize) -> usize,
    pairs: &mut Vec<(u32, u32)>,
    out: &mut Vec<u32>,
) {
    for arcs in [net.inputs(t), net.outputs(t)] {
        pairs.clear();
        pairs.extend(arcs.iter().map(|&(p, wt)| (map(p.index()) as u32, wt)));
        pairs.sort_unstable();
        out.push(pairs.len() as u32);
        out.extend(pairs.iter().flat_map(|&(p, wt)| [p, wt]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java_model::JavaNet;
    use crate::net::NetBuilder;

    fn marking(tokens: &[u32]) -> Marking {
        Marking(tokens.to_vec().into_boxed_slice())
    }

    #[test]
    fn java_net_lane_spec_is_an_automorphism() {
        for n in 1..=6 {
            let j = JavaNet::new(n);
            assert!(j.thread_symmetry().is_automorphism(j.net()), "n={n}");
        }
    }

    /// The check before its signatures were computed once per call: a map
    /// of sorted-arc `Vec` signatures, rebuilt for every lane swap.
    fn reference_is_automorphism(spec: &SymmetrySpec, net: &Net) -> bool {
        let (first, n, w) = (
            spec.first_place as usize,
            spec.lanes as usize,
            spec.lane_width as usize,
        );
        if n == 0 || w == 0 || spec.end_place() > net.num_places() {
            return false;
        }
        let m0 = net.initial_marking();
        let lane0 = &m0.0[first..first + w];
        if (1..n).any(|k| &m0.0[first + k * w..first + (k + 1) * w] != lane0) {
            return false;
        }
        type Sig = (Vec<(usize, u32)>, Vec<(usize, u32)>);
        let sig = |t: TransId, map: &dyn Fn(usize) -> usize| -> Sig {
            let remap = |arcs: &[(crate::net::PlaceId, u32)]| {
                let mut v: Vec<(usize, u32)> =
                    arcs.iter().map(|&(p, wt)| (map(p.index()), wt)).collect();
                v.sort_unstable();
                v
            };
            (remap(net.inputs(t)), remap(net.outputs(t)))
        };
        let mut identity: FxHashMap<Sig, i64> = FxHashMap::default();
        for t in net.transitions() {
            *identity.entry(sig(t, &|p| p)).or_insert(0) += 1;
        }
        (0..n.saturating_sub(1)).all(|g| {
            let map = |p: usize| -> usize {
                if p < first || p >= first + n * w {
                    return p;
                }
                let (lane, off) = ((p - first) / w, (p - first) % w);
                let swapped = match lane {
                    l if l == g => g + 1,
                    l if l == g + 1 => g,
                    l => l,
                };
                first + swapped * w + off
            };
            let mut counts = identity.clone();
            net.transitions().all(|t| match counts.get_mut(&sig(t, &map)) {
                Some(c) => {
                    *c -= 1;
                    true
                }
                None => false,
            }) && counts.values().all(|&c| c == 0)
        })
    }

    /// `net` rebuilt with the weight of transition `bumped`'s first input
    /// arc raised by one.
    fn with_bumped_weight(net: &Net, bumped: TransId) -> Net {
        let mut b = NetBuilder::new();
        let m0 = net.initial_marking();
        for p in net.places() {
            b.place(net.place_name(p), m0.0[p.index()]);
        }
        for t in net.transitions() {
            let mut inputs = net.inputs(t).to_vec();
            if t == bumped {
                inputs[0].1 += 1;
            }
            b.weighted_transition(net.transition_name(t), &inputs, net.outputs(t));
        }
        b.build().unwrap()
    }

    #[test]
    fn automorphism_verdicts_match_the_reference_and_see_one_perturbed_arc() {
        for n in 1..=10 {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            assert!(spec.is_automorphism(j.net()), "n={n}");
            assert!(reference_is_automorphism(&spec, j.net()), "n={n}");
            if n == 1 {
                continue; // one lane: the trivial group, whatever the arcs
            }
            // Perturb each transition of one lane in turn: the lanes are no
            // longer interchangeable.
            for t in j.net().transitions() {
                let touches_lane = |arcs: &[(crate::net::PlaceId, u32)]| {
                    arcs.iter().any(|&(p, _)| {
                        (spec.first_place as usize..spec.end_place()).contains(&p.index())
                    })
                };
                if j.net().inputs(t).is_empty() || !touches_lane(j.net().inputs(t)) {
                    continue;
                }
                let perturbed = with_bumped_weight(j.net(), t);
                assert!(!spec.is_automorphism(&perturbed), "n={n}, {t:?}");
                assert!(!reference_is_automorphism(&spec, &perturbed), "n={n}, {t:?}");
            }
        }
    }

    #[test]
    fn asymmetric_nets_are_rejected() {
        // Two 1-place "lanes" with different transition structure.
        let mut b = NetBuilder::new();
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 1);
        b.transition("t", &[p0], &[p1]);
        let net = b.build().unwrap();
        let spec = SymmetrySpec {
            first_place: 0,
            lanes: 2,
            lane_width: 1,
        };
        assert!(!spec.is_automorphism(&net));

        // Uniform structure but a non-uniform initial marking.
        let mut b = NetBuilder::new();
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        b.transition("t0", &[p0], &[p0]);
        b.transition("t1", &[p1], &[p1]);
        let net = b.build().unwrap();
        assert!(!spec.is_automorphism(&net));

        // Out of bounds.
        let wide = SymmetrySpec {
            first_place: 1,
            lanes: 2,
            lane_width: 1,
        };
        assert!(!wide.is_automorphism(&net));
    }

    #[test]
    fn canonicalization_sorts_lanes_and_is_idempotent() {
        let spec = SymmetrySpec {
            first_place: 1,
            lanes: 3,
            lane_width: 2,
        };
        // Lane contents (b,c), (d,e), (f,g) sort as sequences; the fixed
        // place before the block is untouched.
        let m = marking(&[9, 3, 4, 1, 2, 3, 4]);
        let canon = spec.canonicalize_marking(&m);
        assert_eq!(canon, marking(&[9, 1, 2, 3, 4, 3, 4]));

        // Idempotent: a fixed point on the representative itself.
        assert_eq!(spec.canonicalize_marking(&canon), canon);
    }

    #[test]
    fn canonicalization_is_orbit_invariant() {
        let spec = SymmetrySpec {
            first_place: 0,
            lanes: 3,
            lane_width: 1,
        };
        let orbit = [
            [1u32, 2, 3],
            [1, 3, 2],
            [2, 1, 3],
            [2, 3, 1],
            [3, 1, 2],
            [3, 2, 1],
        ];
        for perm in orbit {
            assert_eq!(
                spec.canonicalize_marking(&marking(&perm)),
                marking(&[1, 2, 3])
            );
        }
    }

    #[test]
    fn lane_canon_reports_changes() {
        let spec = SymmetrySpec {
            first_place: 0,
            lanes: 2,
            lane_width: 1,
        };
        let mut canon = LaneCanon::new(spec);
        let mut sorted = [1u32, 2];
        assert!(!canon.canonicalize(&mut sorted));
        let mut unsorted = [2u32, 1];
        assert!(canon.canonicalize(&mut unsorted));
        assert_eq!(unsorted, [1, 2]);
    }

    #[test]
    fn ample_set_is_enabled_nonempty_and_smaller() {
        // Two independent token rings: the ample set at the initial
        // marking should pick one ring, not both.
        let mut b = NetBuilder::new();
        let a0 = b.place("a0", 1);
        let a1 = b.place("a1", 0);
        let b0 = b.place("b0", 1);
        let b1 = b.place("b1", 0);
        b.transition("ta", &[a0], &[a1]);
        b.transition("ta'", &[a1], &[a0]);
        b.transition("tb", &[b0], &[b1]);
        b.transition("tb'", &[b1], &[b0]);
        let net = b.build().unwrap();
        let mut st = StubbornSets::new(&net);
        let mut out = Vec::new();
        let n_enabled = st.ample_into(&[1, 0, 1, 0], &mut out);
        assert_eq!(n_enabled, 2);
        assert_eq!(out.len(), 1, "independent rings must not both expand");
        for &t in &out {
            assert!(net.enabled(&marking(&[1, 0, 1, 0]), t));
        }
    }

    #[test]
    fn ample_set_keeps_conflicting_transitions_together() {
        // Two transitions competing for one token are dependent: the
        // ample set must contain both (no reduction possible).
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.transition("tq", &[p], &[q]);
        b.transition("tr", &[p], &[r]);
        let net = b.build().unwrap();
        let mut st = StubbornSets::new(&net);
        let mut out = Vec::new();
        let n_enabled = st.ample_into(&[1, 0, 0], &mut out);
        assert_eq!(n_enabled, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn ample_set_of_dead_marking_is_empty() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 0);
        let q = b.place("q", 0);
        b.transition("t", &[p], &[q]);
        let net = b.build().unwrap();
        let mut st = StubbornSets::new(&net);
        let mut out = Vec::new();
        assert_eq!(st.ample_into(&[0, 0], &mut out), 0);
        assert!(out.is_empty());
    }
}
