//! Exhaustive bounded exploration of every schedule — a small explicit-state
//! model checker over the VM.
//!
//! From each reachable VM state, every runnable thread is tried. The
//! result aggregates every distinct terminal outcome:
//!
//! * **completed** paths — all calls returned,
//! * **deadlock** paths — no thread can progress (FF-T2 / FF-T5 pictures),
//! * **fault** paths — a runtime error or IllegalMonitorState,
//! * **cycle** paths — the path revisited one of its own earlier states:
//!   the system can loop forever without any call completing (a spin with
//!   the lock held is the FF-T4 picture; a pure livelock otherwise).
//!
//! The paper's deterministic-testing premise — that a failure only shows up
//! under *some* schedules — is exactly what this module quantifies.
//!
//! How the search is built:
//!
//! * **Exact dedup.** States are interned in a collapse-compressed
//!   `StateTable` — one id per distinct global section
//!   (fields) and per distinct thread section (control state, frame,
//!   coverage marker, call results, lock roles), and the state as the
//!   vector of those ids. Every hash hit is confirmed against the words,
//!   so a collision never prunes a subtree. The thread sections include
//!   each thread's coverage context (an exact site id), so arc-coverage
//!   union over schedules is exact.
//! * **Dirty sections.** Each frame keeps its state's section ids, and a
//!   successor re-encodes and re-interns only the sections its step
//!   changed (`machine::state` says which those are).
//! * **An explicit stack.** The DFS keeps one frame per state on the
//!   current path, so a path of any depth costs heap, not call stack.
//!   `on_path` (cycle detection) is one bit per state id.
//! * **One path trace.** States carry no trace: each step's events are
//!   moved onto a single path trace, which is truncated on backtrack. Only
//!   witnesses copy it, and observers see it as a slice.
//! * **Clone only for siblings, into spare buffers.** A state's last
//!   successor takes the state itself instead of a clone, and a clone
//!   overwrites a machine the search no longer needs (a joined, cyclic or
//!   terminal successor) instead of allocating a new one.
//! * **A per-layer split.** With observation on, one transition in 64 is
//!   timed into the `vm.explore.clone_ns`, `vm.explore.step_ns` and
//!   `vm.explore.intern_ns` histograms.
//!
//! [`explore_observed`] exposes every path end to an observer; signature
//! enumeration (`jcc_testgen::signature`) and coverage-directed suite
//! search are folds over it.

use std::sync::Arc;
use std::time::Instant;

use jcc_cofg::coverage::CoverageTracker;
use jcc_obs::Histogram;
use jcc_petri::event::Event;
use jcc_petri::parallel::Parallelism;
use jcc_petri::state::StateId;

use crate::machine::state::StateTable;
use crate::machine::{RunOutcome, Verdict, Vm};
use crate::trace::apply_trace;

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum distinct states to visit.
    pub max_states: usize,
    /// Maximum scheduler decisions along one path (depth bound).
    pub max_depth: usize,
    /// Ignored: exploration is single-threaded.
    pub parallelism: Parallelism,
    /// Quotient the state space by thread symmetry: states that differ
    /// only by a permutation of threads with identical `ThreadSpec`s
    /// (via [`Vm::symmetry_groups`]) are deduplicated as one, by sorting
    /// each group's thread-section ids. Sound for the failure-class
    /// verdicts (permuting interchangeable threads is an automorphism),
    /// but path and state *counts* shrink, so leave it off when the exact
    /// census matters. Default off.
    pub symmetry: bool,
    /// Ample-set partial-order reduction: from a state where some
    /// runnable thread's next step is thread-local (commutes with every
    /// other thread's steps — see [`Vm::is_local_step`]), expand only that
    /// step instead of all runnable threads, unless doing so would close a
    /// cycle on the current path (the cycle proviso forces a full
    /// expansion there, so livelocks are never postponed forever).
    /// Preserves which failure classes exist, not path counts. Default
    /// off.
    pub ample: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 200_000,
            max_depth: 2_000,
            parallelism: Parallelism::default(),
            symmetry: false,
            ample: false,
        }
    }
}

/// How an observed path ended (see [`explore_observed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEnd<'a> {
    /// The state is terminal: every call returned, or no thread can run.
    Terminal(&'a Verdict),
    /// The last step closed a cycle on the path: it can repeat forever.
    Cycle,
    /// The last step reached a state first explored on another path; its
    /// continuations are observed from there.
    Join,
}

/// Aggregated result of exploring all schedules.
#[derive(Debug)]
pub struct ExploreResult {
    /// Distinct states visited.
    pub states: usize,
    /// Scheduler transitions taken.
    pub transitions: usize,
    /// Terminal paths that completed normally.
    pub completed_paths: usize,
    /// Terminal paths ending in deadlock.
    pub deadlock_paths: usize,
    /// A witness run for the first deadlock found, if any.
    pub deadlock_witness: Option<RunOutcome>,
    /// Terminal paths ending in a fault.
    pub fault_paths: usize,
    /// A witness run for the first fault found, if any.
    pub fault_witness: Option<RunOutcome>,
    /// Paths that revisited one of their own earlier states (potential
    /// livelock / busy-wait loop).
    pub cycle_paths: usize,
    /// A cycle is *inescapable* when, in the revisited state, only the
    /// cycling threads are runnable — no other thread can break the loop
    /// (the SkipWait / HoldLockForever mutant picture).
    pub inescapable_cycles: usize,
    /// A witness for the first cycle found, if any.
    pub cycle_witness: Option<RunOutcome>,
    /// Paths cut off by the depth bound.
    pub depth_limited_paths: usize,
    /// True when the state or depth limits truncated the exploration.
    pub truncated: bool,
    /// Successor branches skipped by the ample-set reduction (runnable
    /// threads not expanded because a commuting local step stood in for
    /// them). Zero when [`ExploreConfig::ample`] is off. Excluded from
    /// [`tally`](Self::tally): it describes the search, not the verdict.
    pub ample_pruned: usize,
    /// States where the ample candidate would have closed a cycle on the
    /// current path and the cycle proviso forced a full expansion.
    pub full_expansions: usize,
}

impl ExploreResult {
    /// True when at least one schedule deadlocks, faults or can loop
    /// forever.
    pub fn found_failure(&self) -> bool {
        self.deadlock_paths > 0 || self.fault_paths > 0 || self.cycle_paths > 0
    }

    /// The preferred failure witness of an exhaustive exploration, in the
    /// stable severity order deadlock → fault → cycle. Deterministic for a
    /// given component and config (the DFS order fixes each witness), so
    /// its rendered timeline is too. `None` when no schedule fails.
    pub fn first_witness(&self) -> Option<&RunOutcome> {
        self.deadlock_witness
            .as_ref()
            .or(self.fault_witness.as_ref())
            .or(self.cycle_witness.as_ref())
    }

    /// The numeric outcome of the exploration, witnesses excluded — what
    /// the determinism and equivalence suites compare across runs.
    #[allow(clippy::type_complexity)]
    pub fn tally(&self) -> (usize, usize, usize, usize, usize, usize, usize, usize, bool) {
        (
            self.states,
            self.transitions,
            self.completed_paths,
            self.deadlock_paths,
            self.fault_paths,
            self.cycle_paths,
            self.inescapable_cycles,
            self.depth_limited_paths,
            self.truncated,
        )
    }
}

/// Explore every schedule of `vm` (consumed as the initial state). When
/// `coverage` is provided, the union of CoFG coverage over all explored
/// paths is accumulated into it.
pub fn explore(
    vm: Vm,
    config: &ExploreConfig,
    coverage: Option<&mut CoverageTracker>,
) -> ExploreResult {
    match coverage {
        Some(tracker) => explore_observed(vm, config, |_, trace, _| {
            tracker.reset_threads();
            apply_trace(trace, tracker);
        }),
        None => explore_observed(vm, config, |_, _, _| {}),
    }
}

/// Like [`explore`], but calls `observer` at the end of every maximal path
/// prefix — terminal states, cycle closures and first revisits of shared
/// states, told apart by [`PathEnd`] — with the VM there and the path's
/// event trace from the initial state. These are the points where a
/// path's trace is complete enough to measure path properties such as
/// coverage, waiter profiles or behavioural signatures.
pub fn explore_observed(
    vm: Vm,
    config: &ExploreConfig,
    observer: impl FnMut(&Vm, &[Event], PathEnd<'_>),
) -> ExploreResult {
    let _span = jcc_obs::span!("vm.explore");
    // Live progress is publish-only (a mailbox watcher threads read).
    if jcc_obs::progress_enabled() {
        jcc_obs::explore_progress().begin(config.max_states as u64);
    }
    let mut table = StateTable::new(&vm, config.symmetry);
    let mut next_ids = Vec::new();
    let (root, _) = table.intern_all(&vm, &mut next_ids);
    let mut dfs = Dfs {
        config,
        table,
        on_path: Vec::new(),
        trace: Vec::new(),
        stack: Vec::new(),
        succ: Vec::new(),
        width: next_ids.len(),
        ids: Vec::new(),
        next_ids,
        spare: Vec::new(),
        pending: None,
        timers: jcc_obs::enabled().then(LayerTimers::new),
        observer,
        result: ExploreResult {
            states: 1,
            transitions: 0,
            completed_paths: 0,
            deadlock_paths: 0,
            deadlock_witness: None,
            fault_paths: 0,
            fault_witness: None,
            cycle_paths: 0,
            inescapable_cycles: 0,
            cycle_witness: None,
            depth_limited_paths: 0,
            truncated: false,
            ample_pruned: 0,
            full_expansions: 0,
        },
    };
    dfs.run(vm, root);
    let result = dfs.result;
    if jcc_obs::enabled() {
        flush_explore_stats(&result);
    }
    if jcc_obs::progress_enabled() {
        jcc_obs::explore_progress().finish(result.states as u64);
    }
    result
}

/// Publish one exploration's census into the global obs registry. Counters
/// accumulate across explorations (the mutation matrix runs hundreds), so
/// totals are sums over every `explore` call since the last registry reset.
/// All values come from the finished deterministic result — observation
/// never feeds back into the search.
fn flush_explore_stats(result: &ExploreResult) {
    let reg = jcc_obs::global();
    reg.counter("vm.explore.runs").inc();
    reg.counter("vm.explore.states").add(result.states as u64);
    reg.counter("vm.explore.transitions")
        .add(result.transitions as u64);
    reg.counter("vm.explore.completed_paths")
        .add(result.completed_paths as u64);
    reg.counter("vm.explore.deadlock_paths")
        .add(result.deadlock_paths as u64);
    reg.counter("vm.explore.fault_paths")
        .add(result.fault_paths as u64);
    reg.counter("vm.explore.cycle_paths")
        .add(result.cycle_paths as u64);
    reg.counter("vm.explore.inescapable_cycles")
        .add(result.inescapable_cycles as u64);
    reg.counter("vm.explore.depth_limited_paths")
        .add(result.depth_limited_paths as u64);
    if result.truncated {
        reg.counter("vm.explore.truncated").inc();
    }
    if result.ample_pruned > 0 {
        reg.counter("vm.explore.ample_pruned")
            .add(result.ample_pruned as u64);
    }
    if result.full_expansions > 0 {
        reg.counter("vm.explore.full_expansions")
            .add(result.full_expansions as u64);
    }
}

/// One transition in this many is timed by [`LayerTimers`].
const SAMPLE_EVERY: usize = 64;

/// The per-layer split of exploration time, published as the
/// `vm.explore.clone_ns`, `vm.explore.step_ns` and `vm.explore.intern_ns`
/// histograms: copying the parent state, executing the step, and
/// encoding and interning the successor. Only present when observation
/// is on, and only one transition in [`SAMPLE_EVERY`] is timed.
struct LayerTimers {
    clone: Arc<Histogram>,
    step: Arc<Histogram>,
    intern: Arc<Histogram>,
}

impl LayerTimers {
    fn new() -> LayerTimers {
        let reg = jcc_obs::global();
        LayerTimers {
            clone: reg.histogram("vm.explore.clone_ns"),
            step: reg.histogram("vm.explore.step_ns"),
            intern: reg.histogram("vm.explore.intern_ns"),
        }
    }

    /// Record one sampled transition from the instants before cloning,
    /// before stepping, before interning and after interning.
    fn record(&self, [start, cloned, stepped, interned]: [Instant; 4]) {
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        self.clone.record(ns(start, cloned));
        self.step.record(ns(cloned, stepped));
        self.intern.record(ns(stepped, interned));
    }
}

/// Most machines [`Dfs::spare`] keeps for reuse.
const SPARE_LIMIT: usize = 16;

/// One state on the current DFS path.
struct Frame {
    /// The state, kept until its last successor takes it.
    vm: Option<Vm>,
    id: StateId,
    /// Length of the path trace at this state.
    trace_len: usize,
    /// This state's successor threads are `succ[next..end]`.
    next: usize,
    end: usize,
}

/// A stepped successor with its interned id and whether the id is new.
/// Its section ids are in [`Dfs::next_ids`].
type Successor = (Vm, StateId, bool);

/// The explicit-stack DFS and everything it threads through the search.
struct Dfs<'c, O> {
    config: &'c ExploreConfig,
    table: StateTable,
    /// One bit per state id: is the state on the current path?
    on_path: Vec<u64>,
    /// The event trace from the initial state to the state being visited.
    trace: Vec<Event>,
    stack: Vec<Frame>,
    /// The frames' successor thread lists, stacked like the frames.
    succ: Vec<usize>,
    /// Section ids per state: the global section's and one per thread.
    width: usize,
    /// The frames' section ids (before any symmetry sort), `width` per
    /// frame, stacked like the frames.
    ids: Vec<u32>,
    /// The section ids of the successor being visited.
    next_ids: Vec<u32>,
    /// Machines no longer needed, kept so a clone can reuse their buffers.
    spare: Vec<Vm>,
    /// The top frame's ample successor, stepped while choosing it.
    pending: Option<Successor>,
    timers: Option<LayerTimers>,
    observer: O,
    result: ExploreResult,
}

impl<O: FnMut(&Vm, &[Event], PathEnd<'_>)> Dfs<'_, O> {
    /// Search from `root` (already interned as `id`, its section ids in
    /// `next_ids`).
    fn run(&mut self, root: Vm, id: StateId) {
        self.enter(root, id);
        while let Some(top) = self.stack.last_mut() {
            self.trace.truncate(top.trace_len);
            let next = match self.pending.take() {
                Some(successor) => successor,
                None if top.next < top.end => {
                    let t = self.succ[top.next];
                    top.next += 1;
                    let last = top.next == top.end;
                    self.successor(t, last)
                }
                None => {
                    let done = self.stack.pop().expect("non-empty stack");
                    self.set_on_path(done.id, false);
                    self.succ.truncate(self.stack.last().map_or(0, |f| f.end));
                    self.ids.truncate(self.stack.len() * self.width);
                    continue;
                }
            };
            self.visit(next);
        }
    }

    /// Step the top frame's state by thread `t` — the state itself when
    /// `take`, else a copy — and intern the result, re-encoding only the
    /// sections the step changed.
    fn successor(&mut self, t: usize, take: bool) -> Successor {
        let sampled = self.timers.is_some() && self.result.transitions.is_multiple_of(SAMPLE_EVERY);
        let start = sampled.then(Instant::now);
        let top = self.stack.last_mut().expect("a frame to expand");
        let mut vm = if take {
            top.vm.take().expect("state kept until its last successor")
        } else {
            let parent = top
                .vm
                .as_ref()
                .expect("state kept until its last successor");
            match self.spare.pop() {
                Some(mut spare) => {
                    spare.clone_from(parent);
                    spare
                }
                None => parent.clone(),
            }
        };
        let cloned = sampled.then(Instant::now);
        vm.step(t);
        let stepped = sampled.then(Instant::now);
        let base = (self.stack.len() - 1) * self.width;
        self.next_ids.clear();
        self.next_ids
            .extend_from_slice(&self.ids[base..base + self.width]);
        let (id, fresh) = self.table.intern_step(&vm, &mut self.next_ids);
        if let (Some(timers), Some(start), Some(cloned), Some(stepped)) =
            (&self.timers, start, cloned, stepped)
        {
            timers.record([start, cloned, stepped, Instant::now()]);
        }
        (vm, id, fresh)
    }

    /// Keep `vm`'s buffers for a later clone.
    fn recycle(&mut self, vm: Vm) {
        if self.spare.len() < SPARE_LIMIT {
            self.spare.push(vm);
        }
    }

    /// Process one successor of the top frame: count the transition,
    /// classify cycle / already-seen / fresh, and enter fresh states.
    fn visit(&mut self, (mut next, id, fresh): Successor) {
        next.drain_trace_into(&mut self.trace);
        self.result.transitions += 1;
        if self.is_on_path(id) {
            // The path closed a loop on itself: it can repeat forever.
            self.result.cycle_paths += 1;
            if next.runnable().len() == 1 {
                self.result.inescapable_cycles += 1;
            }
            (self.observer)(&next, &self.trace, PathEnd::Cycle);
            if self.result.cycle_witness.is_none() {
                self.result.cycle_witness =
                    Some(next.outcome_with_trace(Verdict::StepLimit, self.trace.clone()));
            }
            self.recycle(next);
            return;
        }
        if !fresh {
            // Reached a state first visited on another path: its subtree is
            // observed from there; report this path's prefix only.
            (self.observer)(&next, &self.trace, PathEnd::Join);
            self.recycle(next);
            return;
        }
        if self.result.states >= self.config.max_states {
            self.result.truncated = true;
            self.recycle(next);
            return;
        }
        self.result.states += 1;
        if self.result.states & 1023 == 0 && jcc_obs::progress_enabled() {
            // The DFS has no frontier width; publish the explicit stack's
            // depth (the current schedule prefix length) as the frontier.
            jcc_obs::explore_progress().publish(
                self.result.states as u64,
                self.stack.len() as u64,
                (self.stack.len() - 1) as u64,
            );
        }
        self.enter(next, id);
    }

    /// Arrive at a newly counted state at depth `self.stack.len()` (its
    /// section ids in `next_ids`): record a terminal verdict or the depth
    /// bound, or push a frame with the successors to expand.
    fn enter(&mut self, vm: Vm, id: StateId) {
        if let Some(verdict) = vm.current_verdict() {
            (self.observer)(&vm, &self.trace, PathEnd::Terminal(&verdict));
            let r = &mut self.result;
            let slot = match &verdict {
                Verdict::Completed => {
                    r.completed_paths += 1;
                    self.recycle(vm);
                    return;
                }
                Verdict::Faulted { .. } => {
                    r.fault_paths += 1;
                    &mut r.fault_witness
                }
                Verdict::Deadlock { .. } => {
                    r.deadlock_paths += 1;
                    &mut r.deadlock_witness
                }
                Verdict::StepLimit => unreachable!("explorer does not use step budgets"),
            };
            if slot.is_none() {
                *slot = Some(vm.outcome_with_trace(verdict, self.trace.clone()));
            }
            self.recycle(vm);
            return;
        }
        if self.stack.len() >= self.config.max_depth {
            self.result.depth_limited_paths += 1;
            self.result.truncated = true;
            self.recycle(vm);
            return;
        }
        self.set_on_path(id, true);
        let start = self.succ.len();
        self.succ
            .extend((0..vm.thread_count()).filter(|&i| vm.is_runnable(i)));
        let runnable = self.succ.len() - start;
        // Ample-set reduction: when some runnable thread's next step is
        // thread-local, that step commutes with every other thread's
        // steps, so expanding it *alone* reaches the same failure classes
        // as the full expansion — unless the step closes a cycle on the
        // current path, where postponing the other threads forever could
        // hide them behind a local loop (the cycle proviso).
        let ample = (self.config.ample && runnable > 1)
            .then(|| {
                self.succ[start..]
                    .iter()
                    .copied()
                    .find(|&i| vm.is_local_step(i))
            })
            .flatten();
        self.ids.extend_from_slice(&self.next_ids);
        self.stack.push(Frame {
            vm: Some(vm),
            id,
            trace_len: self.trace.len(),
            next: start,
            end: self.succ.len(),
        });
        if let Some(cand) = ample {
            let (next, next_id, fresh) = self.successor(cand, false);
            if self.is_on_path(next_id) {
                self.result.full_expansions += 1;
                self.recycle(next);
            } else {
                // The ample successor stands in for every other one.
                self.result.ample_pruned += runnable - 1;
                self.succ.truncate(start);
                let top = self.stack.last_mut().expect("frame just pushed");
                top.end = start;
                let parent = top.vm.take().expect("frame just pushed");
                self.recycle(parent);
                self.pending = Some((next, next_id, fresh));
            }
        }
    }

    fn is_on_path(&self, id: StateId) -> bool {
        self.on_path
            .get(id.index() / 64)
            .is_some_and(|w| w & (1 << (id.index() % 64)) != 0)
    }

    fn set_on_path(&mut self, id: StateId, on: bool) {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.on_path.len() {
            self.on_path.resize(word + 1, 0);
        }
        if on {
            self.on_path[word] |= bit;
        } else {
            self.on_path[word] &= !bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, ThreadSpec};
    use crate::value::Value;
    use jcc_cofg::build_component_cofgs;
    use jcc_model::examples;

    fn pc_threads() -> Vec<ThreadSpec> {
        vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            },
        ]
    }

    /// The FF-T3 mutant whose `receive` skips its wait.
    fn skip_wait_mutant() -> jcc_model::ast::Component {
        let c = examples::producer_consumer();
        let m = jcc_model::mutate::enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == jcc_model::mutate::MutationKind::SkipWait && m.method == "receive")
            .unwrap();
        jcc_model::mutate::apply_mutation(&c, &m).unwrap()
    }

    #[test]
    fn producer_consumer_never_fails() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_threads());
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(!r.found_failure(), "{r:?}");
        assert!(r.completed_paths > 0);
        assert!(!r.truncated);
        assert!(r.states > 10);
    }

    #[test]
    fn lock_order_deadlock_found_by_exploration() {
        let c = examples::lock_order_deadlock();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "f".into(),
                    calls: vec![CallSpec::new("forward", vec![])],
                },
                ThreadSpec {
                    name: "b".into(),
                    calls: vec![CallSpec::new("backward", vec![])],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.deadlock_paths > 0);
        assert!(r.completed_paths > 0, "some schedules do complete");
        let witness = r.deadlock_witness.as_ref().unwrap();
        assert!(matches!(witness.verdict, Verdict::Deadlock { .. }));
    }

    #[test]
    fn skip_wait_mutant_spins_inescapably() {
        // The FF-T3 mutant turns receive's wait into `skip`: the consumer
        // busy-waits while *holding the monitor*, so the producer can never
        // enter — an inescapable cycle (the runtime picture of FF-T4 for
        // every other thread: FF-T2).
        let vm = Vm::new(compile(&skip_wait_mutant()).unwrap(), pc_threads());
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.cycle_paths > 0, "{r:?}");
        assert!(r.inescapable_cycles > 0, "{r:?}");
        assert!(r.found_failure());
    }

    #[test]
    fn drop_notify_mutant_deadlocks_somewhere() {
        let c = examples::producer_consumer();
        let m = jcc_model::mutate::enumerate_mutations(&c)
            .into_iter()
            .find(|m| {
                m.kind == jcc_model::mutate::MutationKind::DropNotify && m.method == "send"
            })
            .unwrap();
        let mutant = jcc_model::mutate::apply_mutation(&c, &m).unwrap();
        let vm = Vm::new(compile(&mutant).unwrap(), pc_threads());
        let r = explore(vm, &ExploreConfig::default(), None);
        // Consumer-first schedules: consumer waits, send never notifies.
        assert!(r.deadlock_paths > 0, "{r:?}");
    }

    #[test]
    fn coverage_union_over_all_schedules() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_threads());
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        let _ = explore(vm, &ExploreConfig::default(), Some(&mut tracker));
        // With one receive and one send of "a": receive can cover
        // start->wait, start->notifyAll, wait->notifyAll, notifyAll->end;
        // send can cover start->notifyAll, notifyAll->end. wait->wait needs
        // a second wakeup and send's wait arcs need a pre-filled buffer:
        // exactly 6 coverable arcs.
        assert_eq!(
            tracker.covered_arcs(),
            6,
            "uncovered: {:?}",
            tracker.uncovered()
        );
    }

    #[test]
    fn state_limit_truncates() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_threads());
        let r = explore(
            vm,
            &ExploreConfig {
                max_states: 5,
                max_depth: 2_000,
                ..ExploreConfig::default()
            },
            None,
        );
        assert!(r.truncated);
        assert!(r.states <= 5);
    }

    #[test]
    fn depth_limit_counts_paths() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_threads());
        let r = explore(
            vm,
            &ExploreConfig {
                max_states: 200_000,
                max_depth: 3,
                ..ExploreConfig::default()
            },
            None,
        );
        assert!(r.truncated);
        assert!(r.depth_limited_paths > 0);
    }

    /// The failure-class existence booleans a sound reduction must
    /// preserve (counts are allowed to differ).
    fn classes(r: &ExploreResult) -> (bool, bool, bool, bool, bool) {
        (
            r.completed_paths > 0,
            r.deadlock_paths > 0,
            r.fault_paths > 0,
            r.cycle_paths > 0,
            r.inescapable_cycles > 0,
        )
    }

    #[test]
    fn symmetry_quotient_preserves_classes_and_shrinks_states() {
        // Two *identical* consumers (same name, same calls) are
        // interchangeable; the producer sends twice so both receives can
        // complete.
        let c = examples::producer_consumer();
        let make_vm = |symmetric: bool| {
            Vm::new(
                compile(&c).unwrap(),
                vec![
                    ThreadSpec {
                        name: "c".into(),
                        calls: vec![CallSpec::new("receive", vec![])],
                    },
                    ThreadSpec {
                        name: if symmetric { "c" } else { "c2" }.into(),
                        calls: vec![CallSpec::new("receive", vec![])],
                    },
                    ThreadSpec {
                        name: "p".into(),
                        calls: vec![
                            CallSpec::new("send", vec![Value::Str("a".into())]),
                            CallSpec::new("send", vec![Value::Str("a".into())]),
                        ],
                    },
                ],
            )
        };
        let full = explore(make_vm(true), &ExploreConfig::default(), None);
        let reduced = explore(
            make_vm(true),
            &ExploreConfig {
                symmetry: true,
                ..ExploreConfig::default()
            },
            None,
        );
        assert!(!full.truncated && !reduced.truncated);
        assert_eq!(classes(&full), classes(&reduced));
        assert!(
            reduced.states < full.states,
            "quotient must shrink: {} vs {}",
            reduced.states,
            full.states
        );
        // Distinct names ⇒ no symmetry group ⇒ the knob is a no-op.
        let asym = explore(
            make_vm(false),
            &ExploreConfig {
                symmetry: true,
                ..ExploreConfig::default()
            },
            None,
        );
        assert_eq!(asym.tally(), full.tally());
    }

    #[test]
    fn ample_reduction_preserves_deadlock_and_completion() {
        let c = examples::lock_order_deadlock();
        let make_vm = || {
            Vm::new(
                compile(&c).unwrap(),
                vec![
                    ThreadSpec {
                        name: "f".into(),
                        calls: vec![CallSpec::new("forward", vec![])],
                    },
                    ThreadSpec {
                        name: "b".into(),
                        calls: vec![CallSpec::new("backward", vec![])],
                    },
                ],
            )
        };
        let full = explore(make_vm(), &ExploreConfig::default(), None);
        let reduced = explore(
            make_vm(),
            &ExploreConfig {
                ample: true,
                ..ExploreConfig::default()
            },
            None,
        );
        assert_eq!(classes(&full), classes(&reduced));
        assert!(reduced.deadlock_paths > 0);
        assert!(reduced.ample_pruned > 0, "{reduced:?}");
        assert!(reduced.states <= full.states);
    }

    #[test]
    fn ample_cycle_proviso_keeps_livelocks_detectable() {
        // SkipWait turns receive's wait into a busy loop holding the
        // monitor: without the cycle proviso, the looping thread's local
        // jumps could be the ample pick forever and the cycle verdicts
        // could be distorted. Class booleans must match the full search.
        let mutant = skip_wait_mutant();
        let full = explore(
            Vm::new(compile(&mutant).unwrap(), pc_threads()),
            &ExploreConfig::default(),
            None,
        );
        let reduced = explore(
            Vm::new(compile(&mutant).unwrap(), pc_threads()),
            &ExploreConfig {
                ample: true,
                symmetry: true,
                ..ExploreConfig::default()
            },
            None,
        );
        assert_eq!(classes(&full), classes(&reduced));
        assert!(reduced.cycle_paths > 0 && reduced.inescapable_cycles > 0);
    }

    /// The producer-consumer scenario with two interchangeable consumers.
    fn symmetric_pc_threads() -> Vec<ThreadSpec> {
        let receive = ThreadSpec {
            name: "c".into(),
            calls: vec![CallSpec::new("receive", vec![])],
        };
        vec![
            receive.clone(),
            receive,
            ThreadSpec {
                name: "p".into(),
                calls: vec![
                    CallSpec::new("send", vec![Value::Str("a".into())]),
                    CallSpec::new("send", vec![Value::Str("a".into())]),
                ],
            },
        ]
    }

    /// Everything an exploration reports, witnesses included.
    fn census(r: &ExploreResult) -> String {
        format!(
            "{:?} {} {} {:?} {:?} {:?}",
            r.tally(),
            r.ample_pruned,
            r.full_expansions,
            r.deadlock_witness,
            r.fault_witness,
            r.cycle_witness
        )
    }

    #[test]
    fn dedup_stays_exact_under_a_truncated_hash() {
        let pc = examples::producer_consumer();
        let lock_order = examples::lock_order_deadlock();
        let skip_wait = skip_wait_mutant();
        let lock_threads = vec![
            ThreadSpec {
                name: "f".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            },
            ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("backward", vec![])],
            },
        ];
        let plain = ExploreConfig::default();
        let reduced = ExploreConfig {
            ample: true,
            symmetry: true,
            ..ExploreConfig::default()
        };
        let cases = [
            ("producer-consumer", &pc, pc_threads(), &plain),
            ("lock-order deadlock", &lock_order, lock_threads, &plain),
            ("SkipWait mutant", &skip_wait, pc_threads(), &plain),
            ("symmetric 3-thread", &pc, symmetric_pc_threads(), &plain),
            ("symmetric reduced", &pc, symmetric_pc_threads(), &reduced),
        ];
        for (label, component, threads, config) in cases {
            let make = || Vm::new(compile(component).unwrap(), threads.clone());
            let full = explore(make(), config, None);
            // Three hash bits: eight buckets for hundreds of sections and
            // states, so nearly every lookup walks a collision chain.
            crate::machine::state::force_collisions(3);
            let weak = explore(make(), config, None);
            crate::machine::state::force_collisions(64);
            assert!(full.states > 8, "{label}: too small to collide");
            assert_eq!(census(&weak), census(&full), "{label}");
        }
    }

    #[test]
    fn a_deep_single_path_needs_no_deep_stack() {
        // One thread counting a field up: every state is new and has one
        // successor, so the only path is as long as the state space.
        let src = "class Counter { int n = 0; \
                   void count() { while (n < 40000) { n = n + 1; } } }";
        let c = jcc_model::parse_component(src).unwrap();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "t".into(),
                calls: vec![CallSpec::new("count", vec![])],
            }],
        );
        let config = ExploreConfig {
            max_states: 1_000_000,
            max_depth: 1_000_000,
            ..ExploreConfig::default()
        };
        let r = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || explore(vm, &config, None))
            .unwrap()
            .join()
            .expect("exploration returns on a 256 KiB stack");
        assert!(r.states > 100_000, "{r:?}");
        assert_eq!(r.completed_paths, 1);
        assert_eq!(r.transitions + 1, r.states);
        assert!(!r.truncated);
    }

    /// The E11 ladder's scenario at `size`: the generated component with
    /// its deadlock-free call plan, one thread per session.
    fn e11_scenario(size: usize) -> (jcc_model::ast::Component, Vec<ThreadSpec>) {
        let cfg = jcc_components::gen::GenConfig::sized(size, 2024);
        let threads = jcc_components::gen::call_plan(&cfg)
            .into_iter()
            .enumerate()
            .map(|(i, calls)| ThreadSpec {
                name: format!("t{i}"),
                calls: calls
                    .into_iter()
                    .map(|m| CallSpec::new(m, vec![]))
                    .collect(),
            })
            .collect();
        (jcc_components::gen::generate(&cfg), threads)
    }

    #[test]
    fn incremental_interning_matches_full_encoding() {
        // In debug builds every successor's incremental intern is checked
        // against a full re-encoding (`StateTable::assert_sections`); this
        // runs that guard over wait sets, notifies, symmetric threads and
        // forced hash collisions, and pins the E11 census.
        let pc = examples::producer_consumer();
        let lock_order = examples::lock_order_deadlock();
        let lock_threads = vec![
            ThreadSpec {
                name: "f".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            },
            ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("backward", vec![])],
            },
        ];
        let (e11_1, e11_1_threads) = e11_scenario(1);
        let (e11_2, e11_2_threads) = e11_scenario(2);
        let cases = [
            ("producer-consumer", &pc, pc_threads(), None),
            (
                "symmetric producer-consumer",
                &pc,
                symmetric_pc_threads(),
                None,
            ),
            ("lock-order deadlock", &lock_order, lock_threads, None),
            ("E11 size 1", &e11_1, e11_1_threads, Some(339)),
            ("E11 size 2", &e11_2, e11_2_threads, Some(12_032)),
        ];
        for (label, component, threads, e11_states) in cases {
            let make = || Vm::new(compile(component).unwrap(), threads.clone());
            let plain = explore(make(), &ExploreConfig::default(), None);
            if let Some(states) = e11_states {
                assert_eq!(plain.states, states, "{label}");
            }
            let symmetric = ExploreConfig {
                symmetry: true,
                ..ExploreConfig::default()
            };
            let quotient = explore(make(), &symmetric, None);
            assert!(quotient.states <= plain.states, "{label}");
            for config in [ExploreConfig::default(), symmetric] {
                let full = explore(make(), &config, None);
                crate::machine::state::force_collisions(4);
                let weak = explore(make(), &config, None);
                crate::machine::state::force_collisions(64);
                assert_eq!(census(&weak), census(&full), "{label}");
            }
        }
    }
}
