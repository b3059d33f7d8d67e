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
//! * **Events only for observers that read them.** States carry no trace.
//!   When the observer reads events, each step's events are moved onto a
//!   single path trace, which is truncated on backtrack; the observer sees
//!   them once, on the DFS edge, and a witness copies the trace. When it
//!   reads none ([`PathObserver::READS_EVENTS`], as for [`explore`] with no
//!   tracker), the machine builds no event at all, and each witness is
//!   rebuilt by replaying its path (the threads of the undo log's steps)
//!   on a copy of the initial machine, as a model checker rebuilds an
//!   error trace from its search path.
//! * **One machine, stepped and undone.** The search never copies a
//!   state. Each successor is stepped in place through
//!   `Vm::step_logged`, which first saves the step's footprint on an undo
//!   log (`machine::undo` says what that is). A joined, cyclic, truncated
//!   or terminal successor is undone at once; a pushed frame keeps its
//!   undo mark and is undone when it pops.
//! * **Memoized lock-free steps.** Figure 1's transitions fire only at
//!   lock operations. Any other step (a call start, a local or field
//!   store, a branch, a return) reads only its thread's section and the
//!   global one, and unless it faults changes nothing else, so one
//!   exploration memoizes `[thread, its section id, global section id]`
//!   before such a step to the two ids after it, from steps that did not
//!   fault. On a memo hit the successor's section ids are known before the
//!   machine moves, and nothing is encoded or interned but the state
//!   vector. When the observer also reads no events, the state store is
//!   probed first, and a hit on a state off the current path is settled
//!   as a join without stepping, encoding or undoing anything (in debug
//!   builds the step is re-taken and checked to land there). Cycles, new
//!   states and event-reading observers still step the machine.
//! * **A per-layer split.** With observation on, one stepped transition in
//!   64 is timed into the `vm.explore.step_ns`, `vm.explore.encode_ns` and
//!   `vm.explore.dedup_ns` histograms, and one undo in 64 into
//!   `vm.explore.undo_ns`; a join settled without a step is in neither.
//!
//! [`explore_observed`] drives a [`PathObserver`] along the DFS: one call
//! per transition on the way down, one per backtrack on the way up, and
//! one per observed path end (a join shows no machine, since it may not
//! have been stepped into). Arc coverage ([`explore`]'s tracker),
//! signature enumeration (`jcc_testgen::signature`) and coverage-directed
//! suite search are folds over it.

use std::sync::Arc;
use std::time::Instant;

use fxhash::FxHashMap;
use jcc_cofg::coverage::CoverageTracker;
use jcc_obs::Histogram;
use jcc_petri::event::Event;
use jcc_petri::parallel::Parallelism;
use jcc_petri::state::StateId;

use crate::machine::state::StateTable;
use crate::machine::{Recording, RunOutcome, UndoLog, Verdict, Vm};

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
    /// Lock-free transitions whose successor sections the search already
    /// knew from an earlier step of the same thread from the same thread
    /// and field sections, so it encoded and interned no section for
    /// them. Like the two counts above, it describes the search, not the
    /// verdict, and stays out of [`tally`](Self::tally).
    pub memo_hits: usize,
    /// Memo hits into a stored state off the current path that the search
    /// settled as joins without stepping the machine at all (only when the
    /// observer reads no events). Excluded from [`tally`](Self::tally).
    pub stepless_joins: usize,
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

/// A fold over the explorer's DFS, the shape of a model checker's search
/// listener: it sees each transition's events once, on the DFS edge, is
/// told when the search backs out of a transition, and is told where paths
/// end. Every method defaults to doing nothing.
///
/// An observer whose type declares [`READS_EVENTS`](Self::READS_EVENTS)
/// false is shown no events: `step` gets an empty slice, and the search
/// builds none (its witnesses are rebuilt by replaying their paths).
///
/// Only Terminal, Cycle and Join ends are observed; a path cut by the depth
/// bound or by `max_states` is not. So a fold that counts what paths see
/// keeps each step's effects pending and credits them on backtrack, once
/// per observed end reached while the step was on the path — `ends`. That
/// is what a replay of each observed path's whole trace would count, at
/// amortised O(1) per transition.
///
/// A join ([`join`](Self::join)) shows no machine: an event-free search
/// settles a join it can predict without stepping into it, so the machine
/// may still be at the step's parent.
pub trait PathObserver {
    /// Does [`step`](Self::step) read its events? An observer that only
    /// counts steps or reads [`path_end`](Self::path_end)'s machine
    /// declares `false`, and the search runs without building events.
    const READS_EVENTS: bool = true;

    /// The search took a transition that emitted `events` (possibly
    /// none); the current path is one step longer.
    fn step(&mut self, events: &[Event]) {
        let _ = events;
    }

    /// The search backed out of the most recent step not yet backed out
    /// of. `ends` path ends were observed while that step was on the path.
    fn backtrack(&mut self, ends: u64) {
        let _ = ends;
    }

    /// The current path ends at `vm`, as `end` says.
    fn path_end(&mut self, vm: &Vm, end: PathEnd<'_>) {
        let _ = (vm, end);
    }

    /// The last step reached a state first explored on another path, which
    /// ends the current path: its continuations are observed from there.
    fn join(&mut self) {}
}

/// Arc coverage is the union over observed paths: each step's arcs and
/// strays are credited once per observed end, as a whole-trace replay
/// with fresh thread cursors at every end would.
impl PathObserver for CoverageTracker {
    fn step(&mut self, events: &[Event]) {
        self.advance(events);
    }

    fn backtrack(&mut self, ends: u64) {
        self.retreat(ends);
    }
}

/// The observer of an unobserved exploration; its hooks inline away.
struct Unobserved;

impl PathObserver for Unobserved {
    const READS_EVENTS: bool = false;
}

/// Explore every schedule of `vm` (consumed as the initial state). When
/// `coverage` is provided, the union of CoFG coverage over all observed
/// paths is accumulated into it.
pub fn explore(
    vm: Vm,
    config: &ExploreConfig,
    coverage: Option<&mut CoverageTracker>,
) -> ExploreResult {
    match coverage {
        Some(tracker) => explore_observed(vm, config, tracker),
        None => explore_observed(vm, config, &mut Unobserved),
    }
}

/// Like [`explore`], but drives `observer` along the search (see
/// [`PathObserver`]): each transition's events as the DFS takes it (if it
/// reads them), each backtrack, and the end of every maximal path prefix:
/// terminal states and cycle closures with the VM there, told apart by
/// [`PathEnd`], and revisits of states first explored on other paths
/// (joins). Folds over these measure path properties such as coverage,
/// waiter profiles or behavioural signatures without replaying a path's
/// trace at its end.
pub fn explore_observed<O: PathObserver>(
    vm: Vm,
    config: &ExploreConfig,
    observer: &mut O,
) -> ExploreResult {
    let _span = jcc_obs::span!("vm.explore");
    // Live progress is publish-only (a mailbox watcher threads read).
    if jcc_obs::progress_enabled() {
        jcc_obs::explore_progress().begin(config.max_states as u64);
    }
    let mut table = StateTable::new(&vm, config.symmetry);
    let mut next_ids = Vec::new();
    let (root, _) = table.intern_all(&vm, &mut next_ids);
    let mut vm = vm;
    // A clone records events, whatever the machine it copies.
    let initial = (!O::READS_EVENTS).then(|| vm.clone());
    if initial.is_some() {
        vm.set_recording(Recording::CountsOnly);
    }
    let mut dfs = Dfs {
        config,
        vm,
        initial,
        log: UndoLog::default(),
        table,
        memo: FxHashMap::default(),
        on_path: Vec::new(),
        trace: Vec::new(),
        stack: Vec::new(),
        succ: Vec::new(),
        width: next_ids.len(),
        ids: Vec::new(),
        next_ids,
        pending: None,
        timers: jcc_obs::enabled().then(LayerTimers::new),
        ends: 0,
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
            memo_hits: 0,
            stepless_joins: 0,
        },
    };
    dfs.run(root);
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
    reg.counter("vm.explore.memo_hits")
        .add(result.memo_hits as u64);
    reg.counter("vm.explore.stepless_joins")
        .add(result.stepless_joins as u64);
}

/// One transition in this many is timed by [`LayerTimers`].
const SAMPLE_EVERY: usize = 64;

/// The per-layer split of exploration time, published as the
/// `vm.explore.step_ns`, `vm.explore.encode_ns`, `vm.explore.dedup_ns`
/// and `vm.explore.undo_ns` histograms: saving the step's footprint and
/// executing it; encoding the successor's changed sections; hashing and
/// interning them and the state (or probing for the state before the step
/// and filing it after); and restoring the parent. Only present when
/// observation is on, and only one stepped transition and one undo in
/// [`SAMPLE_EVERY`] are timed.
struct LayerTimers {
    step: Arc<Histogram>,
    encode: Arc<Histogram>,
    dedup: Arc<Histogram>,
    undo: Arc<Histogram>,
    /// Undos so far.
    undos: usize,
}

impl LayerTimers {
    fn new() -> LayerTimers {
        let reg = jcc_obs::global();
        LayerTimers {
            step: reg.histogram("vm.explore.step_ns"),
            encode: reg.histogram("vm.explore.encode_ns"),
            dedup: reg.histogram("vm.explore.dedup_ns"),
            undo: reg.histogram("vm.explore.undo_ns"),
            undos: 0,
        }
    }

    /// Record one sampled transition from the instants before it, after
    /// the store probe (if any), after stepping, after encoding and after
    /// interning.
    fn record(&self, [start, probed, stepped, encoded, interned]: [Instant; 5]) {
        self.step.record(ns(probed, stepped));
        self.encode.record(ns(stepped, encoded));
        self.dedup.record(ns(start, probed) + ns(encoded, interned));
    }

    /// Count an undo: is it one to time?
    fn sample_undo(&mut self) -> bool {
        let sampled = self.undos.is_multiple_of(SAMPLE_EVERY);
        self.undos += 1;
        sampled
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// One state on the current DFS path.
struct Frame {
    id: StateId,
    /// The undo-log mark before the step into this state.
    mark: usize,
    /// Length of the path trace at this state.
    trace_len: usize,
    /// Observed path ends before the step into this state.
    ends: u64,
    /// This state's successor threads are `succ[next..end]`.
    next: usize,
    end: usize,
}

/// A successor of the top frame's state: its interned id, whether the id
/// is new, and, when the machine has stepped into it, the undo-log mark
/// that restores its parent. Its section ids are in [`Dfs::next_ids`].
type Successor = (StateId, bool, Option<usize>);

/// The memo of lock-free steps: `[thread, its section id, global section
/// id]` before the step to `[its section id, global section id]` after.
type Memo = FxHashMap<(u32, u32, u32), (u32, u32)>;

/// The explicit-stack DFS and everything it threads through the search.
struct Dfs<'c, 'o, O> {
    config: &'c ExploreConfig,
    /// The one machine: at the state being visited, stepped forward into
    /// each successor and back out of it through `log`.
    vm: Vm,
    /// A recording copy of the initial machine when `vm` records no
    /// events: witnesses replay their paths on it.
    initial: Option<Vm>,
    /// The steps from the initial state to `vm`'s, which make its path.
    log: UndoLog,
    table: StateTable,
    /// The successor sections of every lock-free step taken so far that
    /// did not fault.
    memo: Memo,
    /// One bit per state id: is the state on the current path?
    on_path: Vec<u64>,
    /// The event trace from the initial state to the state being visited
    /// (empty when `vm` records no events).
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
    /// The top frame's ample successor, found while choosing it.
    pending: Option<Successor>,
    timers: Option<LayerTimers>,
    /// Observed path ends so far.
    ends: u64,
    observer: &'o mut O,
    result: ExploreResult,
}

impl<O: PathObserver> Dfs<'_, '_, O> {
    /// Search from the machine's state (already interned as `id`, its
    /// section ids in `next_ids`).
    fn run(&mut self, id: StateId) {
        self.enter(id, 0, self.log.mark());
        while let Some(top) = self.stack.last_mut() {
            self.trace.truncate(top.trace_len);
            let next = match self.pending.take() {
                Some(successor) => successor,
                None if top.next < top.end => {
                    let t = self.succ[top.next];
                    top.next += 1;
                    self.successor(t)
                }
                None => {
                    let done = self.stack.pop().expect("non-empty stack");
                    self.set_on_path(done.id, false);
                    self.succ.truncate(self.stack.last().map_or(0, |f| f.end));
                    self.ids.truncate(self.stack.len() * self.width);
                    if !self.stack.is_empty() {
                        // Every frame but the root was entered by a step.
                        self.undo(done.mark);
                        self.observer.backtrack(self.ends - done.ends);
                    }
                    continue;
                }
            };
            self.visit(next);
        }
    }

    /// Find the top frame's successor by thread `t`: step the machine and
    /// intern the result, re-encoding only the sections the step changed.
    /// A lock-free step the memo knows needs no encoding; and when the
    /// observer reads no events and the memo's successor is a stored state
    /// off the current path, the machine does not step at all: the
    /// transition is a join.
    fn successor(&mut self, t: usize) -> Successor {
        let stepped_so_far = self.result.transitions - self.result.stepless_joins;
        let sampled = self.timers.is_some() && stepped_so_far.is_multiple_of(SAMPLE_EVERY);
        let now = || sampled.then(Instant::now);
        let start = now();
        let base = (self.stack.len() - 1) * self.width;
        let parent = &self.ids[base..base + self.width];
        let key = self
            .vm
            .is_lock_free_step(t)
            .then(|| (t as u32, parent[1 + t], parent[0]));
        self.next_ids.clear();
        self.next_ids.extend_from_slice(parent);
        let known = key.and_then(|key| self.memo.get(&key).copied());
        if let Some((own, global)) = known {
            self.result.memo_hits += 1;
            self.next_ids[1 + t] = own;
            self.next_ids[0] = global;
        }
        // With events unread, a known successor is looked up first.
        let probed =
            (known.is_some() && !O::READS_EVENTS).then(|| self.table.probe(&self.next_ids));
        if let Some(Some(id)) = probed {
            if !self.is_on_path(id) {
                #[cfg(debug_assertions)]
                self.assert_stepless(t, id);
                self.result.stepless_joins += 1;
                return (id, false, None);
            }
        }
        let probe_end = if probed.is_some() { now() } else { start };
        let mark = self.log.mark();
        self.vm.step_logged(t, &mut self.log);
        let stepped = now();
        let mut encoded = stepped;
        let (id, fresh) = match (probed, known) {
            // A cycle: the probe found the state on the path.
            (Some(Some(id)), _) => {
                #[cfg(debug_assertions)]
                self.table.assert_sections(&self.vm, &self.next_ids);
                (id, false)
            }
            (Some(None), _) => (self.table.file_probed(&self.vm, &self.next_ids), true),
            (None, Some(_)) => self.table.dedup_known(&self.vm, &self.next_ids),
            (None, None) => {
                self.table.encode_step(&self.vm);
                encoded = now();
                let interned = self.table.dedup(&self.vm, &mut self.next_ids);
                if let Some(key) = key.filter(|_| !self.vm.is_faulted(t)) {
                    self.memo
                        .insert(key, (self.next_ids[1 + t], self.next_ids[0]));
                }
                interned
            }
        };
        if let (Some(timers), Some(start), Some(probe_end), Some(stepped), Some(encoded)) =
            (&self.timers, start, probe_end, stepped, encoded)
        {
            timers.record([start, probe_end, stepped, encoded, Instant::now()]);
        }
        (id, fresh, Some(mark))
    }

    /// The differential guard for stepless joins: take the step after all,
    /// without counting its firings, check that it does not fault and that
    /// it interns to `id`, and undo it.
    #[cfg(debug_assertions)]
    fn assert_stepless(&mut self, t: usize, id: StateId) {
        let base = (self.stack.len() - 1) * self.width;
        let mut ids = self.ids[base..base + self.width].to_vec();
        let mark = self.log.mark();
        self.vm.set_recording(Recording::EventsOnly);
        self.vm.step_logged(t, &mut self.log);
        assert!(
            !self.vm.is_faulted(t),
            "stepless join over a fault of thread {t}"
        );
        self.table.encode_step(&self.vm);
        let stepped = self.table.dedup(&self.vm, &mut ids);
        assert_eq!(stepped, (id, false), "stepless join of thread {t} strayed");
        self.vm.undo(&mut self.log, mark);
        self.vm.set_recording(Recording::CountsOnly);
    }

    /// Step the machine back to the state it was in at `mark`.
    fn undo(&mut self, mark: usize) {
        let start = self
            .timers
            .as_mut()
            .is_some_and(LayerTimers::sample_undo)
            .then(Instant::now);
        self.vm.undo(&mut self.log, mark);
        if let (Some(timers), Some(start)) = (&self.timers, start) {
            timers.undo.record(ns(start, Instant::now()));
        }
    }

    /// Take the step to one successor of the top frame: show its events to
    /// the observer, count the transition, classify cycle / already-seen /
    /// fresh, and enter fresh states. Unless the successor's frame was
    /// pushed, back out of the step again at once.
    fn visit(&mut self, (id, fresh, mark): Successor) {
        let (from, ends) = (self.trace.len(), self.ends);
        self.vm.drain_trace_into(&mut self.trace);
        self.observer.step(&self.trace[from..]);
        self.result.transitions += 1;
        if self.is_on_path(id) {
            // The path closed a loop on itself: it can repeat forever.
            self.result.cycle_paths += 1;
            let runnable = (0..self.vm.thread_count()).filter(|&i| self.vm.is_runnable(i));
            if runnable.count() == 1 {
                self.result.inescapable_cycles += 1;
            }
            self.end_path(PathEnd::Cycle);
            if self.result.cycle_witness.is_none() {
                self.result.cycle_witness = Some(witness(
                    &self.vm,
                    self.initial.as_ref(),
                    &self.log,
                    &self.trace,
                    Verdict::StepLimit,
                ));
            }
        } else if !fresh {
            // Reached a state first visited on another path: its subtree is
            // observed from there; end this path's prefix here.
            self.ends += 1;
            self.observer.join();
        } else if self.result.states >= self.config.max_states {
            self.result.truncated = true;
        } else {
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
            let mark = mark.expect("a new state is stepped into");
            if self.enter(id, ends, mark) {
                // The step stays on the path until its frame is popped.
                return;
            }
        }
        if let Some(mark) = mark {
            self.undo(mark);
        }
        self.observer.backtrack(self.ends - ends);
    }

    /// Tell the observer the current path ends at the machine's state.
    fn end_path(&mut self, end: PathEnd<'_>) {
        self.ends += 1;
        self.observer.path_end(&self.vm, end);
    }

    /// Arrive at a newly counted state at depth `self.stack.len()` (its
    /// section ids in `next_ids`, `ends` path ends observed before the step
    /// into it, `mark` the undo-log mark before that step): record a
    /// terminal verdict or the depth bound, or push a frame with the
    /// successors to expand. True when a frame was pushed.
    fn enter(&mut self, id: StateId, ends: u64, mark: usize) -> bool {
        if let Some(verdict) = self.vm.current_verdict() {
            self.end_path(PathEnd::Terminal(&verdict));
            let r = &mut self.result;
            let slot = match &verdict {
                Verdict::Completed => {
                    r.completed_paths += 1;
                    return false;
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
                *slot = Some(witness(
                    &self.vm,
                    self.initial.as_ref(),
                    &self.log,
                    &self.trace,
                    verdict,
                ));
            }
            return false;
        }
        if self.stack.len() >= self.config.max_depth {
            self.result.depth_limited_paths += 1;
            self.result.truncated = true;
            return false;
        }
        self.set_on_path(id, true);
        let start = self.succ.len();
        let vm = &self.vm;
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
            id,
            mark,
            trace_len: self.trace.len(),
            ends,
            next: start,
            end: self.succ.len(),
        });
        if let Some(cand) = ample {
            let (next_id, fresh, next_mark) = self.successor(cand);
            if self.is_on_path(next_id) {
                self.result.full_expansions += 1;
                self.undo(next_mark.expect("a cycle is stepped into"));
            } else {
                // The ample successor stands in for every other one.
                self.result.ample_pruned += runnable - 1;
                self.succ.truncate(start);
                self.stack.last_mut().expect("frame just pushed").end = start;
                self.pending = Some((next_id, fresh, next_mark));
            }
        }
        true
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

/// The run from the initial state to `vm`'s along the steps on `log`,
/// ending as `verdict`. With no `initial` machine, `trace` holds the path's
/// events; otherwise the path is replayed on a recording copy of
/// `initial`, whose steps leave the obs counters alone (`vm` counted them).
fn witness(
    vm: &Vm,
    initial: Option<&Vm>,
    log: &UndoLog,
    trace: &[Event],
    verdict: Verdict,
) -> RunOutcome {
    let Some(initial) = initial else {
        return vm.outcome_with_trace(verdict, trace.to_vec());
    };
    let mut replay = initial.clone();
    replay.set_recording(Recording::EventsOnly);
    let mut trace = Vec::new();
    for t in log.threads() {
        replay.step(t);
        replay.drain_trace_into(&mut trace);
    }
    debug_assert_eq!(replay.state_key(), vm.state_key(), "replay strayed");
    replay.outcome_with_trace(verdict, trace)
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

    /// The fold [`PathObserver`] replaced, kept as a reference: it rebuilds
    /// the path trace from the steps and, at every observed path end,
    /// replays all of it from fresh thread cursors.
    struct Replay {
        trace: Vec<Event>,
        marks: Vec<usize>,
        fresh: CoverageTracker,
        total: CoverageTracker,
        /// The rebuilt trace at the first end of each kind: deadlock,
        /// fault, cycle.
        firsts: [Option<Vec<Event>>; 3],
    }

    impl Replay {
        fn new(tracker: CoverageTracker) -> Replay {
            Replay {
                trace: Vec::new(),
                marks: Vec::new(),
                fresh: tracker.clone(),
                total: tracker,
                firsts: [None, None, None],
            }
        }
    }

    impl PathObserver for Replay {
        fn step(&mut self, events: &[Event]) {
            self.marks.push(self.trace.len());
            self.trace.extend_from_slice(events);
        }

        fn backtrack(&mut self, _ends: u64) {
            let mark = self.marks.pop().expect("a step to back out of");
            self.trace.truncate(mark);
        }

        fn path_end(&mut self, _vm: &Vm, end: PathEnd<'_>) {
            self.join();
            let kind = match end {
                PathEnd::Terminal(Verdict::Deadlock { .. }) => 0,
                PathEnd::Terminal(Verdict::Faulted { .. }) => 1,
                PathEnd::Cycle => 2,
                PathEnd::Terminal(_) => return,
            };
            self.firsts[kind].get_or_insert_with(|| self.trace.clone());
        }

        fn join(&mut self) {
            let mut fresh = self.fresh.clone();
            crate::trace::apply_trace(&self.trace, &mut fresh);
            self.total.merge(&fresh);
        }
    }

    /// Everything a coverage fold accumulates.
    fn coverage_census(t: &CoverageTracker) -> String {
        let hits: Vec<(&str, &[u64])> = t
            .methods()
            .into_iter()
            .map(|m| (m, t.arc_hits(m).unwrap()))
            .collect();
        format!(
            "{:?} {:?} {hits:?} strays {}",
            t.per_method(),
            t.uncovered(),
            t.strays
        )
    }

    #[test]
    fn path_steps_rebuild_the_witness_traces() {
        // The steps and backtracks an observer sees rebuild the explorer's
        // own path trace: the witnesses are copies of it.
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
        let cases = [
            (lock_order, lock_threads),
            (skip_wait_mutant(), pc_threads()),
        ];
        for (component, threads) in cases {
            let mut replay = Replay::new(CoverageTracker::new(build_component_cofgs(&component)));
            let vm = Vm::new(compile(&component).unwrap(), threads);
            let r = explore_observed(vm, &ExploreConfig::default(), &mut replay);
            assert!(replay.marks.is_empty() && replay.trace.is_empty());
            let witnesses = [&r.deadlock_witness, &r.fault_witness, &r.cycle_witness];
            for (witness, rebuilt) in witnesses.into_iter().zip(&replay.firsts) {
                assert_eq!(witness.as_ref().map(|w| &w.trace), rebuilt.as_ref());
            }
            assert!(r.found_failure());
        }
    }

    #[test]
    fn coverage_fold_matches_the_replay_fold() {
        let pc = examples::producer_consumer();
        let pc_tracker = || CoverageTracker::new(build_component_cofgs(&pc));
        // e8's ladder: one producer, 1..=3 consumers, one tracker.
        let ladder = |consumers: usize| {
            let mut threads = vec![ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new(
                    "send",
                    vec![Value::Str("x".repeat(consumers).into())],
                )],
            }];
            for i in 0..consumers {
                threads.push(ThreadSpec {
                    name: format!("c{i}"),
                    calls: vec![CallSpec::new("receive", vec![])],
                });
            }
            Vm::new(compile(&pc).unwrap(), threads)
        };
        let mut folded = pc_tracker();
        let mut replay = Replay::new(pc_tracker());
        for consumers in 1..=3 {
            let config = ExploreConfig::default();
            let a = explore(ladder(consumers), &config, Some(&mut folded));
            let b = explore_observed(ladder(consumers), &config, &mut replay);
            assert_eq!(a.tally(), b.tally());
        }
        assert_eq!(coverage_census(&folded), coverage_census(&replay.total));
        assert!(folded.covered_arcs() > 0);

        // Forced budgets: paths cut by `max_states` or by the depth bound
        // are not observed, so they must contribute nothing.
        let states = explore(ladder(2), &ExploreConfig::default(), None).states;
        let budgets = [
            ExploreConfig {
                max_states: states - 1,
                ..ExploreConfig::default()
            },
            ExploreConfig {
                max_depth: 12,
                ..ExploreConfig::default()
            },
        ];
        for config in budgets {
            let mut folded = pc_tracker();
            let mut replay = Replay::new(pc_tracker());
            let a = explore(ladder(2), &config, Some(&mut folded));
            let b = explore_observed(ladder(2), &config, &mut replay);
            assert!(a.truncated, "{config:?}");
            assert_eq!(a.tally(), b.tally());
            assert_eq!(coverage_census(&folded), coverage_census(&replay.total));
        }

        // E11 sizes 1 and 2.
        for size in 1..=2 {
            let (component, threads) = e11_scenario(size);
            let tracker = || CoverageTracker::new(build_component_cofgs(&component));
            let make = || Vm::new(compile(&component).unwrap(), threads.clone());
            let mut folded = tracker();
            let mut replay = Replay::new(tracker());
            explore(make(), &ExploreConfig::default(), Some(&mut folded));
            explore_observed(make(), &ExploreConfig::default(), &mut replay);
            assert_eq!(
                coverage_census(&folded),
                coverage_census(&replay.total),
                "E11 size {size}"
            );
            assert!(folded.covered_arcs() > 0, "E11 size {size}");
        }
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

    /// A recording observer: it reads every step's events.
    struct CountEvents(usize);

    impl PathObserver for CountEvents {
        fn step(&mut self, events: &[Event]) {
            self.0 += events.len();
        }
    }

    #[test]
    fn witness_replay_stays_exact_under_a_truncated_hash() {
        // An event-free search rebuilds its witnesses by replaying the
        // undo log's threads. Under a three-bit hash nearly every intern
        // walks a collision chain, and every state with a fresh section is
        // filed unprobed; the report must still equal a recording search's
        // under the full hash, deadlock, fault and cycle witnesses alike.
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
        let faulty = jcc_model::parse_component(
            "class Bad { int n = 0; boolean b = false; \
             synchronized void bad() { while (!b) { wait(); } if (n) { n = 1; } } \
             synchronized void ok() { n = 2; b = true; notifyAll(); } }",
        )
        .unwrap();
        let faulty_threads = ["bad", "ok", "bad"]
            .map(|m| ThreadSpec {
                name: "w".into(),
                calls: vec![CallSpec::new(m, vec![])],
            })
            .to_vec();
        let (e11, e11_threads) = e11_scenario(1);
        let reduced = ExploreConfig {
            ample: true,
            symmetry: true,
            ..ExploreConfig::default()
        };
        let cases = [
            ("lock-order deadlock", &lock_order, lock_threads),
            ("SkipWait mutant", &skip_wait_mutant(), pc_threads()),
            ("faulting waiter", &faulty, faulty_threads),
            ("E11 size 1", &e11, e11_threads),
        ];
        let mut witnesses = [0; 3];
        for (label, component, threads) in cases {
            for config in [ExploreConfig::default(), reduced.clone()] {
                let make = || Vm::new(compile(component).unwrap(), threads.clone());
                let recorded = explore_observed(make(), &config, &mut CountEvents(0));
                crate::machine::state::force_collisions(3);
                let free = explore(make(), &config, None);
                crate::machine::state::force_collisions(64);
                assert_eq!(census(&free), census(&recorded), "{label} {config:?}");
                let all = [&free.deadlock_witness, &free.fault_witness, &free.cycle_witness];
                for (n, w) in witnesses.iter_mut().zip(all) {
                    *n += usize::from(w.is_some());
                }
            }
        }
        assert!(witnesses.iter().all(|&n| n > 0), "{witnesses:?}");
    }

    #[test]
    fn stepless_joins_stay_exact_under_a_truncated_hash() {
        // With events unread, a memo hit into a stored state off the path
        // is settled by a probe of the state store alone, without a step.
        // Under a three-bit hash nearly every probe walks a collision
        // chain; the report must still equal a recording search's, which
        // steps every transition, under the full hash. (Debug builds also
        // re-take every stepless join and check where it lands.)
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
        let pc = examples::producer_consumer();
        let (e11, e11_threads) = e11_scenario(1);
        let reduced = ExploreConfig {
            ample: true,
            symmetry: true,
            ..ExploreConfig::default()
        };
        let cases = [
            ("lock-order deadlock", &lock_order, lock_threads),
            ("SkipWait mutant", &skip_wait_mutant(), pc_threads()),
            ("symmetric 3-thread", &pc, symmetric_pc_threads()),
            ("E11 size 1", &e11, e11_threads),
        ];
        let mut stepless = 0;
        for (label, component, threads) in cases {
            for config in [ExploreConfig::default(), reduced.clone()] {
                let make = || Vm::new(compile(component).unwrap(), threads.clone());
                let recorded = explore_observed(make(), &config, &mut CountEvents(0));
                crate::machine::state::force_collisions(3);
                let free = explore(make(), &config, None);
                crate::machine::state::force_collisions(64);
                assert_eq!(census(&free), census(&recorded), "{label} {config:?}");
                assert_eq!(free.memo_hits, recorded.memo_hits, "{label} {config:?}");
                assert_eq!(recorded.stepless_joins, 0, "{label} {config:?}");
                stepless += free.stepless_joins;
            }
        }
        assert!(stepless > 0);
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
