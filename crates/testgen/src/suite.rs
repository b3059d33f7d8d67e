//! Test-suite construction: the CoFG-directed greedy suite and the
//! undirected random baseline.
//!
//! The directed suite targets three goal families. Arc coverage alone (the
//! CoFG criterion of Section 6) exercises every concurrency primitive, but
//! the paper's companion work (Harvey & Strooper 2001, cited as [13])
//! found it must be extended with "consideration for the number and type of
//! processes suspended inside the monitor" and "interesting state and
//! parameter values". The suite therefore also pursues:
//!
//! * **waiter plurality** — reach ≥ 2 threads simultaneously suspended in
//!   a wait set (the precondition of every lost-notification failure),
//! * **post-wake observation** — for every method containing a `wait`, some
//!   path where, after its thread is woken, another thread completes a
//!   value-returning call (so state corrupted by a bad wake-up is actually
//!   *observed* by the oracle), and
//! * **notify effectiveness** — every `notify`/`notifyAll` site is seen, in
//!   some path, actually waking a waiter (otherwise a suite can pass with a
//!   notification site whose removal is never noticed, because another
//!   method's notification shadows it), and
//! * **mixed waiters** — threads of *different* methods suspended in the
//!   same wait set simultaneously ([13]'s "type of processes suspended
//!   inside the monitor"); this is the precondition under which `notify`
//!   can wake the wrong kind of waiter. Unachievable for some components
//!   (e.g. the producer–consumer, whose guards are mutually exclusive);
//!   the suite builder pursues it opportunistically.
//!
//! Goals are path properties, folded per DFS edge: the explorer hands each
//! transition's events to [`SuiteGoals::advance`] once, and
//! [`SuiteGoals::retreat`] backs out of it again. The fold's path state
//! (each thread's running method, each lock's wait set, each thread's last
//! site and the wake-ups so far) sits on an undo log, and the goals a step
//! meets stay pending until the search backs out of it. They are met only
//! if some observed path end was reached while the step was on the path —
//! exactly the goals a replay of every observed path's trace would meet.
//! Arc coverage folds the same way ([`CoverageTracker::advance`]), and a
//! single schedule's trace is a one-step path
//! ([`SuiteGoals::observe_trace`]).

use std::collections::{BTreeSet, HashMap};

use jcc_cofg::build_component_cofgs;
use jcc_cofg::coverage::CoverageTracker;
use jcc_model::ast::{walk_paths, Stmt};
use jcc_model::Component;
use jcc_petri::event::{Event, EventKind};
use jcc_petri::Transition;
use jcc_vm::{compile, explore_observed, CompiledComponent, ExploreConfig, PathObserver, Vm};

use crate::scenario::{sample_scenarios, Scenario, ScenarioSpace};

/// The extra-goal tracker ([13]-style criteria beyond arc coverage).
#[derive(Debug, Clone)]
pub struct SuiteGoals {
    /// Methods that contain a `wait`.
    wait_methods: BTreeSet<String>,
    /// Methods that return a value (potential observers).
    value_methods: BTreeSet<String>,
    /// All notify/notifyAll sites: (method, statement path).
    notify_sites: BTreeSet<(String, Vec<usize>)>,
    /// Seen ≥2 simultaneous waiters on one lock?
    pub two_waiters_seen: bool,
    /// Wait-methods for which the post-wake-observation goal is met.
    pub observed_after_wake: BTreeSet<String>,
    /// Notify sites observed actually waking at least one waiter.
    pub effective_notifies: BTreeSet<(String, Vec<usize>)>,
    /// Seen two threads of different methods waiting on one lock at once?
    pub mixed_waiters_seen: bool,
    /// Whether the component has ≥ 2 distinct wait-methods (otherwise the
    /// mixed-waiter goal is vacuous).
    mixed_possible: bool,
    /// The fold's state along the current path.
    walk: GoalWalk,
}

/// The goal fold's state along the current search path, with the undo log
/// that backs out of a step. Empty between paths.
#[derive(Debug, Clone, Default)]
struct GoalWalk {
    /// Events folded onto the path: the position of the next one.
    len: usize,
    /// Per thread: the method it is running and the position of its start.
    current: HashMap<u64, (String, usize)>,
    /// Per lock with waiters: its wait set, as (thread, method) pairs.
    waiting: HashMap<u64, Vec<(u64, String)>>,
    /// Per thread: its last concurrency site, as an index into
    /// `notify_sites` when it is one.
    last_site: HashMap<u64, Option<usize>>,
    /// Wake-ups of threads in wait methods: (position, thread, index into
    /// `wait_methods`).
    wakes: Vec<(usize, u64, usize)>,
    undo: Vec<Undo>,
    /// Goals the steps on the path meet, committed on retreat.
    met: Vec<Goal>,
    /// Per step on the path: the lengths of `undo`, `met` and `wakes`, and
    /// `len`, before it.
    steps: Vec<[usize; 4]>,
}

/// One change to [`GoalWalk`]'s maps, as what restores it.
#[derive(Debug, Clone)]
enum Undo {
    /// A thread's running method was this.
    Current(u64, Option<(String, usize)>),
    /// A thread's last site was this.
    LastSite(u64, Option<Option<usize>>),
    /// A thread joined the end of a lock's wait set.
    Waited(u64),
    /// This (thread, method) left a lock's wait set from this position.
    Woken(u64, usize, (u64, String)),
}

/// A goal one step meets.
#[derive(Debug, Clone, Copy)]
enum Goal {
    TwoWaiters,
    MixedWaiters,
    /// Post-wake observation of `wait_methods`' method with this index.
    ObservedAfterWake(usize),
    /// Effectiveness of `notify_sites`' site with this index.
    EffectiveNotify(usize),
}

impl SuiteGoals {
    /// Set up goals for a component.
    pub fn new(component: &Component) -> Self {
        let mut wait_methods = BTreeSet::new();
        let mut value_methods = BTreeSet::new();
        let mut notify_sites = BTreeSet::new();
        for m in &component.methods {
            let mut has_wait = false;
            walk_paths(&m.body, &mut |stmt, path| match stmt {
                Stmt::Wait { .. } => has_wait = true,
                Stmt::Notify { .. } | Stmt::NotifyAll { .. } => {
                    notify_sites.insert((m.name.clone(), path.to_vec()));
                }
                _ => {}
            });
            if has_wait {
                wait_methods.insert(m.name.clone());
            }
            if m.ret.is_some() {
                value_methods.insert(m.name.clone());
            }
        }
        // The notify-effectiveness goal is only meaningful when someone can
        // wait at all.
        if wait_methods.is_empty() {
            notify_sites.clear();
        }
        let mixed_possible = wait_methods.len() >= 2;
        SuiteGoals {
            wait_methods,
            value_methods,
            notify_sites,
            two_waiters_seen: false,
            observed_after_wake: BTreeSet::new(),
            effective_notifies: BTreeSet::new(),
            mixed_waiters_seen: false,
            mixed_possible,
            walk: GoalWalk::default(),
        }
    }

    /// True when every achievable goal is met. With no wait methods there
    /// is nothing to pursue; with no value-returning methods the
    /// observation goal is vacuous.
    pub fn complete(&self) -> bool {
        let plurality_ok = self.two_waiters_seen || self.wait_methods.is_empty();
        let observe_ok = self.value_methods.is_empty()
            || self
                .wait_methods
                .iter()
                .all(|m| self.observed_after_wake.contains(m));
        let notify_ok = self
            .notify_sites
            .iter()
            .all(|s| self.effective_notifies.contains(s));
        plurality_ok && observe_ok && notify_ok
    }

    /// Number of unmet goals (for greedy comparison).
    pub fn unmet(&self) -> usize {
        let mut n = 0;
        if !self.two_waiters_seen && !self.wait_methods.is_empty() {
            n += 1;
        }
        if !self.value_methods.is_empty() {
            n += self
                .wait_methods
                .iter()
                .filter(|m| !self.observed_after_wake.contains(*m))
                .count();
        }
        n += self
            .notify_sites
            .iter()
            .filter(|s| !self.effective_notifies.contains(*s))
            .count();
        if self.mixed_possible && !self.mixed_waiters_seen {
            n += 1;
        }
        n
    }

    /// A goal tracker with nothing to pursue (arc-only ablation).
    pub fn vacuous() -> Self {
        SuiteGoals {
            wait_methods: BTreeSet::new(),
            value_methods: BTreeSet::new(),
            notify_sites: BTreeSet::new(),
            two_waiters_seen: false,
            observed_after_wake: BTreeSet::new(),
            effective_notifies: BTreeSet::new(),
            mixed_waiters_seen: false,
            mixed_possible: false,
            walk: GoalWalk::default(),
        }
    }

    /// Fold one path's trace into the goals: a path of one step.
    pub fn observe_trace(&mut self, trace: &[Event]) {
        self.advance(trace);
        self.retreat(1);
    }

    /// Fold one search step's events onto the current path. The goals they
    /// meet stay pending until [`SuiteGoals::retreat`] backs out of the
    /// step.
    pub fn advance(&mut self, events: &[Event]) {
        let walk = &mut self.walk;
        walk.steps
            .push([walk.undo.len(), walk.met.len(), walk.wakes.len(), walk.len]);
        for e in events {
            let i = walk.len;
            walk.len += 1;
            match &e.kind {
                EventKind::MethodStart { method } => {
                    let before = walk.current.insert(e.thread, (method.clone(), i));
                    walk.undo.push(Undo::Current(e.thread, before));
                }
                EventKind::MethodEnd { method } => {
                    let before = walk.current.remove(&e.thread);
                    let started = before.as_ref().map_or(0, |(_, s)| *s);
                    walk.undo.push(Undo::Current(e.thread, before));
                    // Post-wake observation: a value-returning call by one
                    // thread *began and completed* after another thread's
                    // wake-up — only such a call can observe state the woken
                    // thread corrupted.
                    if self.value_methods.contains(method) {
                        for &(wi, thread, k) in &walk.wakes {
                            if wi < started && thread != e.thread {
                                walk.met.push(Goal::ObservedAfterWake(k));
                            }
                        }
                    }
                }
                EventKind::Site { method, path, .. } => {
                    let site = self
                        .notify_sites
                        .iter()
                        .position(|(m, p)| m == method && p == path);
                    let before = walk.last_site.insert(e.thread, site);
                    walk.undo.push(Undo::LastSite(e.thread, before));
                }
                EventKind::Notify { waiters, .. } if *waiters > 0 => {
                    if let Some(&Some(k)) = walk.last_site.get(&e.thread) {
                        walk.met.push(Goal::EffectiveNotify(k));
                    }
                }
                EventKind::Transition { t, lock } => match t {
                    Transition::T3 => {
                        let method = walk
                            .current
                            .get(&e.thread)
                            .map(|(m, _)| m.clone())
                            .unwrap_or_default();
                        let set = walk.waiting.entry(*lock).or_default();
                        set.push((e.thread, method));
                        walk.undo.push(Undo::Waited(*lock));
                        if set.len() >= 2 {
                            walk.met.push(Goal::TwoWaiters);
                            if set.iter().any(|(_, m)| *m != set[0].1) {
                                walk.met.push(Goal::MixedWaiters);
                            }
                        }
                    }
                    Transition::T5 => {
                        if let Some(set) = walk.waiting.get_mut(lock) {
                            if let Some(pos) = set.iter().position(|(t, _)| *t == e.thread) {
                                let waiter = set.remove(pos);
                                if set.is_empty() {
                                    walk.waiting.remove(lock);
                                }
                                walk.undo.push(Undo::Woken(*lock, pos, waiter));
                            }
                        }
                        if let Some((method, _)) = walk.current.get(&e.thread) {
                            if let Some(k) = self.wait_methods.iter().position(|m| m == method) {
                                walk.wakes.push((i, e.thread, k));
                            }
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Back out of the last step [`SuiteGoals::advance`] folded. The goals
    /// it met count as met when `ends > 0`: some observed path end was
    /// reached while the step was on the path.
    ///
    /// # Panics
    /// When no step is on the path.
    pub fn retreat(&mut self, ends: u64) {
        let walk = &mut self.walk;
        let [undo, met, wakes, len] = walk.steps.pop().expect("a step to retreat from");
        if ends > 0 {
            for goal in walk.met.drain(met..) {
                match goal {
                    Goal::TwoWaiters => self.two_waiters_seen = true,
                    Goal::MixedWaiters => self.mixed_waiters_seen = true,
                    Goal::ObservedAfterWake(k) => {
                        let method = self.wait_methods.iter().nth(k).expect("a wait method");
                        if !self.observed_after_wake.contains(method) {
                            self.observed_after_wake.insert(method.clone());
                        }
                    }
                    Goal::EffectiveNotify(k) => {
                        let site = self.notify_sites.iter().nth(k).expect("a notify site");
                        if !self.effective_notifies.contains(site) {
                            self.effective_notifies.insert(site.clone());
                        }
                    }
                }
            }
        }
        walk.met.truncate(met);
        walk.wakes.truncate(wakes);
        walk.len = len;
        for change in walk.undo.drain(undo..).rev() {
            match change {
                Undo::Current(thread, Some(before)) => {
                    walk.current.insert(thread, before);
                }
                Undo::Current(thread, None) => {
                    walk.current.remove(&thread);
                }
                Undo::LastSite(thread, Some(before)) => {
                    walk.last_site.insert(thread, before);
                }
                Undo::LastSite(thread, None) => {
                    walk.last_site.remove(&thread);
                }
                Undo::Waited(lock) => {
                    let set = walk.waiting.get_mut(&lock).expect("the wait set joined");
                    set.pop();
                    if set.is_empty() {
                        walk.waiting.remove(&lock);
                    }
                }
                Undo::Woken(lock, pos, waiter) => {
                    walk.waiting.entry(lock).or_default().insert(pos, waiter);
                }
            }
        }
    }
}

/// The path fold of suite construction: arc coverage and goals, stepped
/// and backed out together.
struct SuiteFold {
    coverage: CoverageTracker,
    goals: SuiteGoals,
}

impl PathObserver for SuiteFold {
    fn step(&mut self, events: &[Event]) {
        self.coverage.advance(events);
        self.goals.advance(events);
    }

    fn backtrack(&mut self, ends: u64) {
        self.coverage.retreat(ends);
        self.goals.retreat(ends);
    }
}

/// A constructed test suite with its achieved coverage.
#[derive(Debug)]
pub struct CoverageSuite {
    /// The selected scenarios, in selection order.
    pub scenarios: Vec<Scenario>,
    /// Accumulated CoFG coverage of the suite (union over all schedules of
    /// each scenario for the directed suite; per sampled schedule for the
    /// random baseline).
    pub coverage: CoverageTracker,
    /// State of the [13]-style extra goals after construction.
    pub goals: SuiteGoals,
    /// Scenarios examined before the suite was complete (selection cost).
    pub candidates_examined: usize,
}

impl CoverageSuite {
    /// Fraction of CoFG arcs covered.
    pub fn coverage_ratio(&self) -> f64 {
        self.coverage.ratio()
    }

    /// Arc coverage complete *and* all extra goals met.
    pub fn complete(&self) -> bool {
        self.coverage.complete() && self.goals.complete()
    }
}

/// Configuration for greedy suite construction.
#[derive(Debug, Clone)]
pub struct GreedyConfig {
    /// Seed for candidate sampling.
    pub seed: u64,
    /// Candidates sampled beyond the systematic two-thread seed set.
    pub random_candidates: usize,
    /// Exploration limits used to evaluate a candidate's coverage.
    pub explore: ExploreConfig,
    /// Pursue the [13]-style extra goals beyond arc coverage. Disable for
    /// the arc-only ablation (experiment E9).
    pub extra_goals: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            seed: 42,
            random_candidates: 60,
            explore: ExploreConfig {
                max_states: 30_000,
                max_depth: 800,
                ..ExploreConfig::default()
            },
            extra_goals: true,
        }
    }
}

/// Build a CoFG-directed suite: candidates are tried in order (first the
/// systematic 2- and 3-thread single-call scenarios, then random samples);
/// a candidate joins the suite iff exhaustive schedule exploration shows it
/// covers a CoFG arc — or meets an extra goal — the suite has not yet.
/// Construction stops when arcs and goals are complete or candidates run
/// out.
pub fn greedy_cover_suite(
    component: &Component,
    space: &ScenarioSpace,
    config: &GreedyConfig,
) -> CoverageSuite {
    let compiled = compile(component).expect("component compiles");
    let cofgs = build_component_cofgs(component);
    let mut coverage = CoverageTracker::new(cofgs.clone());
    let mut goals = if config.extra_goals {
        SuiteGoals::new(component)
    } else {
        SuiteGoals::vacuous()
    };

    let mut candidates: Vec<Scenario> = Vec::new();
    candidates.extend(crate::scenario::single_session_scenarios(space, 2));
    candidates.extend(crate::scenario::single_session_scenarios(space, 3));
    candidates.extend(sample_scenarios(space, config.seed, config.random_candidates));

    let mut suite = Vec::new();
    let mut examined = 0;
    for scenario in candidates {
        // Stop only when nothing is left to pursue — including the
        // opportunistic mixed-waiter goal (unmet() counts it; for
        // components where it is unachievable the loop simply examines
        // every candidate once).
        if coverage.complete() && goals.unmet() == 0 {
            break;
        }
        examined += 1;
        let mut candidate = SuiteFold {
            coverage: CoverageTracker::new(cofgs.clone()),
            goals: goals.clone(),
        };
        let vm = Vm::new(compiled.clone(), scenario.clone());
        let _ = explore_observed(vm, &config.explore, &mut candidate);
        let mut merged = coverage.clone();
        merged.merge(&candidate.coverage);
        let adds_arc = merged.covered_arcs() > coverage.covered_arcs();
        let adds_goal = candidate.goals.unmet() < goals.unmet();
        if adds_arc || adds_goal {
            coverage = merged;
            goals = candidate.goals;
            suite.push(scenario);
        }
    }
    CoverageSuite {
        scenarios: suite,
        coverage,
        goals,
        candidates_examined: examined,
    }
}

/// Build the undirected baseline: `count` randomly sampled scenarios, with
/// coverage measured from a single random schedule each (what a tester
/// running the component without schedule control would see).
pub fn random_suite(
    component: &Component,
    space: &ScenarioSpace,
    seed: u64,
    count: usize,
) -> CoverageSuite {
    let compiled: CompiledComponent = compile(component).expect("component compiles");
    let mut fold = SuiteFold {
        coverage: CoverageTracker::new(build_component_cofgs(component)),
        goals: SuiteGoals::new(component),
    };
    let scenarios = sample_scenarios(space, seed, count);
    for (i, scenario) in scenarios.iter().enumerate() {
        let mut vm = Vm::new(compiled.clone(), scenario.clone());
        let out = vm.run(&jcc_vm::RunConfig {
            scheduler: jcc_vm::Scheduler::Random(seed.wrapping_add(i as u64)),
            max_steps: 20_000,
        });
        // One schedule is a one-step path with one observed end.
        fold.step(&out.trace);
        fold.backtrack(1);
    }
    CoverageSuite {
        scenarios,
        coverage: fold.coverage,
        goals: fold.goals,
        candidates_examined: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_vm::{CallSpec, Value};

    fn pc_space() -> ScenarioSpace {
        ScenarioSpace::new(vec![
            CallSpec::new("receive", vec![]),
            CallSpec::new("send", vec![Value::Str("a".into())]),
            CallSpec::new("send", vec![Value::Str("ab".into())]),
        ])
    }

    #[test]
    fn goals_see_wait_and_notify_under_an_else_if() {
        // `else if` lowers to an `if` inside the else branch.
        let c = jcc_model::parse_component(
            "class G { boolean a = false; boolean b = false;
               synchronized void w() { if (a) { Thread.yield(); } else { if (b) { wait(); } } }
               synchronized void n() { if (a) { Thread.yield(); } else { if (b) { notifyAll(); } } } }",
        )
        .unwrap();
        let goals = SuiteGoals::new(&c);
        assert!(goals.wait_methods.contains("w"), "{goals:?}");
        let else_if = vec![0, jcc_model::ast::ELSE_OFFSET, 0];
        assert_eq!(
            goals.notify_sites.into_iter().collect::<Vec<_>>(),
            vec![("n".to_string(), else_if)]
        );
    }

    #[test]
    fn greedy_suite_reaches_full_coverage_on_producer_consumer() {
        let c = examples::producer_consumer();
        let suite = greedy_cover_suite(&c, &pc_space(), &GreedyConfig::default());
        assert!(
            suite.coverage.complete(),
            "uncovered: {:?}",
            suite.coverage.uncovered()
        );
        assert!(suite.goals.two_waiters_seen);
        // Post-wake observation achievable for both methods.
        assert!(
            suite.goals.complete(),
            "unmet goals: {:?}",
            suite.goals
        );
        // The suite is small — a handful of scenarios suffice.
        assert!(suite.scenarios.len() <= 10, "{}", suite.scenarios.len());
    }

    #[test]
    fn greedy_suite_deterministic() {
        let c = examples::producer_consumer();
        let a = greedy_cover_suite(&c, &pc_space(), &GreedyConfig::default());
        let b = greedy_cover_suite(&c, &pc_space(), &GreedyConfig::default());
        assert_eq!(a.scenarios, b.scenarios);
    }

    #[test]
    fn random_suite_coverage_is_no_better() {
        let c = examples::producer_consumer();
        let greedy = greedy_cover_suite(&c, &pc_space(), &GreedyConfig::default());
        let random = random_suite(&c, &pc_space(), 7, greedy.scenarios.len());
        assert!(random.coverage_ratio() <= greedy.coverage_ratio() + 1e-9);
    }

    #[test]
    fn bounded_buffer_suite_covers() {
        let c = examples::bounded_buffer();
        let space = ScenarioSpace::new(vec![
            CallSpec::new("put", vec![Value::Int(1)]),
            CallSpec::new("put", vec![Value::Int(2)]),
            CallSpec::new("take", vec![]),
        ]);
        let suite = greedy_cover_suite(&c, &space, &GreedyConfig::default());
        assert!(
            suite.coverage.complete(),
            "uncovered: {:?}",
            suite.coverage.uncovered()
        );
    }

    #[test]
    fn goals_track_waiter_plurality() {
        let c = examples::producer_consumer();
        let mut goals = SuiteGoals::new(&c);
        assert!(!goals.two_waiters_seen);
        assert!(!goals.complete());
        // Two receives, no send: both threads wait — plurality reached.
        let compiled = compile(&c).unwrap();
        let mut vm = Vm::new(
            compiled,
            vec![
                jcc_vm::ThreadSpec {
                    name: "a".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                jcc_vm::ThreadSpec {
                    name: "b".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
            ],
        );
        let out = vm.run(&jcc_vm::RunConfig::default());
        goals.observe_trace(&out.trace);
        assert!(goals.two_waiters_seen);
    }

    /// The goal fold [`SuiteGoals::advance`] replaced, kept as a reference:
    /// one pass over a whole path trace with fresh path state.
    fn replay_goals(goals: &mut SuiteGoals, trace: &[Event]) {
        let mut current: HashMap<u64, (String, usize)> = HashMap::new();
        let mut waiting: HashMap<u64, Vec<(u64, String)>> = HashMap::new();
        let mut last_site: HashMap<u64, (String, Vec<usize>)> = HashMap::new();
        let mut wakes: Vec<(usize, String)> = Vec::new();
        for (i, e) in trace.iter().enumerate() {
            match &e.kind {
                EventKind::MethodStart { method } => {
                    current.insert(e.thread, (method.clone(), i));
                }
                EventKind::MethodEnd { method } => {
                    let started = current.remove(&e.thread).map(|(_, s)| s).unwrap_or(0);
                    if goals.value_methods.contains(method) {
                        for (wi, wmethod) in &wakes {
                            if *wi < started
                                && goals.wait_methods.contains(wmethod)
                                && trace[*wi].thread != e.thread
                            {
                                goals.observed_after_wake.insert(wmethod.clone());
                            }
                        }
                    }
                }
                EventKind::Site { method, path, .. } => {
                    last_site.insert(e.thread, (method.clone(), path.clone()));
                }
                EventKind::Notify { waiters, .. } if *waiters > 0 => {
                    if let Some(key) = last_site.get(&e.thread) {
                        if goals.notify_sites.contains(key) {
                            goals.effective_notifies.insert(key.clone());
                        }
                    }
                }
                EventKind::Transition {
                    t: Transition::T3,
                    lock,
                } => {
                    let method = current
                        .get(&e.thread)
                        .map(|(m, _)| m.clone())
                        .unwrap_or_default();
                    let set = waiting.entry(*lock).or_default();
                    set.push((e.thread, method));
                    if set.len() >= 2 {
                        goals.two_waiters_seen = true;
                        if set.iter().any(|(_, m)| *m != set[0].1) {
                            goals.mixed_waiters_seen = true;
                        }
                    }
                }
                EventKind::Transition {
                    t: Transition::T5,
                    lock,
                } => {
                    if let Some(set) = waiting.get_mut(lock) {
                        if let Some(pos) = set.iter().position(|(t, _)| *t == e.thread) {
                            set.remove(pos);
                        }
                    }
                    if let Some((method, _)) = current.get(&e.thread) {
                        wakes.push((i, method.clone()));
                    }
                }
                _ => {}
            }
        }
    }

    /// Fold one whole path trace into `coverage` from fresh thread
    /// cursors, as the replay fold did.
    fn replay_coverage(coverage: &mut CoverageTracker, empty: &CoverageTracker, trace: &[Event]) {
        let mut fresh = empty.clone();
        jcc_vm::trace::apply_trace(trace, &mut fresh);
        coverage.merge(&fresh);
    }

    /// The replay fold as a search observer: it rebuilds the path trace
    /// from the steps and replays all of it at every observed path end.
    struct Replay {
        trace: Vec<Event>,
        marks: Vec<usize>,
        empty: CoverageTracker,
        coverage: CoverageTracker,
        goals: SuiteGoals,
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

        fn path_end(&mut self, _vm: &Vm, _end: jcc_vm::PathEnd<'_>) {
            self.join();
        }

        fn join(&mut self) {
            replay_coverage(&mut self.coverage, &self.empty, &self.trace);
            replay_goals(&mut self.goals, &self.trace);
        }
    }

    /// [`greedy_cover_suite`] over the replay fold.
    fn replay_greedy_suite(
        component: &Component,
        space: &ScenarioSpace,
        config: &GreedyConfig,
    ) -> CoverageSuite {
        let compiled = compile(component).unwrap();
        let empty = CoverageTracker::new(build_component_cofgs(component));
        let mut coverage = empty.clone();
        let mut goals = if config.extra_goals {
            SuiteGoals::new(component)
        } else {
            SuiteGoals::vacuous()
        };
        let mut candidates: Vec<Scenario> = Vec::new();
        candidates.extend(crate::scenario::single_session_scenarios(space, 2));
        candidates.extend(crate::scenario::single_session_scenarios(space, 3));
        candidates.extend(sample_scenarios(
            space,
            config.seed,
            config.random_candidates,
        ));
        let mut suite = Vec::new();
        let mut examined = 0;
        for scenario in candidates {
            if coverage.complete() && goals.unmet() == 0 {
                break;
            }
            examined += 1;
            let mut replay = Replay {
                trace: Vec::new(),
                marks: Vec::new(),
                empty: empty.clone(),
                coverage: empty.clone(),
                goals: goals.clone(),
            };
            let vm = Vm::new(compiled.clone(), scenario.clone());
            let _ = explore_observed(vm, &config.explore, &mut replay);
            let mut merged = coverage.clone();
            merged.merge(&replay.coverage);
            let adds_arc = merged.covered_arcs() > coverage.covered_arcs();
            let adds_goal = replay.goals.unmet() < goals.unmet();
            if adds_arc || adds_goal {
                coverage = merged;
                goals = replay.goals;
                suite.push(scenario);
            }
        }
        CoverageSuite {
            scenarios: suite,
            coverage,
            goals,
            candidates_examined: examined,
        }
    }

    /// [`random_suite`] over the replay fold.
    fn replay_random_suite(
        component: &Component,
        space: &ScenarioSpace,
        seed: u64,
        count: usize,
    ) -> CoverageSuite {
        let compiled = compile(component).unwrap();
        let empty = CoverageTracker::new(build_component_cofgs(component));
        let mut coverage = empty.clone();
        let mut goals = SuiteGoals::new(component);
        let scenarios = sample_scenarios(space, seed, count);
        for (i, scenario) in scenarios.iter().enumerate() {
            let mut vm = Vm::new(compiled.clone(), scenario.clone());
            let out = vm.run(&jcc_vm::RunConfig {
                scheduler: jcc_vm::Scheduler::Random(seed.wrapping_add(i as u64)),
                max_steps: 20_000,
            });
            replay_coverage(&mut coverage, &empty, &out.trace);
            replay_goals(&mut goals, &out.trace);
        }
        CoverageSuite {
            scenarios,
            coverage,
            goals,
            candidates_examined: count,
        }
    }

    /// Everything a suite reports: scenarios, selection cost, goals, and
    /// coverage down to per-arc hits and strays.
    fn suite_census(suite: &CoverageSuite) -> String {
        let c = &suite.coverage;
        let hits: Vec<(&str, &[u64])> = c
            .methods()
            .into_iter()
            .map(|m| (m, c.arc_hits(m).unwrap()))
            .collect();
        format!(
            "{:?}\n{}\n{:?}\n{:?}\n{:?}\n{hits:?}\nstrays {}",
            suite.scenarios,
            suite.candidates_examined,
            suite.goals,
            c.per_method(),
            c.uncovered(),
            c.strays
        )
    }

    #[test]
    fn path_folds_credit_only_observed_paths() {
        // Forced budgets cut paths that no observer sees: `max_states`
        // below the space's size, and depth bounds. Coverage and goals
        // must still equal the replay fold's, which sees only observed
        // paths.
        let c = examples::producer_consumer();
        let scenario = vec![
            jcc_vm::ThreadSpec {
                name: "a".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            jcc_vm::ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            jcc_vm::ThreadSpec {
                name: "p".into(),
                calls: vec![
                    CallSpec::new("send", vec![Value::Str("a".into())]),
                    CallSpec::new("send", vec![Value::Str("b".into())]),
                ],
            },
        ];
        let compiled = compile(&c).unwrap();
        let make = || Vm::new(compiled.clone(), scenario.clone());
        let states = jcc_vm::explore(make(), &ExploreConfig::default(), None).states;
        // Every depth bound up to 30 cuts some goal's first step off the
        // observed paths.
        let budgets = [states - 1, states / 2, states / 8]
            .map(|max_states| ExploreConfig {
                max_states,
                ..ExploreConfig::default()
            })
            .into_iter()
            .chain((1..=30).map(|max_depth| ExploreConfig {
                max_depth,
                ..ExploreConfig::default()
            }));
        let empty = CoverageTracker::new(build_component_cofgs(&c));
        for config in budgets {
            let mut fold = SuiteFold {
                coverage: empty.clone(),
                goals: SuiteGoals::new(&c),
            };
            let mut replay = Replay {
                trace: Vec::new(),
                marks: Vec::new(),
                empty: empty.clone(),
                coverage: empty.clone(),
                goals: SuiteGoals::new(&c),
            };
            let a = explore_observed(make(), &config, &mut fold);
            let b = explore_observed(make(), &config, &mut replay);
            assert_eq!(a.tally(), b.tally());
            assert!(a.truncated, "{config:?}");
            let folded = CoverageSuite {
                scenarios: Vec::new(),
                coverage: fold.coverage,
                goals: fold.goals,
                candidates_examined: 0,
            };
            let replayed = CoverageSuite {
                scenarios: Vec::new(),
                coverage: replay.coverage,
                goals: replay.goals,
                candidates_examined: 0,
            };
            assert_eq!(suite_census(&folded), suite_census(&replayed), "{config:?}");
        }
    }

    /// Pin the directed suite and the mutation study's random baseline
    /// (its seed, as many scenarios as the directed suite) of the
    /// registered component `name` against the replay fold.
    fn assert_suites_match_the_replay_fold(name: &str) {
        let component = jcc_components::zoo::full_corpus()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1;
        let space = crate::corpus::space_for(name).unwrap();
        let config = GreedyConfig::default();
        let directed = greedy_cover_suite(&component, &space, &config);
        let reference = replay_greedy_suite(&component, &space, &config);
        assert_eq!(suite_census(&directed), suite_census(&reference), "{name}");
        let count = directed.scenarios.len().max(1);
        let random = random_suite(&component, &space, 2003, count);
        let reference = replay_random_suite(&component, &space, 2003, count);
        assert_eq!(suite_census(&random), suite_census(&reference), "{name}");
    }

    #[test]
    fn suites_match_the_replay_fold() {
        // The registered components whose replayed suites are cheap in a
        // debug build, among them the two the mutation benchmark studies.
        for name in [
            "Semaphore",
            "FairSemaphore",
            "BargingSemaphore",
            "ReadersWriters",
        ] {
            assert_suites_match_the_replay_fold(name);
        }
    }

    /// All 13 registered components: ~25 s in a release build, minutes in
    /// a debug one. Run with `cargo test --release -p jcc-testgen --lib --
    /// --ignored`.
    #[test]
    #[ignore]
    fn every_registered_suite_matches_the_replay_fold() {
        for (name, _) in jcc_components::zoo::full_corpus() {
            assert_suites_match_the_replay_fold(name);
        }
    }

    #[test]
    fn goals_vacuous_without_waits() {
        let c = examples::racy_counter();
        let goals = SuiteGoals::new(&c);
        assert!(goals.complete());
        assert_eq!(goals.unmet(), 0);
    }
}
