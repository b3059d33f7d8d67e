//! The virtual machine: logical threads executing compiled components under
//! a pluggable scheduler, with full trace recording.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use fxhash::FxHasher;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jcc_petri::Transition;

use crate::compile::{CompiledComponent, Instr};
use state::Layout;

pub(crate) mod state;

/// Cached obs counter handles for the five Figure-1 transitions. The global
/// registry resets metrics *in place*, so these handles stay valid across
/// [`jcc_obs::Registry::reset`] calls.
fn transition_counter(t: Transition) -> &'static jcc_obs::Counter {
    static COUNTERS: std::sync::OnceLock<[jcc_obs::Counter; 5]> = std::sync::OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        let reg = jcc_obs::global();
        [
            reg.counter("vm.transition.T1"),
            reg.counter("vm.transition.T2"),
            reg.counter("vm.transition.T3"),
            reg.counter("vm.transition.T4"),
            reg.counter("vm.transition.T5"),
        ]
    });
    let idx = match t {
        Transition::T1 => 0,
        Transition::T2 => 1,
        Transition::T3 => 2,
        Transition::T4 => 3,
        Transition::T5 => 4,
    };
    &counters[idx]
}
use jcc_petri::event::{Event, EventKind};
use crate::value::{eval, Env, Value};

/// One method call a logical thread will perform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CallSpec {
    /// Method name.
    pub method: String,
    /// Argument values, matching the method's parameters.
    pub args: Vec<Value>,
}

impl CallSpec {
    /// Convenience constructor.
    pub fn new(method: impl Into<String>, args: Vec<Value>) -> Self {
        CallSpec {
            method: method.into(),
            args,
        }
    }
}

/// A logical thread: a name and the calls it performs in order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadSpec {
    /// Display name.
    pub name: String,
    /// Calls performed back-to-back.
    pub calls: Vec<CallSpec>,
}

/// The outcome of one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallResult {
    /// Method name.
    pub method: String,
    /// Step at which the call began.
    pub started_step: usize,
    /// Step at which the call returned (`None` = never completed).
    pub completed_step: Option<usize>,
    /// Returned value, if the method returned one and completed.
    pub returned: Option<Value>,
}

impl CallResult {
    /// True if the call never completed within the run.
    pub fn suspended(&self) -> bool {
        self.completed_step.is_none()
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every thread finished all its calls.
    Completed,
    /// No thread could make progress: the classic deadlock picture.
    /// Threads in `waiting` are suspended in a wait set (FF-T5 / EF-T3
    /// exposure); threads in `blocked` are stuck acquiring a lock (FF-T2).
    Deadlock {
        /// Thread indices suspended in wait sets.
        waiting: Vec<usize>,
        /// Thread indices blocked at lock acquisition.
        blocked: Vec<usize>,
    },
    /// The step budget was exhausted (endless loop — FF-T4 territory when a
    /// lock is held, livelock otherwise).
    StepLimit,
    /// A thread faulted (runtime error / IllegalMonitorState); remaining
    /// threads were run to quiescence.
    Faulted {
        /// Faulting thread index.
        thread: usize,
        /// Fault description.
        message: String,
    },
}

impl Verdict {
    /// True when the run ended without completing all calls normally.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Completed)
    }
}

/// Scheduling policies.
#[derive(Debug, Clone)]
pub enum Scheduler {
    /// Rotate through runnable threads.
    RoundRobin,
    /// Seeded pseudo-random choice among runnable threads.
    Random(u64),
    /// At step *i*, prefer thread `plan[i]` when runnable, else fall back to
    /// the lowest-index runnable thread. Deterministic replay of a designed
    /// schedule.
    Fixed(Vec<usize>),
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scheduling policy.
    pub scheduler: Scheduler,
    /// Step budget.
    pub max_steps: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scheduler: Scheduler::RoundRobin,
            max_steps: 20_000,
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub verdict: Verdict,
    /// Steps executed.
    pub steps: usize,
    /// The full event trace.
    pub trace: Vec<Event>,
    /// Per thread, per call: results.
    pub results: Vec<Vec<CallResult>>,
    /// Thread display names, indexed by the trace's thread indices.
    pub thread_names: Vec<String>,
    /// Lock display names, indexed by the trace's lock indices
    /// (index 0 is `this`).
    pub lock_names: Vec<String>,
}

impl RunOutcome {
    /// All call results flattened with their thread index.
    pub fn all_calls(&self) -> impl Iterator<Item = (usize, &CallResult)> {
        self.results
            .iter()
            .enumerate()
            .flat_map(|(t, rs)| rs.iter().map(move |r| (t, r)))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Between calls (or before the first).
    Idle,
    /// Executing instructions.
    Running,
    /// Issued T1, waiting for the lock (model place B).
    BlockedEntry { lock: usize },
    /// In a wait set (model place D). `holds` restores reentrancy depth.
    Waiting { lock: usize, holds: u32 },
    /// Notified, re-acquiring the lock (back in place B).
    Reacquire { lock: usize, holds: u32 },
    /// All calls done.
    Finished,
    /// Runtime fault; thread is dead.
    Faulted,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    method_idx: usize,
    pc: usize,
    locals: BTreeMap<String, Value>,
    ret_reg: Option<Value>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadState {
    call_idx: usize,
    frame: Option<Frame>,
    status: Status,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct LockState {
    owner: Option<usize>,
    count: u32,
    /// FIFO wait set of thread indices.
    wait_set: Vec<usize>,
}

/// The virtual machine. Clone it to snapshot the whole execution state
/// (used by the exhaustive explorer). The compiled component, thread
/// specs and state layout are immutable for the life of the machine and
/// shared behind `Arc`s, so a snapshot copies only the mutable state
/// (fields, locks, frames, trace). The explorer drains each step's events
/// onto its own path trace, so the states it clones carry no trace.
#[derive(Debug, Clone)]
pub struct Vm {
    component: Arc<CompiledComponent>,
    specs: Arc<[ThreadSpec]>,
    layout: Arc<Layout>,
    fields: BTreeMap<String, Value>,
    locks: Vec<LockState>,
    threads: Vec<ThreadState>,
    trace: Vec<Event>,
    results: Vec<Vec<CallResult>>,
    steps: usize,
    fault: Option<(usize, String)>,
    last_scheduled: usize,
    /// Per-thread hash of the last coverage marker passed. Part of the
    /// state key so that exhaustive exploration distinguishes states that
    /// differ only in which CoFG node a thread last crossed (coverage is a
    /// path property; without this, state dedup would under-count arcs).
    last_marker: Vec<u64>,
}

impl Vm {
    /// Create a VM over `component` with the given logical threads.
    pub fn new(component: CompiledComponent, threads: Vec<ThreadSpec>) -> Self {
        let fields = component.fields.iter().cloned().collect();
        let locks = component
            .locks
            .iter()
            .map(|_| LockState {
                owner: None,
                count: 0,
                wait_set: Vec::new(),
            })
            .collect();
        let thread_states = threads
            .iter()
            .map(|_| ThreadState {
                call_idx: 0,
                frame: None,
                status: Status::Idle,
            })
            .collect();
        let results = threads.iter().map(|_| Vec::new()).collect();
        let n_threads = threads.len();
        Vm {
            layout: Arc::new(Layout::of(&component)),
            component: Arc::new(component),
            specs: threads.into(),
            fields,
            locks,
            threads: thread_states,
            trace: Vec::new(),
            results,
            steps: 0,
            fault: None,
            last_scheduled: usize::MAX,
            last_marker: vec![0; n_threads],
        }
    }

    /// Thread display name.
    pub fn thread_name(&self, idx: usize) -> &str {
        &self.specs[idx].name
    }

    /// Number of logical threads.
    pub fn thread_count(&self) -> usize {
        self.specs.len()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Current shared field values (for assertions in tests).
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }

    /// Move the trace's events onto the end of `out`, leaving the
    /// machine's own trace empty (the explorer keeps one path trace
    /// instead of one per state).
    pub(crate) fn drain_trace_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.trace);
    }

    /// Per thread, per call: the results so far.
    pub fn results(&self) -> &[Vec<CallResult>] {
        &self.results
    }

    /// Indices of threads that can take a step right now.
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&i| self.is_runnable(i))
            .collect()
    }

    /// True when thread `i` can take a step right now.
    pub(crate) fn is_runnable(&self, i: usize) -> bool {
        let t = &self.threads[i];
        match &t.status {
            Status::Finished | Status::Faulted | Status::Waiting { .. } => false,
            Status::Idle => t.call_idx < self.specs[i].calls.len(),
            Status::BlockedEntry { lock } | Status::Reacquire { lock, .. } => {
                self.locks[*lock].owner.is_none()
            }
            Status::Running => true,
        }
    }

    /// True when every thread has finished (or faulted).
    pub fn quiescent(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished | Status::Faulted))
    }

    fn emit(&mut self, thread: usize, kind: EventKind) {
        match &kind {
            EventKind::MethodStart { method } => {
                self.last_marker[thread] = marker_hash(method, None, false, 1);
            }
            EventKind::MethodEnd { method } => {
                self.last_marker[thread] = marker_hash(method, None, false, 2);
            }
            EventKind::Site { method, path, exit } => {
                self.last_marker[thread] = marker_hash(method, Some(path), *exit, 3);
            }
            _ => {}
        }
        if jcc_obs::enabled() {
            if let EventKind::Transition { t, .. } = &kind {
                transition_counter(*t).inc();
            }
        }
        self.trace.push(Event {
            seq: self.steps as u64,
            thread: thread as u64,
            kind,
        });
    }

    /// Record a Figure-1 firing of `t` on `lock` by thread `idx`.
    fn fire(&mut self, idx: usize, t: Transition, lock: usize) {
        self.emit(
            idx,
            EventKind::Transition {
                t,
                lock: lock as u64,
            },
        );
    }

    /// A 64-bit hash of the complete execution state: the global section
    /// and every thread's section (see `Vm::encode_thread`), in thread
    /// order.
    /// The trace, the step counter and call-completion steps are
    /// deliberately excluded. The explorer does not dedup on this hash; it
    /// interns the sections themselves.
    pub fn state_key(&self) -> u64 {
        let mut words = Vec::with_capacity(64);
        self.encode_global(&mut words);
        for i in 0..self.threads.len() {
            self.encode_thread(i, &mut words);
        }
        fxhash::hash64(&words)
    }

    /// Groups of interchangeable thread indices: threads whose
    /// [`ThreadSpec`]s are equal (same name, same call sequence) behave
    /// identically under every schedule, so permuting them is an
    /// automorphism of the transition system. Groups preserve first-index
    /// order; singletons are dropped (no permutation to exploit).
    pub fn symmetry_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.specs.len() {
            match groups
                .iter_mut()
                .find(|g| self.specs[g[0]] == self.specs[i])
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups.retain(|g| g.len() > 1);
        groups
    }

    /// True when thread `i`'s next step is *thread-local*: it touches
    /// neither locks nor shared fields and cannot fault, so it commutes
    /// with every step of every other thread. Idle threads qualify when
    /// their next call resolves cleanly (method exists, arity matches) —
    /// `begin_call` then only builds the thread's own frame. Used by the
    /// explorer's ample-set reduction.
    pub fn is_local_step(&self, i: usize) -> bool {
        let t = &self.threads[i];
        match &t.status {
            Status::Idle => {
                let Some(call) = self.specs[i].calls.get(t.call_idx) else {
                    return false;
                };
                match self.component.method_index(&call.method) {
                    Some(mi) => self.component.methods[mi].params.len() == call.args.len(),
                    None => false,
                }
            }
            Status::Running => {
                let frame = t.frame.as_ref().expect("running frame");
                self.component.methods[frame.method_idx].code[frame.pc].is_thread_local()
            }
            _ => false,
        }
    }

    /// Execute one step of thread `idx`. Panics if the thread is not
    /// runnable (callers choose from [`runnable`](Self::runnable)).
    pub fn step(&mut self, idx: usize) {
        assert!(self.is_runnable(idx), "thread {idx} is not runnable");
        self.steps += 1;
        match self.threads[idx].status.clone() {
            Status::Idle => self.begin_call(idx),
            Status::BlockedEntry { lock } => {
                self.acquire(idx, lock, 1);
                self.threads[idx].status = Status::Running;
            }
            Status::Reacquire { lock, holds } => {
                self.acquire(idx, lock, holds);
                self.threads[idx].status = Status::Running;
            }
            Status::Running => self.exec_instr(idx),
            s => unreachable!("unrunnable status {s:?}"),
        }
    }

    fn begin_call(&mut self, idx: usize) {
        let call = self.specs[idx].calls[self.threads[idx].call_idx].clone();
        let Some(mi) = self.component.method_index(&call.method) else {
            self.fault_thread(idx, format!("no such method `{}`", call.method));
            return;
        };
        let method = &self.component.methods[mi];
        if method.params.len() != call.args.len() {
            self.fault_thread(
                idx,
                format!(
                    "`{}` expects {} arguments, got {}",
                    call.method,
                    method.params.len(),
                    call.args.len()
                ),
            );
            return;
        }
        let locals: BTreeMap<String, Value> = method
            .params
            .iter()
            .cloned()
            .zip(call.args.iter().cloned())
            .collect();
        self.emit(
            idx,
            EventKind::MethodStart {
                method: call.method.clone(),
            },
        );
        self.results[idx].push(CallResult {
            method: call.method.clone(),
            started_step: self.steps,
            completed_step: None,
            returned: None,
        });
        self.threads[idx].frame = Some(Frame {
            method_idx: mi,
            pc: 0,
            locals,
            ret_reg: None,
        });
        self.threads[idx].status = Status::Running;
    }

    fn acquire(&mut self, idx: usize, lock: usize, holds: u32) {
        debug_assert!(self.locks[lock].owner.is_none());
        self.locks[lock].owner = Some(idx);
        self.locks[lock].count = holds;
        self.fire(idx, Transition::T2, lock);
    }

    fn fault_thread(&mut self, idx: usize, message: String) {
        self.emit(
            idx,
            EventKind::Fault {
                message: message.clone(),
            },
        );
        // Release anything the thread holds so others can continue —
        // mirrors Java unwinding synchronized blocks on an exception.
        let mut released = Vec::new();
        for (li, lock) in self.locks.iter_mut().enumerate() {
            if lock.owner == Some(idx) {
                lock.owner = None;
                lock.count = 0;
                released.push(li);
            }
        }
        for li in released {
            self.fire(idx, Transition::T4, li);
        }
        self.threads[idx].status = Status::Faulted;
        self.threads[idx].frame = None;
        if self.fault.is_none() {
            self.fault = Some((idx, message));
        }
    }

    fn current_method_name(&self, idx: usize) -> String {
        let frame = self.threads[idx].frame.as_ref().expect("running frame");
        self.component.methods[frame.method_idx].name.clone()
    }

    fn eval_in_frame(&mut self, idx: usize, expr: &jcc_model::ast::Expr) -> Option<Value> {
        // Log field reads for the race detectors.
        let mut reads = Vec::new();
        collect_field_reads(expr, &mut reads);
        for field in reads {
            self.emit(idx, EventKind::Read { var: field });
        }
        let frame = self.threads[idx].frame.as_ref().expect("running frame");
        let env = Env {
            fields: &self.fields,
            locals: &frame.locals,
        };
        match eval(expr, &env) {
            Ok(v) => Some(v),
            Err(e) => {
                self.fault_thread(idx, e.message);
                None
            }
        }
    }

    fn exec_instr(&mut self, idx: usize) {
        let frame = self.threads[idx].frame.as_ref().expect("running frame");
        let mi = frame.method_idx;
        let pc = frame.pc;
        // A refcount bump on the shared component lets the instruction be
        // borrowed while the machine mutates; the per-step deep clone of
        // the instruction (strings + expression trees) was a hot-path cost.
        let component = Arc::clone(&self.component);
        match &component.methods[mi].code[pc] {
            Instr::EnterSync { lock, path } => {
                let lock = *lock;
                if let Some(p) = path {
                    self.emit(
                        idx,
                        EventKind::Site {
                            method: self.current_method_name(idx),
                            path: p.clone(),
                            exit: false,
                        },
                    );
                }
                let l = &self.locks[lock];
                if l.owner == Some(idx) {
                    self.locks[lock].count += 1;
                    self.advance(idx);
                } else {
                    self.fire(idx, Transition::T1, lock);
                    self.advance(idx);
                    if self.locks[lock].owner.is_none() {
                        self.acquire(idx, lock, 1);
                    } else {
                        self.threads[idx].status = Status::BlockedEntry { lock };
                    }
                }
            }
            Instr::ExitSync { lock, path } => {
                let lock = *lock;
                if self.locks[lock].owner != Some(idx) {
                    self.fault_thread(
                        idx,
                        format!(
                            "IllegalMonitorStateException: release of `{}` by non-owner",
                            self.component.locks[lock]
                        ),
                    );
                    return;
                }
                if let Some(p) = path {
                    self.emit(
                        idx,
                        EventKind::Site {
                            method: self.current_method_name(idx),
                            path: p.clone(),
                            exit: true,
                        },
                    );
                }
                self.locks[lock].count -= 1;
                if self.locks[lock].count == 0 {
                    self.locks[lock].owner = None;
                    self.fire(idx, Transition::T4, lock);
                }
                self.advance(idx);
            }
            Instr::Wait { lock, path } => {
                let lock = *lock;
                if self.locks[lock].owner != Some(idx) {
                    self.fault_thread(
                        idx,
                        format!(
                            "IllegalMonitorStateException: wait on `{}` without lock",
                            self.component.locks[lock]
                        ),
                    );
                    return;
                }
                self.emit(
                    idx,
                    EventKind::Site {
                        method: self.current_method_name(idx),
                        path: path.clone(),
                        exit: false,
                    },
                );
                let holds = self.locks[lock].count;
                self.locks[lock].owner = None;
                self.locks[lock].count = 0;
                self.locks[lock].wait_set.push(idx);
                self.fire(idx, Transition::T3, lock);
                self.advance(idx);
                self.threads[idx].status = Status::Waiting { lock, holds };
            }
            Instr::Notify { lock, all, path } => {
                let (lock, all) = (*lock, *all);
                if self.locks[lock].owner != Some(idx) {
                    self.fault_thread(
                        idx,
                        format!(
                            "IllegalMonitorStateException: notify on `{}` without lock",
                            self.component.locks[lock]
                        ),
                    );
                    return;
                }
                self.emit(
                    idx,
                    EventKind::Site {
                        method: self.current_method_name(idx),
                        path: path.clone(),
                        exit: false,
                    },
                );
                let waiters = self.locks[lock].wait_set.len();
                self.emit(
                    idx,
                    EventKind::Notify {
                        lock: lock as u64,
                        all,
                        waiters,
                    },
                );
                let to_wake: Vec<usize> = if all {
                    std::mem::take(&mut self.locks[lock].wait_set)
                } else if waiters > 0 {
                    vec![self.locks[lock].wait_set.remove(0)]
                } else {
                    Vec::new()
                };
                for w in to_wake {
                    let Status::Waiting { lock: wl, holds } = self.threads[w].status.clone()
                    else {
                        unreachable!("wait-set member not waiting");
                    };
                    debug_assert_eq!(wl, lock);
                    self.fire(w, Transition::T5, lock);
                    self.threads[w].status = Status::Reacquire { lock, holds };
                }
                self.advance(idx);
            }
            Instr::StoreField { name, value } => {
                if let Some(v) = self.eval_in_frame(idx, value) {
                    self.emit(idx, EventKind::Write { var: name.clone() });
                    self.fields.insert(name.clone(), v);
                    self.advance(idx);
                }
            }
            Instr::StoreLocal { name, value } => {
                if let Some(v) = self.eval_in_frame(idx, value) {
                    let frame = self.threads[idx].frame.as_mut().expect("running frame");
                    frame.locals.insert(name.clone(), v);
                    self.advance(idx);
                }
            }
            Instr::JumpIfFalse { cond, target } => {
                if let Some(v) = self.eval_in_frame(idx, cond) {
                    match v.as_bool() {
                        Ok(true) => self.advance(idx),
                        Ok(false) => self.jump(idx, *target),
                        Err(e) => self.fault_thread(idx, e.message),
                    }
                }
            }
            Instr::Jump { target } => self.jump(idx, *target),
            Instr::EvalRet { value } => {
                let v = match value {
                    Some(e) => match self.eval_in_frame(idx, e) {
                        Some(v) => Some(v),
                        None => return, // faulted
                    },
                    None => None,
                };
                let frame = self.threads[idx].frame.as_mut().expect("running frame");
                frame.ret_reg = v;
                self.advance(idx);
            }
            Instr::Ret => {
                let method = self.current_method_name(idx);
                let frame = self.threads[idx].frame.take().expect("running frame");
                self.emit(idx, EventKind::MethodEnd { method });
                let result = self.results[idx]
                    .last_mut()
                    .expect("call result opened at begin_call");
                result.completed_step = Some(self.steps);
                result.returned = frame.ret_reg;
                self.threads[idx].call_idx += 1;
                self.threads[idx].status =
                    if self.threads[idx].call_idx < self.specs[idx].calls.len() {
                        Status::Idle
                    } else {
                        Status::Finished
                    };
            }
        }
    }

    fn advance(&mut self, idx: usize) {
        if let Some(frame) = self.threads[idx].frame.as_mut() {
            frame.pc += 1;
        }
    }

    fn jump(&mut self, idx: usize, target: usize) {
        if let Some(frame) = self.threads[idx].frame.as_mut() {
            frame.pc = target;
        }
    }

    /// The verdict if the machine is in a terminal state (quiescent or
    /// globally blocked), else `None`.
    pub fn current_verdict(&self) -> Option<Verdict> {
        if self.quiescent() {
            return Some(match &self.fault {
                Some((thread, message)) => Verdict::Faulted {
                    thread: *thread,
                    message: message.clone(),
                },
                None => Verdict::Completed,
            });
        }
        if !(0..self.threads.len()).any(|i| self.is_runnable(i)) {
            // A fault that stranded other threads is the root cause; report
            // it rather than the secondary deadlock.
            if let Some((thread, message)) = &self.fault {
                return Some(Verdict::Faulted {
                    thread: *thread,
                    message: message.clone(),
                });
            }
            let mut waiting = Vec::new();
            let mut blocked = Vec::new();
            for (i, t) in self.threads.iter().enumerate() {
                match t.status {
                    Status::Waiting { .. } => waiting.push(i),
                    Status::BlockedEntry { .. } | Status::Reacquire { .. } => blocked.push(i),
                    _ => {}
                }
            }
            return Some(Verdict::Deadlock { waiting, blocked });
        }
        None
    }

    /// Package the current state with the given verdict and `trace` in
    /// place of the machine's own (the explorer's witnesses carry the
    /// path trace).
    pub(crate) fn outcome_with_trace(&self, verdict: Verdict, trace: Vec<Event>) -> RunOutcome {
        RunOutcome {
            verdict,
            steps: self.steps,
            trace,
            results: self.results.clone(),
            thread_names: self.specs.iter().map(|s| s.name.clone()).collect(),
            lock_names: self.component.locks.clone(),
        }
    }

    /// Run to completion (or deadlock / step budget) under `config`.
    pub fn run(&mut self, config: &RunConfig) -> RunOutcome {
        let mut rng = match &config.scheduler {
            Scheduler::Random(seed) => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        };
        let mut plan_pos = 0usize;
        while self.steps < config.max_steps {
            if self.quiescent() {
                return self.finish(match &self.fault {
                    Some((thread, message)) => Verdict::Faulted {
                        thread: *thread,
                        message: message.clone(),
                    },
                    None => Verdict::Completed,
                });
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                let verdict = self
                    .current_verdict()
                    .expect("no runnable threads is terminal");
                return self.finish(verdict);
            }
            let chosen = match &config.scheduler {
                Scheduler::RoundRobin => {
                    let next = runnable
                        .iter()
                        .copied()
                        .find(|&i| i > self.last_scheduled)
                        .unwrap_or(runnable[0]);
                    self.last_scheduled = next;
                    next
                }
                Scheduler::Random(_) => {
                    let rng = rng.as_mut().expect("rng for random scheduler");
                    runnable[rng.gen_range(0..runnable.len())]
                }
                Scheduler::Fixed(plan) => {
                    let preferred = plan.get(plan_pos).copied();
                    plan_pos += 1;
                    match preferred {
                        Some(p) if runnable.contains(&p) => p,
                        _ => runnable[0],
                    }
                }
            };
            self.step(chosen);
        }
        self.finish(Verdict::StepLimit)
    }

    fn finish(&mut self, verdict: Verdict) -> RunOutcome {
        self.outcome_with_trace(verdict, self.trace.clone())
    }
}

fn marker_hash(method: &str, path: Option<&Vec<usize>>, exit: bool, tag: u8) -> u64 {
    let mut h = FxHasher::default();
    tag.hash(&mut h);
    method.hash(&mut h);
    path.hash(&mut h);
    exit.hash(&mut h);
    h.finish()
}

fn collect_field_reads(expr: &jcc_model::ast::Expr, out: &mut Vec<String>) {
    use jcc_model::ast::Expr as E;
    match expr {
        E::Field(name) => out.push(name.clone()),
        E::Unary(_, e) => collect_field_reads(e, out),
        E::Binary(_, a, b) => {
            collect_field_reads(a, out);
            collect_field_reads(b, out);
        }
        E::Call(_, args) => {
            for a in args {
                collect_field_reads(a, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use super::state::StateTable;
    use jcc_model::examples;

    fn pc_vm(threads: Vec<ThreadSpec>) -> Vm {
        let c = examples::producer_consumer();
        Vm::new(compile(&c).unwrap(), threads)
    }

    fn spec(name: &str, calls: Vec<CallSpec>) -> ThreadSpec {
        ThreadSpec {
            name: name.to_string(),
            calls,
        }
    }

    #[test]
    fn symmetry_groups_require_identical_specs() {
        let recv = || vec![CallSpec::new("receive", vec![])];
        let vm = pc_vm(vec![
            spec("c", recv()),
            spec("p", vec![CallSpec::new("send", vec![Value::Str("a".into())])]),
            spec("c", recv()),
            spec("c", recv()),
        ]);
        assert_eq!(vm.symmetry_groups(), vec![vec![0, 2, 3]]);
        // Different names (or call lists) break interchangeability.
        let vm = pc_vm(vec![spec("c1", recv()), spec("c2", recv())]);
        assert!(vm.symmetry_groups().is_empty());
    }

    #[test]
    fn permuted_states_share_a_symmetric_key() {
        let recv = || vec![CallSpec::new("receive", vec![])];
        let vm = pc_vm(vec![
            spec("c", recv()),
            spec("c", recv()),
            spec("p", vec![CallSpec::new("send", vec![Value::Str("a".into())])]),
        ]);
        assert_eq!(vm.symmetry_groups(), vec![vec![0, 1]]);
        let mut table = StateTable::new(&vm, true);
        // Start thread 0 in one copy, thread 1 in the other: the states
        // are thread-permutations of each other.
        let mut a = vm.clone();
        a.step(0);
        let mut b = vm.clone();
        b.step(1);
        assert_ne!(a.state_key(), b.state_key());
        let (id, new) = table.intern(&a);
        assert!(new);
        assert_eq!(table.intern(&b), (id, false));
        // Advance both copies identically: ids stay in lockstep, and a
        // genuinely different state (the producer moved) gets a new id.
        a.step(0);
        b.step(1);
        let (id, _) = table.intern(&a);
        assert_eq!(table.intern(&b), (id, false));
        a.step(2);
        assert!(table.intern(&a).1);
    }

    #[test]
    fn local_steps_are_exactly_the_commuting_ones() {
        let recv = || vec![CallSpec::new("receive", vec![])];
        let vm = pc_vm(vec![spec("c", recv()), spec("p", recv())]);
        // Idle with a resolvable call: local (begin_call builds only the
        // thread's own frame).
        assert!(vm.is_local_step(0));
        let mut vm = vm;
        vm.step(0);
        // Now Running at EnterSync (synchronized method): not local.
        assert!(!vm.is_local_step(0));
        // A thread whose call cannot resolve is not a local step.
        let bad = pc_vm(vec![spec("x", vec![CallSpec::new("nope", vec![])])]);
        assert!(!bad.is_local_step(0));
    }

    #[test]
    fn single_send_completes() {
        let mut vm = pc_vm(vec![spec(
            "producer",
            vec![CallSpec::new("send", vec![Value::Str("hi".into())])],
        )]);
        let out = vm.run(&RunConfig::default());
        assert_eq!(out.verdict, Verdict::Completed);
        assert_eq!(vm.field("curPos"), Some(&Value::Int(2)));
        assert_eq!(vm.field("contents"), Some(&Value::Str("hi".into())));
        assert!(!out.results[0][0].suspended());
    }

    #[test]
    fn receive_alone_deadlocks_waiting() {
        // A lone consumer waits forever: FF-T5's "only one thread in the
        // system and thus waits forever".
        let mut vm = pc_vm(vec![spec(
            "consumer",
            vec![CallSpec::new("receive", vec![])],
        )]);
        let out = vm.run(&RunConfig::default());
        assert_eq!(
            out.verdict,
            Verdict::Deadlock {
                waiting: vec![0],
                blocked: vec![]
            }
        );
        assert!(out.results[0][0].suspended());
    }

    #[test]
    fn producer_consumer_handoff() {
        let mut vm = pc_vm(vec![
            spec("consumer", vec![CallSpec::new("receive", vec![])]),
            spec(
                "producer",
                vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            ),
        ]);
        let out = vm.run(&RunConfig::default());
        assert_eq!(out.verdict, Verdict::Completed);
        assert_eq!(
            out.results[0][0].returned,
            Some(Value::Str("a".into()))
        );
    }

    #[test]
    fn characters_received_in_order() {
        let mut vm = pc_vm(vec![
            spec(
                "producer",
                vec![CallSpec::new("send", vec![Value::Str("abc".into())])],
            ),
            spec(
                "consumer",
                vec![
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                ],
            ),
        ]);
        let out = vm.run(&RunConfig::default());
        assert_eq!(out.verdict, Verdict::Completed);
        let received: Vec<String> = out.results[1]
            .iter()
            .map(|r| match &r.returned {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("expected char, got {other:?}"),
            })
            .collect();
        assert_eq!(received, vec!["a", "b", "c"]);
    }

    #[test]
    fn random_schedules_are_reproducible() {
        let mk = || {
            pc_vm(vec![
                spec(
                    "p",
                    vec![CallSpec::new("send", vec![Value::Str("xyz".into())])],
                ),
                spec(
                    "c",
                    vec![
                        CallSpec::new("receive", vec![]),
                        CallSpec::new("receive", vec![]),
                        CallSpec::new("receive", vec![]),
                    ],
                ),
            ])
        };
        let cfg = RunConfig {
            scheduler: Scheduler::Random(1234),
            max_steps: 20_000,
        };
        let out1 = mk().run(&cfg);
        let out2 = mk().run(&cfg);
        assert_eq!(out1.trace, out2.trace);
        assert_eq!(out1.steps, out2.steps);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let mut vm = pc_vm(vec![
                spec(
                    "p",
                    vec![CallSpec::new("send", vec![Value::Str("xyz".into())])],
                ),
                spec("c", vec![CallSpec::new("receive", vec![])]),
            ]);
            vm.run(&RunConfig {
                scheduler: Scheduler::Random(seed),
                max_steps: 20_000,
            })
            .trace
        };
        // Not guaranteed for every pair, but these seeds interleave
        // differently (stable because StdRng is deterministic).
        let traces: Vec<_> = (0..8).map(mk).collect();
        assert!(
            traces.iter().any(|t| *t != traces[0]),
            "eight seeds all produced identical traces"
        );
    }

    #[test]
    fn two_receivers_one_short_send() {
        // Two consumers, one 1-char send: one consumer must stay suspended.
        let mut vm = pc_vm(vec![
            spec("c1", vec![CallSpec::new("receive", vec![])]),
            spec("c2", vec![CallSpec::new("receive", vec![])]),
            spec(
                "p",
                vec![CallSpec::new("send", vec![Value::Str("x".into())])],
            ),
        ]);
        let out = vm.run(&RunConfig::default());
        match out.verdict {
            Verdict::Deadlock { waiting, blocked } => {
                assert_eq!(waiting.len(), 1);
                assert!(blocked.is_empty());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn lock_order_deadlock_detected() {
        let c = examples::lock_order_deadlock();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                spec("fwd", vec![CallSpec::new("forward", vec![])]),
                spec("bwd", vec![CallSpec::new("backward", vec![])]),
            ],
        );
        // A fixed schedule forcing the deadlock: each thread acquires its
        // first lock, then tries the other's.
        // Steps per thread: Idle->begin, EnterSync outer (uncontended: one
        // step), EnterSync inner (request, blocks).
        let out = vm.run(&RunConfig {
            scheduler: Scheduler::Fixed(vec![0, 0, 1, 1, 0, 1]),
            max_steps: 10_000,
        });
        match out.verdict {
            Verdict::Deadlock { waiting, blocked } => {
                assert!(waiting.is_empty());
                assert_eq!(blocked, vec![0, 1]);
            }
            other => panic!("expected lock-order deadlock, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_on_infinite_loop() {
        let src = "class L { synchronized fn spin() { while (true) { skip; } } }";
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![spec("t", vec![CallSpec::new("spin", vec![])])],
        );
        let out = vm.run(&RunConfig {
            scheduler: Scheduler::RoundRobin,
            max_steps: 500,
        });
        assert_eq!(out.verdict, Verdict::StepLimit);
    }

    #[test]
    fn runtime_fault_reported() {
        let src = r#"
            class F {
              var s: str = "ab";
              synchronized fn bad() -> str {
                return charAt(s, 99);
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![spec("t", vec![CallSpec::new("bad", vec![])])],
        );
        let out = vm.run(&RunConfig::default());
        match out.verdict {
            Verdict::Faulted { thread: 0, message } => {
                assert!(message.contains("out of bounds"), "{message}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn fault_releases_held_locks() {
        let src = r#"
            class F {
              var s: str = "ab";
              synchronized fn bad() -> str { return charAt(s, 99); }
              synchronized fn ok() -> int { return 1; }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                spec("t1", vec![CallSpec::new("bad", vec![])]),
                spec("t2", vec![CallSpec::new("ok", vec![])]),
            ],
        );
        let out = vm.run(&RunConfig::default());
        // t2 must complete even though t1 faulted inside the monitor.
        assert_eq!(out.results[1][0].returned, Some(Value::Int(1)));
    }

    #[test]
    fn notify_fifo_wakes_longest_waiter() {
        let src = r#"
            class N {
              var go: int = 0;
              synchronized fn block() -> int {
                while (go == 0) { wait; }
                go = go - 1;
                return 1;
              }
              synchronized fn release_one() {
                go = go + 1;
                notify;
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                spec("w1", vec![CallSpec::new("block", vec![])]),
                spec("w2", vec![CallSpec::new("block", vec![])]),
                spec("r", vec![CallSpec::new("release_one", vec![])]),
            ],
        );
        // Run w1 to its wait, then w2, then release one.
        let out = vm.run(&RunConfig {
            scheduler: Scheduler::Fixed(vec![
                0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0,
            ]),
            max_steps: 10_000,
        });
        // w1 (first waiter) completed; w2 still waiting.
        match out.verdict {
            Verdict::Deadlock { waiting, .. } => assert_eq!(waiting, vec![1]),
            other => panic!("expected one leftover waiter, got {other:?}"),
        }
        assert_eq!(out.results[0][0].returned, Some(Value::Int(1)));
        assert!(out.results[1][0].suspended());
    }

    #[test]
    fn state_key_stable_and_sensitive() {
        let vm1 = pc_vm(vec![spec(
            "p",
            vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        )]);
        let vm2 = pc_vm(vec![spec(
            "p",
            vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        )]);
        assert_eq!(vm1.state_key(), vm2.state_key());
        let mut vm3 = pc_vm(vec![spec(
            "p",
            vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        )]);
        vm3.step(0);
        assert_ne!(vm1.state_key(), vm3.state_key());
    }

    #[test]
    fn trace_contains_figure1_transitions() {
        let mut vm = pc_vm(vec![spec(
            "p",
            vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        )]);
        let out = vm.run(&RunConfig::default());
        let transitions: Vec<Transition> = out
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Transition { t, .. } => Some(t),
                _ => None,
            })
            .collect();
        // Uncontended send: T1, T2 (enter), T4 (exit). No wait involved.
        assert_eq!(
            transitions,
            vec![Transition::T1, Transition::T2, Transition::T4]
        );
    }

    #[test]
    fn mismatched_arity_faults() {
        let mut vm = pc_vm(vec![spec("p", vec![CallSpec::new("send", vec![])])]);
        let out = vm.run(&RunConfig::default());
        assert!(matches!(out.verdict, Verdict::Faulted { .. }));
    }
}
