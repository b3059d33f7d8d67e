//! The virtual machine: logical threads executing compiled components under
//! a pluggable scheduler, with full trace recording.
//!
//! A [`Vm`]'s mutable state is a handful of flat buffers laid out by
//! `compile`: field slots, one fixed array of local slots per thread,
//! per-thread control records, `(owner, count)` lock pairs and one
//! fixed-size record per spec call. Everything immutable — the compiled
//! component, the thread specs and each spec call's resolved method — is
//! shared behind one `Arc`, so a snapshot copies slots and words, and a
//! value never allocates to copy (the `state` module says how a state is
//! encoded and interned).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jcc_petri::event::{Event, EventKind};
use jcc_petri::Transition;

use crate::compile::{CompiledComponent, Instr, Operand, Site, SiteId};
use crate::value::{eval, Env, Scope, Slot, Value};

pub(crate) mod state;
mod undo;

pub(crate) use undo::UndoLog;

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
    &counters[t.index()]
}

/// What a machine's steps leave besides the new state: each step's
/// events, and its Figure-1 firings in the obs `vm.transition.*` counters
/// (while observation is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recording {
    /// Both: every machine starts so, and a clone is always so.
    Full,
    /// Only the counters: the explorer's machine when its observer reads
    /// no events. Its steps build no event at all.
    CountsOnly,
    /// Only the events: a replay of steps already counted, which rebuilds
    /// a witness's trace.
    EventsOnly,
}

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
    /// Threads in `waiting` are suspended in wait sets (FF-T5 / EF-T3
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Between calls (or before the first).
    Idle,
    /// Executing instructions.
    Running,
    /// Issued T1, waiting for the lock (model place B).
    BlockedEntry { lock: usize },
    /// In `lock`'s wait set (model place D). `holds` restores reentrancy
    /// depth; `ticket` orders the wait set, the lowest ticket having
    /// waited longest.
    Waiting {
        lock: usize,
        holds: u32,
        ticket: u64,
    },
    /// Notified, re-acquiring the lock (back in place B).
    Reacquire { lock: usize, holds: u32 },
    /// All calls done.
    Finished,
    /// Runtime fault; thread is dead.
    Faulted,
}

/// Where a running thread is: which method, which instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    method_idx: usize,
    pc: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadState {
    call_idx: usize,
    status: Status,
    frame: Option<Frame>,
    /// The return register of the call in progress.
    ret_reg: Slot,
    /// The last coverage marker passed (0 before the first). Part of the
    /// state, so that exhaustive exploration distinguishes states that
    /// differ only in which CoFG node a thread last crossed (coverage is a
    /// path property; without it, state dedup would under-count arcs).
    marker: SiteId,
}

/// A lock: its owner and reentrancy count (0 when free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LockState {
    owner: Option<usize>,
    count: u32,
}

/// One spec call's outcome so far.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct CallRecord {
    started_step: Option<usize>,
    completed_step: Option<usize>,
    returned: Slot,
}

/// The state sections one step changed (see `state`): the global section
/// (the fields) and a set of thread sections. Threads from 63 up share one
/// bit, so marking any of them marks them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dirty {
    global: bool,
    threads: u64,
}

impl Dirty {
    /// Every section.
    const ALL: Dirty = Dirty {
        global: true,
        threads: u64::MAX,
    };

    fn bit(thread: usize) -> u64 {
        1 << thread.min(63)
    }

    /// Only `thread`'s section.
    fn thread(thread: usize) -> Dirty {
        Dirty {
            global: false,
            threads: Self::bit(thread),
        }
    }

    fn mark(&mut self, thread: usize) {
        self.threads |= Self::bit(thread);
    }

    /// Did `thread`'s section change?
    fn has_thread(self, thread: usize) -> bool {
        self.threads & Self::bit(thread) != 0
    }
}

/// What every state of one machine shares, fixed when it is created.
#[derive(Debug)]
struct Program {
    component: CompiledComponent,
    specs: Box<[ThreadSpec]>,
    /// Every spec call resolved once, thread after thread: its method
    /// index, or the fault message the call raises when it begins.
    calls: Box<[Result<usize, String>]>,
    /// Thread `i`'s calls (and call records) are
    /// `call_base[i]..call_base[i + 1]`.
    call_base: Box<[usize]>,
    /// Local slots per thread: the most any method needs.
    frame_size: usize,
}

impl Program {
    fn calls_of(&self, thread: usize) -> std::ops::Range<usize> {
        self.call_base[thread]..self.call_base[thread + 1]
    }
}

/// Resolve `call` against `component`: the method index, or why the call
/// faults when it begins.
fn resolve_call(component: &CompiledComponent, call: &CallSpec) -> Result<usize, String> {
    let Some(mi) = component.method_index(&call.method) else {
        return Err(format!("no such method `{}`", call.method));
    };
    let method = &component.methods[mi];
    if method.params.len() != call.args.len() {
        return Err(format!(
            "`{}` expects {} arguments, got {}",
            call.method,
            method.params.len(),
            call.args.len()
        ));
    }
    Ok(mi)
}

/// The virtual machine. Clone it to snapshot the whole execution state: a
/// clone copies the flat state buffers and shares everything else. The
/// machine keeps only the events of its last step, and a clone does not
/// copy even those; a clone always records them. The exhaustive explorer
/// does not clone: it steps one machine forward and back (`undo` says
/// how).
#[derive(Debug)]
pub struct Vm {
    program: Arc<Program>,
    /// Field slots, as laid out by `CompiledComponent::fields`.
    fields: Vec<Slot>,
    /// Thread `i`'s local slots are `locals[i * frame_size..][..frame_size]`,
    /// laid out by its method's `CompiledMethod::locals` during a call and
    /// all unset between calls.
    locals: Vec<Slot>,
    threads: Vec<ThreadState>,
    locks: Vec<LockState>,
    /// One record per spec call, indexed like `Program::calls`.
    calls: Vec<CallRecord>,
    /// The events of the last step.
    events: Vec<Event>,
    steps: usize,
    fault: Option<(usize, Arc<str>)>,
    last_scheduled: usize,
    next_ticket: u64,
    /// The sections the last step changed (everything, for a new machine).
    dirty: Dirty,
    recording: Recording,
}

impl Clone for Vm {
    fn clone(&self) -> Self {
        Vm {
            program: Arc::clone(&self.program),
            fields: self.fields.clone(),
            locals: self.locals.clone(),
            threads: self.threads.clone(),
            locks: self.locks.clone(),
            calls: self.calls.clone(),
            events: Vec::new(),
            steps: self.steps,
            fault: self.fault.clone(),
            last_scheduled: self.last_scheduled,
            next_ticket: self.next_ticket,
            dirty: self.dirty,
            recording: Recording::Full,
        }
    }
}

impl Vm {
    /// Create a VM over `component` with the given logical threads.
    pub fn new(component: CompiledComponent, threads: Vec<ThreadSpec>) -> Self {
        let mut calls = Vec::new();
        let mut call_base = vec![0];
        for spec in &threads {
            calls.extend(spec.calls.iter().map(|call| resolve_call(&component, call)));
            call_base.push(calls.len());
        }
        let frame_size = component
            .methods
            .iter()
            .map(|m| m.locals.len())
            .max()
            .unwrap_or(0);
        let n = threads.len();
        let program = Program {
            specs: threads.into(),
            calls: calls.into(),
            call_base: call_base.into(),
            frame_size,
            component,
        };
        Vm {
            fields: program.component.initial.clone(),
            locals: vec![None; n * frame_size],
            threads: vec![
                ThreadState {
                    call_idx: 0,
                    status: Status::Idle,
                    frame: None,
                    ret_reg: None,
                    marker: 0,
                };
                n
            ],
            locks: vec![
                LockState {
                    owner: None,
                    count: 0
                };
                program.component.locks.len()
            ],
            calls: vec![CallRecord::default(); program.calls.len()],
            events: Vec::new(),
            steps: 0,
            fault: None,
            last_scheduled: usize::MAX,
            next_ticket: 0,
            dirty: Dirty::ALL,
            recording: Recording::Full,
            program: Arc::new(program),
        }
    }

    /// Thread display name.
    pub fn thread_name(&self, idx: usize) -> &str {
        &self.program.specs[idx].name
    }

    /// Number of logical threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Current value of the named shared field (for assertions in tests);
    /// `None` when the component has no such field or it is still unset.
    pub fn field(&self, name: &str) -> Option<&Value> {
        let slot = self.program.component.field_slot(name)?;
        self.fields[slot].as_ref()
    }

    /// Set what this machine's steps record from the next step on.
    pub(crate) fn set_recording(&mut self, recording: Recording) {
        self.recording = recording;
    }

    /// Move the last step's events onto the end of `out` (the explorer
    /// keeps one path trace instead of one per state).
    pub(crate) fn drain_trace_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }

    /// Per thread, per call begun so far: its result.
    pub fn results(&self) -> Vec<Vec<CallResult>> {
        (0..self.threads.len())
            .map(|i| {
                let range = self.program.calls_of(i);
                self.calls[range]
                    .iter()
                    .zip(&self.program.specs[i].calls)
                    .map_while(|(record, spec)| {
                        Some(CallResult {
                            method: spec.method.clone(),
                            started_step: record.started_step?,
                            completed_step: record.completed_step,
                            returned: record.returned.clone(),
                        })
                    })
                    .collect()
            })
            .collect()
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
        match t.status {
            Status::Finished | Status::Faulted | Status::Waiting { .. } => false,
            Status::Idle => t.call_idx < self.program.specs[i].calls.len(),
            Status::BlockedEntry { lock } | Status::Reacquire { lock, .. } => {
                self.locks[lock].owner.is_none()
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

    /// Log an event of thread `thread`, built by `kind` only when this
    /// machine records events.
    fn emit(&mut self, thread: usize, kind: impl FnOnce() -> EventKind) {
        if self.recording != Recording::CountsOnly {
            self.events.push(Event {
                seq: self.steps as u64,
                thread: thread as u64,
                kind: kind(),
            });
        }
    }

    /// Record a Figure-1 firing of `t` on `lock` by thread `idx`.
    fn fire(&mut self, idx: usize, t: Transition, lock: usize) {
        if jcc_obs::enabled() && self.recording != Recording::EventsOnly {
            transition_counter(t).inc();
        }
        self.emit(idx, || EventKind::Transition {
            t,
            lock: lock as u64,
        });
    }

    /// Thread `idx` passes the synchronization site `id`.
    fn pass_site(&mut self, idx: usize, id: SiteId) {
        let program = Arc::clone(&self.program);
        let Some(Site::Stmt { method, path, exit }) = program.component.site(id) else {
            unreachable!("instructions name statement sites");
        };
        self.emit(idx, || EventKind::Site {
            method: program.component.methods[*method].name.clone(),
            path: path.clone(),
            exit: *exit,
        });
        self.threads[idx].marker = id;
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
        let specs = &self.program.specs;
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..specs.len() {
            match groups.iter_mut().find(|g| specs[g[0]] == specs[i]) {
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
        match t.status {
            Status::Idle => self
                .program
                .calls_of(i)
                .nth(t.call_idx)
                .is_some_and(|call| self.program.calls[call].is_ok()),
            Status::Running => {
                let frame = t.frame.expect("running frame");
                self.program.component.methods[frame.method_idx].code[frame.pc].is_thread_local()
            }
            _ => false,
        }
    }

    /// True when thread `i`'s next step is *lock-free*: a call start, or a
    /// running step whose instruction is no lock operation (`EnterSync`,
    /// `ExitSync`, `Wait`, `Notify`). Such a step reads only `i`'s own
    /// state section and the fields, and unless it faults it changes
    /// nothing else and fires no Figure-1 transition, so the explorer
    /// memoizes it by those two sections.
    pub(crate) fn is_lock_free_step(&self, i: usize) -> bool {
        let t = &self.threads[i];
        match t.status {
            Status::Idle => true,
            Status::Running => {
                let frame = t.frame.expect("running frame");
                !matches!(
                    self.program.component.methods[frame.method_idx].code[frame.pc],
                    Instr::EnterSync { .. }
                        | Instr::ExitSync { .. }
                        | Instr::Wait { .. }
                        | Instr::Notify { .. }
                )
            }
            _ => false,
        }
    }

    /// True when thread `i` has faulted.
    pub(crate) fn is_faulted(&self, i: usize) -> bool {
        self.threads[i].status == Status::Faulted
    }

    /// Execute one step of thread `idx`. Panics if the thread is not
    /// runnable (callers choose from [`runnable`](Self::runnable)).
    pub fn step(&mut self, idx: usize) {
        assert!(self.is_runnable(idx), "thread {idx} is not runnable");
        self.events.clear();
        self.dirty = Dirty::thread(idx);
        self.steps += 1;
        match self.threads[idx].status {
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

    /// Thread `idx`'s local slots.
    fn frame_slots(&mut self, idx: usize) -> &mut [Slot] {
        let n = self.program.frame_size;
        &mut self.locals[idx * n..(idx + 1) * n]
    }

    fn begin_call(&mut self, idx: usize) {
        let program = Arc::clone(&self.program);
        let call_idx = self.threads[idx].call_idx;
        let call = program.call_base[idx] + call_idx;
        let mi = match &program.calls[call] {
            Ok(mi) => *mi,
            Err(message) => {
                self.fault_thread(idx, message.clone());
                return;
            }
        };
        let method = &program.component.methods[mi];
        let spec = &program.specs[idx].calls[call_idx];
        let slots = self.frame_slots(idx);
        for (&slot, arg) in method.param_slots.iter().zip(&spec.args) {
            slots[slot] = Some(arg.clone());
        }
        self.emit(idx, || EventKind::MethodStart {
            method: spec.method.clone(),
        });
        self.calls[call].started_step = Some(self.steps);
        let thread = &mut self.threads[idx];
        thread.marker = method.start_site;
        thread.frame = Some(Frame {
            method_idx: mi,
            pc: 0,
        });
        thread.status = Status::Running;
    }

    fn acquire(&mut self, idx: usize, lock: usize, holds: u32) {
        debug_assert!(self.locks[lock].owner.is_none());
        self.locks[lock] = LockState {
            owner: Some(idx),
            count: holds,
        };
        self.fire(idx, Transition::T2, lock);
    }

    /// End thread `idx`'s call in progress: its frame is gone.
    fn clear_frame(&mut self, idx: usize) {
        self.frame_slots(idx).fill(None);
        let thread = &mut self.threads[idx];
        thread.frame = None;
        thread.ret_reg = None;
    }

    fn fault_thread(&mut self, idx: usize, message: String) {
        self.emit(idx, || EventKind::Fault {
            message: message.clone(),
        });
        // Release anything the thread holds so others can continue —
        // mirrors Java unwinding synchronized blocks on an exception.
        for li in 0..self.locks.len() {
            if self.locks[li].owner == Some(idx) {
                self.locks[li] = LockState {
                    owner: None,
                    count: 0,
                };
                self.fire(idx, Transition::T4, li);
            }
        }
        self.threads[idx].status = Status::Faulted;
        self.clear_frame(idx);
        if self.fault.is_none() {
            self.fault = Some((idx, message.into()));
        }
    }

    /// Log `operand`'s field reads (for the race detectors), then evaluate
    /// it in thread `idx`'s frame; a failed evaluation faults the thread.
    fn eval_in_frame(&mut self, idx: usize, operand: &Operand) -> Option<Value> {
        let program = Arc::clone(&self.program);
        let component = &program.component;
        for &slot in &operand.reads {
            self.emit(idx, || EventKind::Read {
                var: component.fields[slot].clone(),
            });
        }
        let frame = self.threads[idx].frame.expect("running frame");
        let method = &component.methods[frame.method_idx];
        let n = program.frame_size;
        let env = Env {
            fields: Scope {
                slots: &self.fields,
                names: &component.fields,
            },
            locals: Scope {
                slots: &self.locals[idx * n..idx * n + method.locals.len()],
                names: &method.locals,
            },
        };
        match eval(&operand.expr, &env) {
            Ok(v) => Some(v),
            Err(e) => {
                self.fault_thread(idx, e.message);
                None
            }
        }
    }

    /// True when thread `idx` owns `lock`; otherwise the thread faults
    /// with an `IllegalMonitorStateException` for `{action} `lock` {why}`.
    fn check_owner(&mut self, idx: usize, lock: usize, action: &str, why: &str) -> bool {
        if self.locks[lock].owner == Some(idx) {
            return true;
        }
        let name = &self.program.component.locks[lock];
        let message = format!("IllegalMonitorStateException: {action} `{name}` {why}");
        self.fault_thread(idx, message);
        false
    }

    /// The thread that has waited longest on `lock`, if any.
    fn longest_waiter(&self, lock: usize) -> Option<usize> {
        (0..self.threads.len())
            .filter_map(|i| match self.threads[i].status {
                Status::Waiting {
                    lock: l, ticket, ..
                } if l == lock => Some((ticket, i)),
                _ => None,
            })
            .min()
            .map(|(_, i)| i)
    }

    fn exec_instr(&mut self, idx: usize) {
        let frame = self.threads[idx].frame.expect("running frame");
        // A refcount bump on the shared program lets the instruction be
        // borrowed while the machine mutates.
        let program = Arc::clone(&self.program);
        let method = &program.component.methods[frame.method_idx];
        match &method.code[frame.pc] {
            Instr::EnterSync { lock, site } => {
                let lock = *lock;
                if let Some(site) = *site {
                    self.pass_site(idx, site);
                }
                if self.locks[lock].owner == Some(idx) {
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
            Instr::ExitSync { lock, site } => {
                let lock = *lock;
                if !self.check_owner(idx, lock, "release of", "by non-owner") {
                    return;
                }
                if let Some(site) = *site {
                    self.pass_site(idx, site);
                }
                self.locks[lock].count -= 1;
                if self.locks[lock].count == 0 {
                    self.locks[lock].owner = None;
                    self.fire(idx, Transition::T4, lock);
                }
                self.advance(idx);
            }
            Instr::Wait { lock, site } => {
                let lock = *lock;
                if !self.check_owner(idx, lock, "wait on", "without lock") {
                    return;
                }
                self.pass_site(idx, *site);
                let holds = self.locks[lock].count;
                self.locks[lock] = LockState {
                    owner: None,
                    count: 0,
                };
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.fire(idx, Transition::T3, lock);
                self.advance(idx);
                self.threads[idx].status = Status::Waiting {
                    lock,
                    holds,
                    ticket,
                };
            }
            Instr::Notify { lock, all, site } => {
                let (lock, all) = (*lock, *all);
                if !self.check_owner(idx, lock, "notify on", "without lock") {
                    return;
                }
                self.pass_site(idx, *site);
                // Every waiter's section changes: the woken leave the wait
                // set and the rest move up in it.
                let mut waiters = 0;
                for i in 0..self.threads.len() {
                    if matches!(self.threads[i].status, Status::Waiting { lock: l, .. } if l == lock)
                    {
                        waiters += 1;
                        self.dirty.mark(i);
                    }
                }
                self.emit(idx, || EventKind::Notify {
                    lock: lock as u64,
                    all,
                    waiters,
                });
                let woken = if all { waiters } else { waiters.min(1) };
                for _ in 0..woken {
                    let w = self.longest_waiter(lock).expect("a counted waiter");
                    let Status::Waiting { holds, .. } = self.threads[w].status else {
                        unreachable!("a waiter is waiting");
                    };
                    self.fire(w, Transition::T5, lock);
                    self.threads[w].status = Status::Reacquire { lock, holds };
                }
                self.advance(idx);
            }
            Instr::StoreField { slot, value } => {
                if let Some(v) = self.eval_in_frame(idx, value) {
                    self.emit(idx, || EventKind::Write {
                        var: program.component.fields[*slot].clone(),
                    });
                    self.fields[*slot] = Some(v);
                    self.dirty.global = true;
                    self.advance(idx);
                }
            }
            Instr::StoreLocal { slot, value } => {
                if let Some(v) = self.eval_in_frame(idx, value) {
                    self.frame_slots(idx)[*slot] = Some(v);
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
                self.threads[idx].ret_reg = v;
                self.advance(idx);
            }
            Instr::Ret => {
                self.emit(idx, || EventKind::MethodEnd {
                    method: method.name.clone(),
                });
                let call_idx = self.threads[idx].call_idx;
                let record = &mut self.calls[program.call_base[idx] + call_idx];
                record.completed_step = Some(self.steps);
                record.returned = self.threads[idx].ret_reg.take();
                self.clear_frame(idx);
                let thread = &mut self.threads[idx];
                thread.marker = method.end_site;
                thread.call_idx += 1;
                thread.status = if thread.call_idx < program.specs[idx].calls.len() {
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

    /// The first fault's verdict, if a thread has faulted.
    fn fault_verdict(&self) -> Option<Verdict> {
        self.fault
            .as_ref()
            .map(|(thread, message)| Verdict::Faulted {
                thread: *thread,
                message: message.to_string(),
            })
    }

    /// The verdict if the machine is in a terminal state (quiescent or
    /// globally blocked), else `None`.
    pub fn current_verdict(&self) -> Option<Verdict> {
        if self.quiescent() {
            return Some(self.fault_verdict().unwrap_or(Verdict::Completed));
        }
        if !(0..self.threads.len()).any(|i| self.is_runnable(i)) {
            // A fault that stranded other threads is the root cause; report
            // it rather than the secondary deadlock.
            if let Some(verdict) = self.fault_verdict() {
                return Some(verdict);
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

    /// Package the current state with the given verdict and `trace` (the
    /// explorer's witnesses carry the path trace).
    pub(crate) fn outcome_with_trace(&self, verdict: Verdict, trace: Vec<Event>) -> RunOutcome {
        RunOutcome {
            verdict,
            steps: self.steps,
            trace,
            results: self.results(),
            thread_names: self.program.specs.iter().map(|s| s.name.clone()).collect(),
            lock_names: self.program.component.locks.clone(),
        }
    }

    /// Run to completion (or deadlock / step budget) under `config`. The
    /// outcome's trace holds the events of the steps this run takes.
    pub fn run(&mut self, config: &RunConfig) -> RunOutcome {
        let mut rng = match &config.scheduler {
            Scheduler::Random(seed) => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        };
        let mut trace = Vec::new();
        let mut plan_pos = 0usize;
        while self.steps < config.max_steps {
            if self.quiescent() {
                let verdict = self.fault_verdict().unwrap_or(Verdict::Completed);
                return self.outcome_with_trace(verdict, trace);
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                let verdict = self
                    .current_verdict()
                    .expect("no runnable threads is terminal");
                return self.outcome_with_trace(verdict, trace);
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
            trace.append(&mut self.events);
        }
        self.outcome_with_trace(Verdict::StepLimit, trace)
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
        let mut ids = Vec::new();
        // Start thread 0 in one copy, thread 1 in the other: the states
        // are thread-permutations of each other.
        let mut a = vm.clone();
        a.step(0);
        let mut b = vm.clone();
        b.step(1);
        assert_ne!(a.state_key(), b.state_key());
        let (id, new) = table.intern_all(&a, &mut ids);
        assert!(new);
        assert_eq!(table.intern_all(&b, &mut ids), (id, false));
        // Advance both copies identically: ids stay in lockstep, and a
        // genuinely different state (the producer moved) gets a new id.
        a.step(0);
        b.step(1);
        let (id, _) = table.intern_all(&a, &mut ids);
        assert_eq!(table.intern_all(&b, &mut ids), (id, false));
        a.step(2);
        assert!(table.intern_all(&a, &mut ids).1);
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
                Some(Value::Str(s)) => s.to_string(),
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
        let src = "class L { synchronized void spin() { while (true) { Thread.yield(); } } }";
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
              String s = "ab";
              synchronized String bad() {
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
              String s = "ab";
              synchronized String bad() { return charAt(s, 99); }
              synchronized int ok() { return 1; }
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
              int go = 0;
              synchronized int block() {
                while (go == 0) { wait(); }
                go = go - 1;
                return 1;
              }
              synchronized void release_one() {
                go = go + 1;
                notify();
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

    /// Run one call of `method` on `component` alone, round robin.
    fn run_alone(component: &jcc_model::ast::Component, method: &str) -> (Vm, RunOutcome) {
        let mut vm = Vm::new(
            compile(component).unwrap(),
            vec![spec("t", vec![CallSpec::new(method, vec![])])],
        );
        let out = vm.run(&RunConfig::default());
        (vm, out)
    }

    fn fault_of(out: &RunOutcome) -> &str {
        match &out.verdict {
            Verdict::Faulted { thread: 0, message } => message,
            other => panic!("expected a fault, got {other:?}"),
        }
    }

    #[test]
    fn reading_an_undeclared_field_faults() {
        // The frontend rejects an undeclared name, so seed the field read
        // by hand, as a mutant would.
        let src = "class U { int n = 0; int m() { return n; } }";
        let mut c = jcc_model::parse_component(src).unwrap();
        c.methods[0].body = vec![jcc_model::ast::Stmt::Return(Some(
            jcc_model::ast::Expr::Field("ghost".into()),
        ))];
        let (_, out) = run_alone(&c, "m");
        assert_eq!(fault_of(&out), "undefined field `ghost`");
        // The read is still logged before the evaluation faults.
        assert!(out.trace.iter().any(|e| e.kind
            == EventKind::Read {
                var: "ghost".into()
            }));
    }

    #[test]
    fn reading_a_local_before_it_is_assigned_faults() {
        // `x` has a slot (the skipped branch stores to it) but no value.
        let src = "class U { int m() { if (false) { int x = 1; } return x; } }";
        let c = jcc_model::parse_component(src).unwrap();
        let (_, out) = run_alone(&c, "m");
        assert_eq!(fault_of(&out), "undefined local `x`");
        // A name no method stores to has no slot at all. The frontend
        // rejects it, so plant it in the MIR.
        let mut c = jcc_model::parse_component("class U { int m() { return 0; } }").unwrap();
        c.methods[0].body = vec![jcc_model::ast::Stmt::Return(Some(
            jcc_model::ast::Expr::var("y"),
        ))];
        let (_, out) = run_alone(&c, "m");
        assert_eq!(fault_of(&out), "undefined local `y`");
    }

    #[test]
    fn locals_do_not_survive_their_call() {
        // The second call reads `x` before assigning it: the first call's
        // value must be gone.
        let src = "class U { void set() { int x = 7; } \
                   int get() { if (false) { int x = 0; } return x; } }";
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![spec(
                "t",
                vec![CallSpec::new("set", vec![]), CallSpec::new("get", vec![])],
            )],
        );
        let out = vm.run(&RunConfig::default());
        assert_eq!(fault_of(&out), "undefined local `x`");
    }

    #[test]
    fn a_mutant_storing_to_an_undeclared_field_runs() {
        use jcc_model::ast::{Expr, LValue, Stmt};
        let src = "class U { int n = 0; int m() { return n; } }";
        let mut c = jcc_model::parse_component(src).unwrap();
        c.methods[0].body.insert(
            0,
            Stmt::Assign {
                target: LValue::Field("extra".into()),
                value: Expr::Int(5),
            },
        );
        let (vm, out) = run_alone(&c, "m");
        assert_eq!(out.verdict, Verdict::Completed);
        assert_eq!(vm.field("extra"), Some(&Value::Int(5)));
        assert_eq!(vm.field("n"), Some(&Value::Int(0)));
        assert_eq!(vm.field("nothing"), None);
        // Before the store runs, the field has a slot but no value.
        let fresh = Vm::new(compile(&c).unwrap(), vec![]);
        assert_eq!(fresh.field("extra"), None);
    }

    #[test]
    fn string_builtins_run_on_slots() {
        let src = r#"
            class S {
              String s = "ab";
              String m(int i) {
                String c = charAt(s, i);
                s = concat(s, c);
                return concat(s, toStr(len(s)));
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![spec("t", vec![CallSpec::new("m", vec![Value::Int(1)])])],
        );
        let out = vm.run(&RunConfig::default());
        assert_eq!(out.verdict, Verdict::Completed);
        assert_eq!(out.results[0][0].returned, Some(Value::Str("abb3".into())));
        assert_eq!(vm.field("s"), Some(&Value::Str("abb".into())));
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![spec("t", vec![CallSpec::new("m", vec![Value::Int(2)])])],
        );
        let out = vm.run(&RunConfig::default());
        assert_eq!(fault_of(&out), "string index 2 out of bounds for \"ab\"");
    }

    #[test]
    fn a_clone_reuses_buffers_and_forgets_events() {
        let mut vm = pc_vm(vec![spec(
            "p",
            vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        )]);
        let mut copy = vm.clone();
        vm.step(0);
        assert!(!vm.events.is_empty());
        copy.clone_from(&vm);
        assert!(copy.events.is_empty());
        assert_eq!(copy.state_key(), vm.state_key());
        assert_eq!(copy.results(), vm.results());
        assert!(vm.clone().events.is_empty());
    }
}
