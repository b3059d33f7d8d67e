//! Stepping one machine in place and undoing the step: how the explorer
//! backtracks without copying a state per successor.
//!
//! [`Vm::step_logged`] first saves everything the step can overwrite — its
//! *footprint* — onto an [`UndoLog`], then runs [`Vm::step`] unchanged.
//! [`Vm::undo`] pops saved steps back to a mark, newest first, and puts
//! each location back. The footprint of a step by thread `t`:
//!
//! * the machine-wide scalars (`steps`, `next_ticket`, `dirty`, and whether
//!   `fault` was unset — a step only ever sets it);
//! * `t`'s control record;
//! * `t`'s call record when the step begins or returns a call;
//! * `t`'s local slots the step can write: the parameters a call begins
//!   with, or the running method's slots when the step can return, store
//!   a local or fault (a fault clears the frame);
//! * the lock named by `t`'s status or instruction;
//! * every lock `t` holds when a running step can fault (a fault releases
//!   them);
//! * the field slot a `StoreField` writes;
//! * on `notify`/`notifyAll`, the status of every waiter it wakes.
//!
//! In debug builds every undo is checked against a copy of the flat
//! buffers, `fault`, `steps` and `next_ticket` taken before the step.

use super::{CallRecord, Dirty, LockState, Status, ThreadState, Vm};
use crate::compile::Instr;
use crate::value::Slot;

/// What one logged step overwrote outside its cells.
#[derive(Debug)]
struct StepRecord {
    thread: usize,
    state: ThreadState,
    steps: usize,
    next_ticket: u64,
    dirty: Dirty,
    /// `fault` was unset before the step.
    fault_unset: bool,
    /// The step's cells are `UndoLog::cells[cells..]`, up to the next
    /// record's.
    cells: usize,
}

/// One saved location and its value before the step.
#[derive(Debug)]
enum Cell {
    /// An index into `Vm::locals`.
    Local(usize, Slot),
    Field(usize, Slot),
    Lock(usize, LockState),
    Call(usize, CallRecord),
    /// A woken waiter's status.
    Waiter(usize, Status),
}

/// The saved footprints of the logged steps not yet undone, oldest first.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    records: Vec<StepRecord>,
    cells: Vec<Cell>,
    #[cfg(debug_assertions)]
    snapshots: Vec<Snapshot>,
}

impl UndoLog {
    /// The position to [`Vm::undo`] back to: the number of logged steps
    /// not yet undone.
    pub(crate) fn mark(&self) -> usize {
        self.records.len()
    }

    /// The thread of each logged step not yet undone, oldest first.
    pub(crate) fn threads(&self) -> impl Iterator<Item = usize> + '_ {
        self.records.iter().map(|record| record.thread)
    }
}

impl Vm {
    /// Execute one step of thread `idx`, as [`step`](Self::step) does,
    /// after saving its footprint onto `log`.
    pub(crate) fn step_logged(&mut self, idx: usize, log: &mut UndoLog) {
        #[cfg(debug_assertions)]
        log.snapshots.push(Snapshot::of(self));
        let cells = log.cells.len();
        self.save_footprint(idx, &mut log.cells);
        log.records.push(StepRecord {
            thread: idx,
            state: self.threads[idx].clone(),
            steps: self.steps,
            next_ticket: self.next_ticket,
            dirty: self.dirty,
            fault_unset: self.fault.is_none(),
            cells,
        });
        self.step(idx);
    }

    /// Undo the logged steps after `mark`, newest first. The events of the
    /// last step are dropped.
    pub(crate) fn undo(&mut self, log: &mut UndoLog, mark: usize) {
        while log.records.len() > mark {
            let record = log.records.pop().expect("a step after the mark");
            for cell in log.cells.drain(record.cells..).rev() {
                match cell {
                    Cell::Local(i, slot) => self.locals[i] = slot,
                    Cell::Field(i, slot) => self.fields[i] = slot,
                    Cell::Lock(l, lock) => self.locks[l] = lock,
                    Cell::Call(c, call) => self.calls[c] = call,
                    Cell::Waiter(w, status) => self.threads[w].status = status,
                }
            }
            self.threads[record.thread] = record.state;
            self.steps = record.steps;
            self.next_ticket = record.next_ticket;
            self.dirty = record.dirty;
            if record.fault_unset {
                self.fault = None;
            }
            #[cfg(debug_assertions)]
            log.snapshots
                .pop()
                .expect("a snapshot per logged step")
                .assert_restored(self);
        }
        self.events.clear();
    }

    /// Push onto `cells` every location outside `idx`'s control record
    /// and the scalars that the next step of `idx` can overwrite.
    fn save_footprint(&self, idx: usize, cells: &mut Vec<Cell>) {
        let program = &*self.program;
        let thread = &self.threads[idx];
        let base = idx * program.frame_size;
        match thread.status {
            Status::Idle => {
                let call = program.call_base[idx] + thread.call_idx;
                // A call that faults as it begins changes only the
                // scalars and the control record: between calls a thread
                // holds no lock and every local is unset.
                if let Some(Ok(mi)) = program.calls.get(call) {
                    cells.push(Cell::Call(call, self.calls[call].clone()));
                    for &slot in &program.component.methods[*mi].param_slots {
                        cells.push(Cell::Local(base + slot, self.locals[base + slot].clone()));
                    }
                }
            }
            Status::BlockedEntry { lock } | Status::Reacquire { lock, .. } => {
                cells.push(Cell::Lock(lock, self.locks[lock]));
            }
            Status::Running => {
                let frame = thread.frame.expect("running frame");
                let method = &program.component.methods[frame.method_idx];
                let save_frame = |cells: &mut Vec<Cell>| {
                    let used = base..base + method.locals.len();
                    cells.extend(used.map(|i| Cell::Local(i, self.locals[i].clone())));
                };
                let save_fault = |cells: &mut Vec<Cell>| {
                    self.save_held_locks(idx, cells);
                    save_frame(cells);
                };
                match &method.code[frame.pc] {
                    Instr::EnterSync { lock, .. } => {
                        cells.push(Cell::Lock(*lock, self.locks[*lock]))
                    }
                    Instr::ExitSync { lock, .. } | Instr::Wait { lock, .. } => {
                        if self.locks[*lock].owner == Some(idx) {
                            cells.push(Cell::Lock(*lock, self.locks[*lock]));
                        } else {
                            save_fault(cells);
                        }
                    }
                    Instr::Notify { lock, all, .. } => {
                        if self.locks[*lock].owner != Some(idx) {
                            save_fault(cells);
                        } else if *all {
                            for (w, t) in self.threads.iter().enumerate() {
                                if matches!(t.status, Status::Waiting { lock: l, .. } if l == *lock)
                                {
                                    cells.push(Cell::Waiter(w, t.status));
                                }
                            }
                        } else if let Some(w) = self.longest_waiter(*lock) {
                            cells.push(Cell::Waiter(w, self.threads[w].status));
                        }
                    }
                    Instr::StoreField { slot, .. } => {
                        cells.push(Cell::Field(*slot, self.fields[*slot].clone()));
                        save_fault(cells);
                    }
                    Instr::StoreLocal { .. }
                    | Instr::JumpIfFalse { .. }
                    | Instr::EvalRet { value: Some(_) } => save_fault(cells),
                    Instr::Ret => {
                        let call = program.call_base[idx] + thread.call_idx;
                        cells.push(Cell::Call(call, self.calls[call].clone()));
                        save_frame(cells);
                    }
                    Instr::Jump { .. } | Instr::EvalRet { value: None } => {}
                }
            }
            // Not runnable: `step` panics before changing anything.
            Status::Waiting { .. } | Status::Finished | Status::Faulted => {}
        }
    }

    /// Save every lock `idx` holds: a fault releases them all.
    fn save_held_locks(&self, idx: usize, cells: &mut Vec<Cell>) {
        for (l, lock) in self.locks.iter().enumerate() {
            if lock.owner == Some(idx) {
                cells.push(Cell::Lock(l, *lock));
            }
        }
    }
}

/// The state before a logged step, kept in debug builds to check its undo.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct Snapshot {
    fields: Vec<Slot>,
    locals: Vec<Slot>,
    threads: Vec<ThreadState>,
    locks: Vec<LockState>,
    calls: Vec<CallRecord>,
    fault: Option<(usize, std::sync::Arc<str>)>,
    steps: usize,
    next_ticket: u64,
}

#[cfg(debug_assertions)]
impl Snapshot {
    fn of(vm: &Vm) -> Snapshot {
        Snapshot {
            fields: vm.fields.clone(),
            locals: vm.locals.clone(),
            threads: vm.threads.clone(),
            locks: vm.locks.clone(),
            calls: vm.calls.clone(),
            fault: vm.fault.clone(),
            steps: vm.steps,
            next_ticket: vm.next_ticket,
        }
    }

    /// The differential guard for [`Vm::undo`]: the step left nothing
    /// changed outside its saved footprint.
    fn assert_restored(&self, vm: &Vm) {
        assert_eq!(self.fields, vm.fields, "undo left a field slot changed");
        assert_eq!(self.locals, vm.locals, "undo left a local slot changed");
        assert_eq!(self.threads, vm.threads, "undo left a thread changed");
        assert_eq!(self.locks, vm.locks, "undo left a lock changed");
        assert_eq!(self.calls, vm.calls, "undo left a call record changed");
        assert_eq!(self.fault, vm.fault, "undo left the fault changed");
        assert_eq!(
            (self.steps, self.next_ticket),
            (vm.steps, vm.next_ticket),
            "undo left a counter changed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, ThreadSpec};
    use crate::value::Value;
    use jcc_model::ast::{Component, Type};
    use jcc_model::mutate::{apply_mutation, enumerate_mutations};
    use jcc_petri::event::EventKind;
    use jcc_petri::Transition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Everything a machine's state is made of, its dirty sections
    /// included: `(fields, locals, threads, locks, calls, fault, steps,
    /// next_ticket, dirty, last_scheduled)`.
    fn state_of(vm: &Vm) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {} {} {:?} {}",
            vm.fields,
            vm.locals,
            vm.threads,
            vm.locks,
            vm.calls,
            vm.fault,
            vm.steps,
            vm.next_ticket,
            vm.dirty,
            vm.last_scheduled
        )
    }

    /// The step kinds whose footprints are easiest to get wrong, counted
    /// as the walks step through and undo them.
    #[derive(Debug, Default)]
    struct Seen {
        fault_releasing_locks: usize,
        reentrant_enters: usize,
        notify_alls_with_two_waiters: usize,
        rets: usize,
    }

    impl Seen {
        /// Count the step of thread `t` from `before` to `after`.
        fn count(&mut self, before: &Vm, t: usize, after: &Vm) {
            if let Some(frame) = before.threads[t].frame {
                let method = &before.program.component.methods[frame.method_idx];
                match method.code[frame.pc] {
                    Instr::EnterSync { lock, .. } if before.locks[lock].owner == Some(t) => {
                        self.reentrant_enters += 1;
                    }
                    Instr::Ret => self.rets += 1,
                    _ => {}
                }
            }
            let kinds = || after.events.iter().map(|e| &e.kind);
            let faulted = kinds().any(|k| matches!(k, EventKind::Fault { .. }));
            let released = kinds().any(|k| {
                matches!(
                    k,
                    EventKind::Transition {
                        t: Transition::T4,
                        ..
                    }
                )
            });
            if faulted && released {
                self.fault_releasing_locks += 1;
            }
            if kinds()
                .any(|k| matches!(k, EventKind::Notify { all: true, waiters, .. } if *waiters >= 2))
            {
                self.notify_alls_with_two_waiters += 1;
            }
        }
    }

    /// `threads` logical threads of one to three calls each, methods and
    /// arguments drawn from `rng`; now and then a call names no method or
    /// passes an argument of the wrong type.
    fn scenario(c: &Component, threads: usize, rng: &mut StdRng) -> Vec<ThreadSpec> {
        (0..threads)
            .map(|i| ThreadSpec {
                name: format!("t{i}"),
                calls: (0..rng.gen_range(1..=3))
                    .map(|_| {
                        if rng.gen_range(0..40) == 0 {
                            // A call that faults as it begins.
                            return CallSpec::new("missing", vec![]);
                        }
                        let m = &c.methods[rng.gen_range(0..c.methods.len())];
                        let args = m
                            .params
                            .iter()
                            .map(|p| match (p.ty, rng.gen_range(0..8) == 0) {
                                // Now and then an argument of the wrong
                                // type, so that a field store can fault.
                                (Type::Str, true) => Value::Int(1),
                                (_, true) => Value::Str("ab".into()),
                                (Type::Int, false) => Value::Int(rng.gen_range(0..3)),
                                (Type::Bool, false) => Value::Bool(rng.gen_bool(0.5)),
                                (Type::Str, false) => Value::Str("ab".into()),
                            })
                            .collect();
                        CallSpec::new(m.name.clone(), args)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Walk `vm` along random steps; at every state, step each runnable
    /// thread through the log, undo it and compare with a copy taken
    /// before the step.
    fn walk(mut vm: Vm, rng: &mut StdRng, log: &mut UndoLog, seen: &mut Seen, label: &str) {
        for _ in 0..200 {
            let runnable = vm.runnable();
            if runnable.is_empty() {
                return;
            }
            for &t in &runnable {
                let before = vm.clone();
                let mark = log.mark();
                vm.step_logged(t, log);
                seen.count(&before, t, &vm);
                vm.undo(log, mark);
                assert_eq!(log.mark(), mark);
                assert!(vm.events.is_empty());
                assert_eq!(state_of(&vm), state_of(&before), "{label}: thread {t}");
            }
            vm.step(runnable[rng.gen_range(0..runnable.len())]);
        }
    }

    #[test]
    fn step_then_undo_restores_every_state() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut log = UndoLog::default();
        let mut seen = Seen::default();
        let corpus = jcc_components::zoo::full_corpus();
        assert_eq!(corpus.len(), 13);
        for (name, component) in &corpus {
            let mutants = enumerate_mutations(component)
                .into_iter()
                .filter_map(|m| apply_mutation(component, &m).ok());
            for (k, c) in std::iter::once(component.clone())
                .chain(mutants)
                .enumerate()
            {
                let Ok(compiled) = compile(&c) else {
                    continue;
                };
                // The component itself gets more walks than each mutant.
                let walks = if k == 0 { 16 } else { 4 };
                for w in 0..walks {
                    let threads = scenario(&c, 2 + w % 2, &mut rng);
                    let vm = Vm::new(compiled.clone(), threads);
                    walk(vm, &mut rng, &mut log, &mut seen, &format!("{name} #{k}"));
                }
            }
        }
        assert!(seen.fault_releasing_locks > 0, "{seen:?}");
        assert!(seen.reentrant_enters > 0, "{seen:?}");
        assert!(seen.notify_alls_with_two_waiters > 0, "{seen:?}");
        assert!(seen.rets > 0, "{seen:?}");
    }
}
