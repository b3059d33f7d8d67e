//! A small forward dataflow framework over MIR blocks.
//!
//! The MIR is structured (no goto, `synchronized` regions are properly
//! nested blocks), so forward analysis is a single pre-order walk that
//! threads a lattice value through each statement. The analyzer's
//! lattice is [`LockState`], the must-hold locks lattice with reentrancy
//! counts, combined with reachability tracking (whether an unconditional
//! `return` or a `while (true)` that never returns cuts off the
//! statements that follow). Structured `synchronized` releases every
//! monitor it acquires before its block ends, so the lock state after any
//! block equals the state before it: the walker threads one state through
//! the whole method, without copies at `if` forks or loop fixpoints, and
//! debug builds check that balance (the [`JoinSemiLattice`] merge of the
//! two states is then the identity).
//!
//! Checks subscribe as a [`FlowVisitor`]: for every statement they
//! receive a [`FlowEvent`] carrying the statement, its path (borrowed
//! from the walker), the lock state *before* it executes, the enclosing
//! `while`/`if` conditions and reachability; after a `while` body they
//! get the loop's event again. The walk allocates nothing per statement.

use jcc_model::ast::{Block, Component, Expr, Method, Stmt, ELSE_OFFSET};

use crate::locks::{LockId, LockTable};

/// A join-semilattice: the merge operator for forward dataflow states at
/// control-flow joins.
pub trait JoinSemiLattice: Clone + PartialEq {
    /// Merge `other` into `self`; returns `true` when `self` changed
    /// (drives fixpoint iteration).
    fn join(&mut self, other: &Self) -> bool;
}

/// The must-hold locks lattice: which monitors are definitely held at a
/// program point, with reentrancy counts. `synchronized` on an
/// already-held monitor bumps the count (Java monitors are reentrant);
/// leaving the region decrements it, releasing only at zero.
///
/// A method holds few monitors at once, so the state is a short vector of
/// `(lock, depth)` pairs sorted by lock id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockState {
    held: Vec<(LockId, u32)>,
}

impl LockState {
    /// The empty state: no monitors held.
    pub fn empty() -> LockState {
        LockState::default()
    }

    fn find(&self, id: LockId) -> Result<usize, usize> {
        self.held.binary_search_by_key(&id, |&(h, _)| h)
    }

    /// Acquire `id` (entering a synchronized region).
    pub fn acquire(&mut self, id: LockId) {
        match self.find(id) {
            Ok(i) => self.held[i].1 += 1,
            Err(i) => self.held.insert(i, (id, 1)),
        }
    }

    /// Release `id` (leaving a synchronized region).
    pub fn release(&mut self, id: LockId) {
        if let Ok(i) = self.find(id) {
            self.held[i].1 -= 1;
            if self.held[i].1 == 0 {
                self.held.remove(i);
            }
        }
    }

    /// Whether `id` is definitely held.
    pub fn holds(&self, id: LockId) -> bool {
        self.find(id).is_ok()
    }

    /// Reentrancy depth of `id` (0 when not held).
    pub fn depth(&self, id: LockId) -> u32 {
        self.find(id).map_or(0, |i| self.held[i].1)
    }

    /// Whether any monitor is held.
    pub fn any_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// The held monitors, in `LockId` order.
    pub fn held_ids(&self) -> impl Iterator<Item = LockId> + '_ {
        self.held.iter().map(|&(id, _)| id)
    }

    fn clear(&mut self) {
        self.held.clear();
    }
}

impl JoinSemiLattice for LockState {
    /// Must-analysis: a lock is held after a join only if both paths hold
    /// it, at the smaller reentrancy depth.
    fn join(&mut self, other: &Self) -> bool {
        let before = self.held.len();
        let mut changed = false;
        self.held.retain_mut(|(id, n)| match other.find(*id) {
            Ok(j) => {
                let m = other.held[j].1;
                if m < *n {
                    *n = m;
                    changed = true;
                }
                true
            }
            Err(_) => false,
        });
        changed || self.held.len() != before
    }
}

/// An enclosing `while` or `if` condition of a statement.
#[derive(Debug, Clone, Copy)]
pub struct Guard<'a> {
    /// The condition.
    pub cond: &'a Expr,
    /// `true` for a `while` loop, `false` for an `if`.
    pub is_loop: bool,
}

/// What a check's visitor sees for each statement.
#[derive(Debug)]
pub struct FlowEvent<'a, 'w> {
    /// Path of the statement within the method body (the steps of a
    /// `StmtPath`), borrowed from the walker.
    pub path: &'w [usize],
    /// The statement itself.
    pub stmt: &'a Stmt,
    /// The statement's own monitor (`synchronized`, `wait`, `notify`,
    /// `notifyAll`) resolved through the lock table; `None` for other
    /// statements and for locks the component never declared.
    pub lock: Option<LockId>,
    /// Monitors definitely held immediately before the statement.
    pub locks: &'w LockState,
    /// The enclosing `while`/`if` conditions, outermost first.
    pub guards: &'w [Guard<'a>],
    /// Whether control can reach this statement.
    pub reachable: bool,
    /// `true` for the first unreachable statement of its block — the
    /// anchor a dead-code diagnostic should attach to.
    pub first_unreachable: bool,
    /// When unreachable: `true` if the cut was a non-terminating
    /// `while (true)` rather than a `return`. Lets checks avoid piling a
    /// dead-code diagnostic on top of the loop's own never-terminates one.
    pub dead_by_loop: bool,
}

/// A check fed by the walk.
pub trait FlowVisitor<'a> {
    /// Before a method's first statement.
    fn begin_method(&mut self, _method: &'a Method) {}

    /// Every statement, in pre-order, with the state *before* it.
    fn stmt(&mut self, ev: &FlowEvent<'a, '_>);

    /// After a `while` statement's body: the loop's own event again (its
    /// lock state is the entry state, since the body is balanced).
    fn loop_exit(&mut self, _ev: &FlowEvent<'a, '_>) {}

    /// After a method's last statement.
    fn end_method(&mut self) {}
}

/// Reachability as it flows through a block: whether control is live and,
/// when it is not, whether the cut was a non-terminating loop.
#[derive(Clone, Copy)]
struct Reach {
    live: bool,
    by_loop: bool,
}

/// The walk's scratch state — the path prefix, the lock state and the
/// guard stack — reused across the methods of one component, so walking
/// a method allocates only when it nests deeper than any before it.
pub struct Walker<'a, 't> {
    table: &'t LockTable,
    prefix: Vec<usize>,
    state: LockState,
    guards: Vec<Guard<'a>>,
}

impl<'a, 't> Walker<'a, 't> {
    /// A walker resolving locks through `table`.
    pub fn new(table: &'t LockTable) -> Walker<'a, 't> {
        Walker {
            table,
            prefix: Vec::new(),
            state: LockState::empty(),
            guards: Vec::new(),
        }
    }

    /// Run the forward walk over one method, feeding `visit` once per
    /// statement in pre-order with the state *before* that statement.
    /// A `synchronized` method starts with the receiver monitor held.
    pub fn walk(&mut self, method: &'a Method, visit: &mut impl FlowVisitor<'a>) {
        self.prefix.clear();
        self.guards.clear();
        self.state.clear();
        if method.synchronized {
            self.state.acquire(LockId::THIS);
        }
        visit.begin_method(method);
        self.block(
            &method.body,
            0,
            visit,
            Reach {
                live: true,
                by_loop: false,
            },
        );
        visit.end_method();
    }

    /// Walk every method of `component`, in declaration order.
    pub fn walk_component(&mut self, component: &'a Component, visit: &mut impl FlowVisitor<'a>) {
        for method in &component.methods {
            self.walk(method, visit);
        }
    }

    fn event<'w>(
        &'w self,
        stmt: &'a Stmt,
        lock: Option<LockId>,
        reach: Reach,
        first_unreachable: bool,
    ) -> FlowEvent<'a, 'w> {
        FlowEvent {
            path: &self.prefix,
            stmt,
            lock,
            locks: &self.state,
            guards: &self.guards,
            reachable: reach.live,
            first_unreachable,
            dead_by_loop: reach.by_loop,
        }
    }

    /// Walk `block`. `offset` is 0 for ordinary blocks and
    /// [`ELSE_OFFSET`] when the block is an else-branch (so emitted paths
    /// address the right branch). Returns whether control can fall off
    /// the end of the block (`false` when an unconditional `return` or a
    /// non-returning `while (true)` intervenes).
    fn block(
        &mut self,
        block: &'a Block,
        offset: usize,
        visit: &mut impl FlowVisitor<'a>,
        mut reach: Reach,
    ) -> bool {
        #[cfg(debug_assertions)]
        let entry = self.state.clone();
        let mut was_reachable = reach.live;
        for (i, stmt) in block.iter().enumerate() {
            self.prefix.push(offset + i);
            let first_unreachable = was_reachable && !reach.live;
            was_reachable = reach.live;
            let lock = match stmt {
                Stmt::Synchronized { lock, .. }
                | Stmt::Wait { lock }
                | Stmt::Notify { lock }
                | Stmt::NotifyAll { lock } => self.table.resolve(lock),
                _ => None,
            };
            let entry_reach = reach;
            visit.stmt(&self.event(stmt, lock, entry_reach, first_unreachable));
            match stmt {
                Stmt::Synchronized { body, .. } => {
                    if let Some(id) = lock {
                        self.state.acquire(id);
                    }
                    self.block(body, 0, visit, reach);
                    if let Some(id) = lock {
                        self.state.release(id);
                    }
                }
                Stmt::While { cond, body } => {
                    // The body leaves the lock state as it found it, so the
                    // loop's fixpoint is its entry state.
                    self.guards.push(Guard {
                        cond,
                        is_loop: true,
                    });
                    self.block(body, 0, visit, reach);
                    self.guards.pop();
                    visit.loop_exit(&self.event(stmt, lock, entry_reach, first_unreachable));
                    // `while (true)` has no false exit: everything after it
                    // is unreachable. A `return` in the body exits the
                    // whole method, not just the loop, so it cannot make
                    // the code after the loop live either.
                    if reach.live && matches!(cond, Expr::Bool(true)) {
                        reach = Reach {
                            live: false,
                            by_loop: true,
                        };
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.guards.push(Guard {
                        cond,
                        is_loop: false,
                    });
                    let then_falls = self.block(then_branch, 0, visit, reach);
                    let else_falls = self.block(else_branch, ELSE_OFFSET, visit, reach);
                    self.guards.pop();
                    if reach.live && !then_falls && !else_falls && !else_branch.is_empty() {
                        reach = Reach {
                            live: false,
                            by_loop: false,
                        };
                    }
                }
                Stmt::Return(_) if reach.live => {
                    reach = Reach {
                        live: false,
                        by_loop: false,
                    };
                }
                _ => {}
            }
            self.prefix.pop();
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.state, entry,
            "lock state must be balanced across a block"
        );
        reach.live
    }
}

/// The expression a statement evaluates *itself* (not those of statements
/// nested in its blocks, which get their own flow events): a loop or
/// branch condition, an assigned value, a local's initializer or a
/// returned value.
pub(crate) fn own_expr(stmt: &Stmt) -> Option<&Expr> {
    match stmt {
        Stmt::While { cond, .. } | Stmt::If { cond, .. } => Some(cond),
        Stmt::Assign { value, .. } => Some(value),
        Stmt::Local { init, .. } => Some(init),
        Stmt::Return(e) => e.as_ref(),
        _ => None,
    }
}

/// Call `f` with every field `expr` reads, in evaluation order (repeats
/// included).
pub(crate) fn for_each_field<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a str)) {
    match expr {
        Expr::Field(name) => f(name),
        Expr::Unary(_, a) => for_each_field(a, f),
        Expr::Binary(_, a, b) => {
            for_each_field(a, f);
            for_each_field(b, f);
        }
        Expr::Call(_, args) => args.iter().for_each(|a| for_each_field(a, f)),
        _ => {}
    }
}

/// Whether `expr` reads the field (`field == true`) or local named `name`.
pub(crate) fn reads_name(expr: &Expr, name: &str, field: bool) -> bool {
    match expr {
        Expr::Field(n) => field && n == name,
        Expr::Var(n) => !field && n == name,
        Expr::Unary(_, a) => reads_name(a, name, field),
        Expr::Binary(_, a, b) => reads_name(a, name, field) || reads_name(b, name, field),
        Expr::Call(_, args) => args.iter().any(|a| reads_name(a, name, field)),
        _ => false,
    }
}

/// Statement paths a check keeps past the walk, packed end to end in one
/// buffer so that keeping one costs no allocation of its own.
#[derive(Debug, Default)]
pub(crate) struct Paths {
    steps: Vec<usize>,
}

/// A path stored in [`Paths`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathRef {
    start: usize,
    len: usize,
}

impl Paths {
    /// Keep `path`.
    pub(crate) fn push(&mut self, path: &[usize]) -> PathRef {
        let start = self.steps.len();
        self.steps.extend_from_slice(path);
        PathRef {
            start,
            len: path.len(),
        }
    }

    /// The steps of a kept path.
    pub(crate) fn get(&self, r: PathRef) -> &[usize] {
        &self.steps[r.start..r.start + r.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::ast::{Component, LockRef, Method, StmtPath};

    /// Walk one method with a fresh [`Walker`], calling `visit` for every
    /// statement.
    fn walk_method<'a>(
        table: &LockTable,
        method: &'a Method,
        visit: impl FnMut(&FlowEvent<'a, '_>),
    ) {
        struct Each<F>(F);
        impl<'a, F: FnMut(&FlowEvent<'a, '_>)> FlowVisitor<'a> for Each<F> {
            fn stmt(&mut self, ev: &FlowEvent<'a, '_>) {
                (self.0)(ev)
            }
        }
        Walker::new(table).walk(method, &mut Each(visit));
    }

    fn table() -> LockTable {
        LockTable::new(&Component {
            name: "C".into(),
            locks: vec!["aux".into()],
            fields: vec![],
            methods: vec![],
        })
    }

    fn method(synchronized: bool, body: Block) -> Method {
        Method {
            name: "m".into(),
            params: vec![],
            ret: None,
            synchronized,
            body,
        }
    }

    fn collect(
        t: &LockTable,
        m: &Method,
    ) -> Vec<(StmtPath, bool, Vec<LockId>, u32, bool)> {
        let mut out = Vec::new();
        walk_method(t, m, |ev| {
            out.push((
                StmtPath(ev.path.to_vec()),
                ev.reachable,
                ev.locks.held_ids().collect(),
                ev.locks.depth(LockId::THIS),
                ev.first_unreachable,
            ));
        });
        out
    }

    #[test]
    fn synchronized_method_holds_this() {
        let t = table();
        let m = method(true, vec![Stmt::Wait { lock: LockRef::This }]);
        let evs = collect(&t, &m);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].2, vec![LockId::THIS]);
    }

    #[test]
    fn nested_sync_tracks_reentrancy_and_releases() {
        let t = table();
        let m = method(
            true,
            vec![
                Stmt::Synchronized {
                    lock: LockRef::This,
                    body: vec![Stmt::Skip],
                },
                Stmt::Skip,
            ],
        );
        let evs = collect(&t, &m);
        // inner Skip sees depth 2; trailing Skip is back to depth 1
        assert_eq!(evs[1].0, StmtPath(vec![0, 0]));
        assert_eq!(evs[1].3, 2);
        assert_eq!(evs[2].0, StmtPath(vec![1]));
        assert_eq!(evs[2].3, 1);
    }

    #[test]
    fn aux_lock_held_only_inside_its_region() {
        let t = table();
        let aux = t.resolve(&LockRef::Named("aux".into())).unwrap();
        let m = method(
            false,
            vec![
                Stmt::Synchronized {
                    lock: LockRef::Named("aux".into()),
                    body: vec![Stmt::Skip],
                },
                Stmt::Skip,
            ],
        );
        let evs = collect(&t, &m);
        assert_eq!(evs[1].2, vec![aux]);
        assert!(evs[2].2.is_empty());
    }

    #[test]
    fn statements_after_return_are_unreachable_and_flagged_once() {
        let t = table();
        let m = method(
            false,
            vec![Stmt::Return(None), Stmt::Skip, Stmt::Skip],
        );
        let evs = collect(&t, &m);
        assert!(evs[0].1);
        assert!(!evs[1].1 && evs[1].4, "first dead stmt flagged");
        assert!(!evs[2].1 && !evs[2].4, "second dead stmt not re-flagged");
    }

    #[test]
    fn while_true_cuts_off_the_rest() {
        let t = table();
        let m = method(
            false,
            vec![
                Stmt::While {
                    cond: Expr::Bool(true),
                    body: vec![Stmt::Skip],
                },
                Stmt::Skip,
            ],
        );
        let evs = collect(&t, &m);
        assert!(!evs[2].1, "statement after while(true) is unreachable");
    }

    #[test]
    fn unreachability_cause_distinguishes_loop_from_return() {
        let t = table();
        let m = method(
            false,
            vec![
                Stmt::While {
                    cond: Expr::Bool(true),
                    body: vec![Stmt::Skip],
                },
                Stmt::Skip,
            ],
        );
        let mut causes = Vec::new();
        walk_method(&t, &m, |ev| causes.push((ev.reachable, ev.dead_by_loop)));
        assert_eq!(causes[2], (false, true), "loop-caused cut is marked");

        let m = method(false, vec![Stmt::Return(None), Stmt::Skip]);
        let mut causes = Vec::new();
        walk_method(&t, &m, |ev| causes.push((ev.reachable, ev.dead_by_loop)));
        assert_eq!(causes[1], (false, false), "return-caused cut is not");
    }

    #[test]
    fn if_branches_fork_and_rejoin() {
        let t = table();
        let m = method(
            false,
            vec![
                Stmt::If {
                    cond: Expr::Bool(true),
                    then_branch: vec![Stmt::Return(None)],
                    else_branch: vec![Stmt::Return(None)],
                },
                Stmt::Skip,
            ],
        );
        let evs = collect(&t, &m);
        // else-branch path carries the sentinel
        assert_eq!(evs[2].0, StmtPath(vec![0, ELSE_OFFSET]));
        assert!(!evs[3].1, "both branches return: join is unreachable");
    }

    #[test]
    fn if_with_one_returning_branch_still_falls_through() {
        let t = table();
        let m = method(
            false,
            vec![
                Stmt::If {
                    cond: Expr::Bool(true),
                    then_branch: vec![Stmt::Return(None)],
                    else_branch: vec![],
                },
                Stmt::Skip,
            ],
        );
        let evs = collect(&t, &m);
        assert!(evs.last().unwrap().1);
    }

    #[test]
    fn join_is_pointwise_min() {
        let mut a = LockState::empty();
        a.acquire(LockId(0));
        a.acquire(LockId(0));
        a.acquire(LockId(1));
        let mut b = LockState::empty();
        b.acquire(LockId(0));
        assert!(a.join(&b));
        assert_eq!(a.depth(LockId(0)), 1);
        assert!(!a.holds(LockId(1)));
    }
}
