//! A seeded, fully deterministic component generator.
//!
//! `generate` builds Monitor IR components directly (no source text) that
//! are **valid by construction** — they pass `validate` and earn zero High
//! diagnostics from the static analyzer — while scaling along the axes the
//! sweep bench (E11) cares about:
//!
//! * `guards` counting guard cells `g0..` on the implicit monitor, each
//!   with a non-blocking `put<i>` (increment + broadcast);
//! * `wait_sites` blocking `take<i>_<j>` methods distributed round-robin
//!   over the guards, each a disciplined `while (g<i> == 0) wait();` loop
//!   (so wait-site count is tunable independently of guard count);
//! * `locks` named locks `l0..` swept by non-synchronized methods whose
//!   nested `synchronized` blocks always acquire in ascending index order
//!   (acyclic by construction — the lock-order check stays quiet);
//! * `padding` plain accumulator statements appended to the blocking
//!   methods, growing body size (and the interleaving surface) without
//!   changing the blocking structure.
//!
//! Everything random — padding constants, lock subsets, wait-site spread —
//! comes from the vendored `StdRng` seeded with `GenConfig::seed`, so a
//! config is a complete, reproducible description of its component:
//! `generate_source` (the component printed as Java) is byte-identical
//! across runs, machines and thread counts.
//!
//! [`call_plan`] pairs each component with a deadlock-free scenario: every
//! thread performs all of its (non-blocking) puts before its takes and the
//! put/take multiset is balanced per guard, so every schedule terminates —
//! which keeps the E11 exploration census a pure throughput measurement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jcc_model::ast::{BinOp, Block, Component, Expr, Field, LValue, LockRef, Method, Stmt, Type};
use jcc_model::pretty::print_component;

/// The generator's size and randomness knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Counting guard cells on the implicit monitor (each gets a `put<i>`).
    pub guards: usize,
    /// Blocking `take` methods, spread round-robin over the guards.
    /// Clamped up to `guards` (every guard needs at least one taker for
    /// the balanced call plan).
    pub wait_sites: usize,
    /// Named locks swept in ascending order by non-synchronized methods.
    pub locks: usize,
    /// Extra accumulator statements distributed over the take methods.
    pub padding: usize,
    /// Threads in the generated scenario (see [`call_plan`]).
    pub threads: usize,
    /// Seed for everything random.
    pub seed: u64,
}

impl GenConfig {
    /// The scaling ladder used by the E11 sweep: size `n` means `n`
    /// guards, `2n` wait sites, `n` named locks, `2n` padding statements,
    /// three scenario threads.
    pub fn sized(n: usize, seed: u64) -> Self {
        assert!(n > 0, "size must be positive");
        GenConfig {
            guards: n,
            wait_sites: 2 * n,
            locks: n,
            padding: 2 * n,
            threads: 3,
            seed,
        }
    }

    fn wait_sites_clamped(&self) -> usize {
        self.wait_sites.max(self.guards)
    }

    /// The generated component's class name, derived from the size axes
    /// (not the seed — two seeds at one size are siblings, not twins).
    pub fn class_name(&self) -> String {
        format!(
            "GenG{}W{}L{}P{}",
            self.guards,
            self.wait_sites_clamped(),
            self.locks,
            self.padding
        )
    }
}

/// Build the component. Deterministic in `cfg`.
pub fn generate(cfg: &GenConfig) -> Component {
    assert!(cfg.guards > 0, "need at least one guard cell");
    assert!(cfg.threads > 0, "need at least one scenario thread");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let wait_sites = cfg.wait_sites_clamped();
    let int_field = |name: String| Field {
        name,
        ty: Type::Int,
        init: Expr::Int(0),
    };
    let mut fields: Vec<Field> = (0..cfg.guards)
        .map(|g| int_field(format!("g{g}")))
        .collect();
    fields.push(int_field("acc".into()));
    fields.extend((0..cfg.locks).map(|l| int_field(format!("u{l}"))));
    // `f = f op k;`
    let update = |f: &str, op: BinOp, k: i64| Stmt::Assign {
        target: LValue::Field(f.into()),
        value: Expr::Binary(op, Box::new(Expr::field(f)), Box::new(Expr::Int(k))),
    };
    let method = |name: String, synchronized: bool, body: Block| Method {
        name,
        params: Vec::new(),
        ret: None,
        synchronized,
        body,
    };

    // Non-blocking producers: one per guard, always broadcasting.
    let mut methods: Vec<Method> = (0..cfg.guards)
        .map(|g| {
            let body = vec![
                update(&format!("g{g}"), BinOp::Add, 1),
                Stmt::NotifyAll {
                    lock: LockRef::This,
                },
            ];
            method(format!("put{g}"), true, body)
        })
        .collect();

    // Blocking consumers: wait_sites disciplined guard loops, round-robin
    // over the guards, with the padding spread across their tails.
    let mut pad_left = cfg.padding;
    for site in 0..wait_sites {
        let (g, j) = (site % cfg.guards, site / cfg.guards);
        let guard = format!("g{g}");
        let mut body = vec![
            Stmt::While {
                cond: Expr::eq(Expr::field(&guard), Expr::Int(0)),
                body: vec![Stmt::Wait {
                    lock: LockRef::This,
                }],
            },
            update(&guard, BinOp::Sub, 1),
        ];
        let pad_here = pad_left.div_ceil(wait_sites - site);
        for _ in 0..pad_here {
            body.push(update("acc", BinOp::Add, rng.gen_range(1..100)));
        }
        pad_left -= pad_here;
        methods.push(method(format!("take{g}_{j}"), true, body));
    }

    // Lock sweeps: ascending nested acquisition over a seeded subset, so
    // the global lock order is acyclic by construction.
    for sweep in 0..cfg.locks {
        let mut subset: Vec<usize> = (0..cfg.locks).filter(|_| rng.gen_bool(0.7)).collect();
        if subset.is_empty() {
            subset.push(sweep % cfg.locks);
        }
        let innermost = *subset.last().unwrap();
        let mut body = vec![update(&format!("u{innermost}"), BinOp::Add, 1)];
        for l in subset.iter().rev() {
            body = vec![Stmt::Synchronized {
                lock: LockRef::Named(format!("l{l}")),
                body,
            }];
        }
        methods.push(method(format!("sweep{sweep}"), false, body));
    }

    Component {
        name: cfg.class_name(),
        locks: (0..cfg.locks).map(|l| format!("l{l}")).collect(),
        fields,
        methods,
    }
}

/// The component's Java source: [`generate`] printed. Deterministic in
/// `cfg`.
pub fn generate_source(cfg: &GenConfig) -> String {
    print_component(&generate(cfg))
}

/// The deterministic, deadlock-free scenario for a generated component:
/// per-thread call sequences (every generated method is nullary). Each
/// wait site is assigned round-robin to a thread together with one
/// matching `put`, puts are ordered before takes within every thread, and
/// each thread with room gets one lock sweep — so the put/take multiset is
/// balanced per guard and no schedule can hang.
pub fn call_plan(cfg: &GenConfig) -> Vec<Vec<String>> {
    let wait_sites = cfg.wait_sites_clamped();
    let mut puts: Vec<Vec<String>> = vec![Vec::new(); cfg.threads];
    let mut takes: Vec<Vec<String>> = vec![Vec::new(); cfg.threads];
    for site in 0..wait_sites {
        let g = site % cfg.guards;
        let j = site / cfg.guards;
        let t = site % cfg.threads;
        puts[t].push(format!("put{g}"));
        takes[t].push(format!("take{g}_{j}"));
    }
    (0..cfg.threads)
        .map(|t| {
            let mut calls = puts[t].clone();
            if cfg.locks > 0 && t < cfg.locks {
                calls.push(format!("sweep{t}"));
            }
            calls.extend(takes[t].iter().cloned());
            calls
        })
        // A thread with no calls never reaches its terminal state in the
        // VM and would turn every schedule into a deadlock.
        .filter(|calls| !calls.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_analyze::{analyze, Severity};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::sized(3, 42);
        assert_eq!(generate_source(&cfg), generate_source(&cfg));
        let other = GenConfig::sized(3, 43);
        assert_ne!(generate_source(&cfg), generate_source(&other));
    }

    #[test]
    fn generated_components_validate_compile_and_stay_clean() {
        for n in 1..=4 {
            for seed in [7u64, 99] {
                let cfg = GenConfig::sized(n, seed);
                let c = generate(&cfg);
                assert_eq!(c.name, cfg.class_name());
                let errors = jcc_model::validate::validate(&c);
                assert!(errors.is_empty(), "size {n}: {errors:?}");
                jcc_vm::compile(&c).unwrap_or_else(|e| panic!("size {n}: {e:?}"));
                let report = analyze(&c);
                assert_eq!(
                    report.count(Severity::High),
                    0,
                    "size {n} seed {seed} got High diagnostics:\n{}",
                    report.render()
                );
            }
        }
    }

    #[test]
    fn generated_components_roundtrip_through_the_printer() {
        let cfg = GenConfig::sized(2, 5);
        let reparsed = jcc_model::parse_component(&generate_source(&cfg)).unwrap();
        assert_eq!(generate(&cfg), reparsed);
    }

    #[test]
    fn call_plan_is_balanced_and_puts_come_first() {
        let cfg = GenConfig::sized(3, 11);
        let plan = call_plan(&cfg);
        assert!(!plan.is_empty() && plan.len() <= cfg.threads);
        assert!(plan.iter().all(|t| !t.is_empty()));
        let mut puts = std::collections::BTreeMap::new();
        let mut takes = std::collections::BTreeMap::new();
        for thread in &plan {
            let first_take = thread
                .iter()
                .position(|c| c.starts_with("take"))
                .unwrap_or(thread.len());
            for (i, call) in thread.iter().enumerate() {
                if let Some(g) = call.strip_prefix("put") {
                    *puts.entry(g.to_string()).or_insert(0usize) += 1;
                    assert!(i < first_take, "puts must precede takes");
                } else if call.starts_with("take") {
                    let g = call
                        .trim_start_matches("take")
                        .split('_')
                        .next()
                        .unwrap()
                        .to_string();
                    *takes.entry(g).or_insert(0usize) += 1;
                }
            }
        }
        assert_eq!(puts, takes, "per-guard put/take multisets must balance");
    }

    #[test]
    fn every_planned_call_exists_on_the_component() {
        let cfg = GenConfig::sized(4, 3);
        let c = generate(&cfg);
        for thread in call_plan(&cfg) {
            for call in thread {
                assert!(c.method(&call).is_some(), "missing method {call}");
            }
        }
    }

    #[test]
    fn wait_sites_clamp_up_to_guards() {
        let cfg = GenConfig {
            guards: 4,
            wait_sites: 1,
            locks: 0,
            padding: 0,
            threads: 2,
            seed: 0,
        };
        let c = generate(&cfg);
        let takes = c
            .methods
            .iter()
            .filter(|m| m.name.starts_with("take"))
            .count();
        assert_eq!(takes, 4, "every guard needs a taker");
    }
}
