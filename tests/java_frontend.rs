//! Integration tests for the Java-subset frontend (`jcc-javasrc`):
//! per-construct lowering fixtures, the checked-in corpus contract
//! (expected CheckId at the expected source line), parse-error recovery,
//! and proptests that the frontend is total and deterministic.

use std::path::PathBuf;

use proptest::prelude::*;

use jcc_core::analyze::{CheckId, Severity};
use jcc_core::javasrc::check::{check_files, check_paths, CheckOptions, Format};
use jcc_core::javasrc::{lower_class, parse};
use jcc_core::model::ast::{LockRef, Stmt};
use jcc_core::model::parse_component;
use jcc_core::model::pretty::print_component;

fn corpus(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/java_corpus").join(sub)
}

fn lower_one(src: &str) -> jcc_core::javasrc::Lowered {
    let (unit, diags) = parse(src);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(unit.classes.len(), 1);
    lower_class(&unit.classes[0])
}

// ---------- per-construct positive/negative fixtures ----------

#[test]
fn synchronized_method_vs_synchronized_block() {
    // Same component, two spellings: the method modifier sets the flag,
    // the block form lowers to an explicit Synchronized statement.
    let modifier = lower_one(
        "class A { int n = 0; public synchronized void inc() { n = n + 1; } }",
    );
    let m = &modifier.component.methods[0];
    assert!(m.synchronized);
    assert!(matches!(m.body[0], Stmt::Assign { .. }));

    let block = lower_one(
        "class A { int n = 0; public void inc() { synchronized (this) { n = n + 1; } } }",
    );
    let m = &block.component.methods[0];
    assert!(!m.synchronized);
    match &m.body[0] {
        Stmt::Synchronized { lock, body } => {
            assert_eq!(lock, &LockRef::This);
            assert!(matches!(body[0], Stmt::Assign { .. }));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn wait_in_while_is_clean_wait_in_if_is_flagged() {
    let while_src = "class W { boolean ready = false; \
        public synchronized void go() { ready = true; notifyAll(); } \
        public synchronized void await() { while (!ready) { wait(); } } }";
    let if_src = "class W { boolean ready = false; \
        public synchronized void go() { ready = true; notifyAll(); } \
        public synchronized void await() { if (!ready) { wait(); } } }";

    let clean = jcc_core::analyze::analyze(&lower_one(while_src).component);
    assert!(
        !clean.diagnostics.iter().any(|d| d.check == CheckId::WaitNotInLoop),
        "{}",
        clean.render()
    );
    let flagged = jcc_core::analyze::analyze(&lower_one(if_src).component);
    let hit = flagged
        .diagnostics
        .iter()
        .find(|d| d.check == CheckId::WaitNotInLoop)
        .unwrap_or_else(|| panic!("{}", flagged.render()));
    assert_eq!(hit.severity, Severity::Medium);
}

#[test]
fn notify_vs_notify_all_lower_to_distinct_statements() {
    let l = lower_one(
        "class N { boolean a = false; \
         public synchronized void one() { a = true; notify(); } \
         public synchronized void all() { a = true; notifyAll(); } }",
    );
    assert!(matches!(
        l.component.method("one").unwrap().body[1],
        Stmt::Notify { lock: LockRef::This }
    ));
    assert!(matches!(
        l.component.method("all").unwrap().body[1],
        Stmt::NotifyAll { lock: LockRef::This }
    ));
}

#[test]
fn nested_synchronized_lowers_and_nested_wait_is_flagged() {
    let src = "class D { private final Object inner = new Object(); boolean go = false; \
        public synchronized void outer() { synchronized (inner) { while (!go) { inner.wait(); } } } \
        public void poke() { synchronized (inner) { go = true; inner.notifyAll(); } } }";
    let l = lower_one(src);
    match &l.component.method("outer").unwrap().body[0] {
        Stmt::Synchronized { lock, .. } => assert_eq!(lock, &LockRef::Named("inner".into())),
        other => panic!("{other:?}"),
    }
    let report = jcc_core::analyze::analyze(&l.component);
    assert!(
        report.diagnostics.iter().any(|d| d.check == CheckId::NestedMonitorWait),
        "{}",
        report.render()
    );
}

// ---------- corpus contract: CheckId at the expected source line ----------

/// Every seeded-buggy corpus file must produce its seeded check at the
/// line documented in the file header.
#[test]
fn buggy_corpus_hits_the_expected_check_at_the_expected_line() {
    let expected: &[(&str, CheckId, u32)] = &[
        ("WaitInIf.java", CheckId::WaitNotInLoop, 23),
        ("UnconditionalWait.java", CheckId::UnconditionalWait, 19),
        ("MissingNotify.java", CheckId::NoNotifierForWait, 19),
        ("LockOrderCycle.java", CheckId::LockOrderCycle, 8),
        ("RacyCounter.java", CheckId::UnlockedFieldAccess, 12),
        ("NestedMonitorWait.java", CheckId::NestedMonitorWait, 17),
        ("MonitorNotHeld.java", CheckId::MonitorNotHeld, 14),
    ];
    for (file, check, line) in expected {
        let path = corpus("buggy").join(file);
        let out = check_paths(&[path], &CheckOptions::default()).expect("read corpus file");
        assert_eq!(out.front_errors, 0, "{file}: {}", out.output);
        let hit = out.files[0]
            .reports
            .iter()
            .flat_map(|r| r.diagnostics.iter())
            .find(|d| d.check == *check)
            .unwrap_or_else(|| panic!("{file}: expected {check} in\n{}", out.files[0].output));
        let src = hit.src.as_ref().expect("attached source location");
        assert_eq!(src.line, *line, "{file}: {check} anchored at the wrong line");
    }
}

#[test]
fn clean_corpus_has_zero_high_findings_on_java_input() {
    let out = check_paths(&[corpus("clean")], &CheckOptions::default()).expect("read clean corpus");
    assert_eq!(out.front_errors, 0, "{}", out.output);
    assert_eq!(out.exit_code(), 0, "{}", out.output);
    assert_eq!(out.files.len(), 8);
}

#[test]
fn parse_error_recovers_and_still_flags_the_rest() {
    let out = check_paths(&[corpus("invalid")], &CheckOptions::default()).expect("read invalid corpus");
    assert_eq!(out.exit_code(), 2);
    assert!(out.output.contains("error[parse]"), "{}", out.output);
    // Recovery: the class after the syntax error still parsed, lowered,
    // and analyzed (take()'s guard assignment is the benign Medium).
    let report = &out.files[0].reports[0];
    assert_eq!(report.component, "SyntaxError");
    assert!(!report.diagnostics.is_empty(), "{}", out.output);
}

// ---------- hostile nesting ----------

/// A class whose method nests `levels` synchronized blocks around `n++;`.
fn nested_synchronized(levels: usize) -> String {
    format!(
        "class Deep {{ private int n = 0; private final Object lock = new Object(); \
         public void f() {{ {} n++; {} }} }}",
        "synchronized (lock) { ".repeat(levels),
        "} ".repeat(levels)
    )
}

/// A class whose method runs `head` extended by `terms` copies of `link`:
/// a left-deep operator or call chain.
fn chain(head: &str, link: &str, terms: usize) -> String {
    format!(
        "class Deep {{ private int n = 0; private boolean b = true; private String s = \"\"; \
         public void f() {{ {head}{}; }} }}",
        link.repeat(terms)
    )
}

fn check_one(src: String) -> jcc_core::javasrc::CheckOutcome {
    check_files(&[("Deep.java".into(), src)], &CheckOptions::default())
}

#[test]
fn hostile_nesting_is_a_frontend_error_not_a_stack_overflow() {
    let parens = format!(
        "class Deep {{ private int n = 0; public void f() {{ n = {}1{}; }} }}",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let chains = [
        chain("n = 1", " + 1", 100_000),
        chain("b = b", " && b", 100_000),
        chain("s = s", ".concat(s)", 100_000),
    ];
    for src in [parens, nested_synchronized(20_000)].into_iter().chain(chains) {
        let out = check_one(src);
        assert_eq!(out.exit_code(), 2, "{}", out.output);
        assert_eq!(out.front_errors, 1, "{}", out.output);
        // Spanned: the diagnostic points into the file at a line.
        assert!(out.output.contains("Deep.java:1:"), "{}", out.output);
        assert!(out.output.contains("nesting deeper than"), "{}", out.output);
    }
}

#[test]
fn nesting_at_the_limit_still_lints_on_a_default_test_thread() {
    use jcc_core::javasrc::parser::MAX_NESTING_DEPTH;
    // The innermost statement sits one level inside the blocks, so this is
    // the deepest synchronized nesting the limit admits.
    let out = check_one(nested_synchronized(MAX_NESTING_DEPTH - 1));
    assert_eq!(out.front_errors, 0, "{}", out.output);
    assert_ne!(out.exit_code(), 2, "{}", out.output);
    let out = check_one(nested_synchronized(MAX_NESTING_DEPTH));
    assert_eq!(out.exit_code(), 2, "{}", out.output);
    // The statement and its expression take two levels; each fold one more.
    let out = check_one(chain("n = 1", " + 1", MAX_NESTING_DEPTH - 2));
    assert_eq!(out.front_errors, 0, "{}", out.output);
    assert_ne!(out.exit_code(), 2, "{}", out.output);
    let out = check_one(chain("n = 1", " + 1", MAX_NESTING_DEPTH - 1));
    assert_eq!(out.exit_code(), 2, "{}", out.output);
}

// ---------- determinism and totality (proptest) ----------

/// Build a small Java-ish source from indexed fragment pools. Many are
/// valid subset programs, some are malformed — both are good inputs for
/// the totality property.
fn source_from(seed: &[usize]) -> String {
    const GUARDS: &[&str] = &["!ready", "count > 0", "count == 0", "ready"];
    const STMTS: &[&str] = &[
        "wait();",
        "notify();",
        "notifyAll();",
        "count = count + 1;",
        "count--;",
        "ready = true;",
        "int x = count; count = x;",
        "helper();",
        "return;",
        "synchronized (this) { count = 0; }",
        ";",
        "count = ;", // malformed on purpose: recovery path
        "this.count = 1;",
    ];
    let mut body = String::new();
    for (i, &s) in seed.iter().enumerate() {
        match s % 4 {
            0 => body.push_str(&format!(
                "while ({}) {{ {} }}\n",
                GUARDS[s % GUARDS.len()],
                STMTS[(s / 4) % STMTS.len()]
            )),
            1 => body.push_str(&format!(
                "if ({}) {{ {} }} else {{ {} }}\n",
                GUARDS[s % GUARDS.len()],
                STMTS[(s / 4) % STMTS.len()],
                STMTS[(s / 5) % STMTS.len()]
            )),
            _ => body.push_str(&format!("{}\n", STMTS[(s + i) % STMTS.len()])),
        }
    }
    format!(
        "class G {{\n  private int count = 0;\n  private boolean ready = false;\n\
         \n  public synchronized void m() {{\n{body}  }}\n\
         \n  public synchronized void n() {{\n    ready = false;\n    notifyAll();\n  }}\n}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Totality: whatever the fragments compose to, the full check
    /// pipeline neither panics nor exits outside the 0/1/2 contract.
    #[test]
    fn frontend_is_total_over_fragment_soup(
        seed in proptest::collection::vec(0usize..1000, 0..12),
    ) {
        let src = source_from(&seed);
        for format in [Format::Text, Format::Json] {
            let opts = CheckOptions { format, ..CheckOptions::default() };
            let out = check_files(&[("G.java".into(), src.clone())], &opts);
            prop_assert!((0..=2).contains(&out.exit_code()));
        }
    }

    /// Determinism: lowering the same source twice produces structurally
    /// identical MIR (same pretty-print) and byte-identical check output.
    #[test]
    fn lowering_is_deterministic(
        seed in proptest::collection::vec(0usize..1000, 0..12),
    ) {
        let src = source_from(&seed);
        let (unit_a, diags_a) = parse(&src);
        let (unit_b, diags_b) = parse(&src);
        prop_assert_eq!(&diags_a, &diags_b);
        prop_assert_eq!(unit_a.classes.len(), unit_b.classes.len());
        for (a, b) in unit_a.classes.iter().zip(unit_b.classes.iter()) {
            let la = lower_class(a);
            let lb = lower_class(b);
            let printed = print_component(&la.component);
            prop_assert_eq!(&printed, &print_component(&lb.component));
            prop_assert_eq!(&la.diags, &lb.diags);
            // What lowers cleanly prints as Java that lowers back to it.
            if diags_a.is_empty() && la.diags.is_empty() {
                prop_assert_eq!(parse_component(&printed).unwrap(), la.component);
            }
        }
        let opts = CheckOptions::default();
        let out_a = check_files(&[("G.java".into(), src.clone())], &opts);
        let out_b = check_files(&[("G.java".into(), src)], &opts);
        prop_assert_eq!(out_a.output, out_b.output);
    }

    /// Raw-bytes totality: even arbitrary non-Java text must only ever
    /// produce a clean exit-2 report, never a panic.
    #[test]
    fn frontend_survives_arbitrary_text(
        bytes in proptest::collection::vec(0u8..128, 0..200),
    ) {
        let src: String = bytes.iter().map(|&b| b as char).collect();
        let out = check_files(
            &[("X.java".into(), src)],
            &CheckOptions::default(),
        );
        prop_assert!((0..=2).contains(&out.exit_code()));
    }
}
