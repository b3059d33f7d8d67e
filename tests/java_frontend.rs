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

/// A repeated method name is a frontend error at the repeat's name, and
/// only the first declaration is lowered: its findings keep their own
/// lines instead of taking the second declaration's spans.
#[test]
fn duplicate_method_keeps_the_first_declaration_and_its_lines() {
    let src = "class Over {\n  private int n = 0;\n\n  \
               public synchronized void put(int x) {\n    wait();\n    n = x;\n  }\n\n  \
               public synchronized void put() {\n    n = 1;\n    notifyAll();\n  }\n}\n";
    let opts = CheckOptions {
        deny: Severity::Low,
        ..CheckOptions::default()
    };
    let out = check_files(&[("Over.java".into(), src.into())], &opts);
    assert_eq!(out.exit_code(), 2, "{}", out.output);
    assert_eq!(out.front_errors, 1, "{}", out.output);
    assert!(
        out.output.contains("duplicate method `put`"),
        "{}",
        out.output
    );
    assert!(out.output.contains("Over.java:9:28"), "{}", out.output);
    let report = &out.files[0].reports[0];
    let wait = report
        .diagnostics
        .iter()
        .find(|d| d.check == CheckId::UnconditionalWait)
        .unwrap_or_else(|| panic!("EF-T3 expected:\n{}", out.output));
    assert_eq!(
        wait.src.as_ref().expect("a source location").line,
        5,
        "{}",
        out.output
    );
    assert_eq!(lower_one(src).component.methods.len(), 1);
}

/// A repeated field or lock name is a frontend error at the repeat's name,
/// and only the first declaration is lowered.
#[test]
fn duplicate_field_and_lock_are_rejected_at_the_repeat() {
    let src = "class Dup {\n  private int n = 0;\n  private final Object lock = new Object();\n  \
               private int n = 1;\n  private final Object lock = new Object();\n\n  \
               public void m() {\n    synchronized (lock) {\n      n = n + 1;\n      \
               lock.notify();\n    }\n  }\n}\n";
    let out = check_files(&[("Dup.java".into(), src.into())], &CheckOptions::default());
    assert_eq!(out.exit_code(), 2, "{}", out.output);
    assert_eq!(out.front_errors, 2, "{}", out.output);
    let field = out.output.find("duplicate field `n`\n  --> Dup.java:4:15\n");
    let lock = out.output.find("duplicate lock `lock`\n  --> Dup.java:5:24\n");
    assert!(field.is_some() && lock.is_some(), "{}", out.output);
    let (unit, diags) = parse(src);
    assert!(diags.is_empty(), "{diags:?}");
    let lowered = lower_class(&unit.classes[0]);
    assert_eq!(lowered.diags.len(), 2, "{:?}", lowered.diags);
    let c = &lowered.component;
    assert_eq!(c.locks, vec!["lock".to_string()]);
    assert_eq!(c.fields.len(), 1);
    assert_eq!(c.fields[0].init, jcc_core::model::ast::Expr::Int(0));
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

/// A method body of `levels` nested statement heads around `n++;`.
fn nested_statements(head: &str, tail: &str, levels: usize) -> String {
    format!(
        "class Deep {{ private int n = 0; private boolean b = true; \
         public void f() {{ {}n++;{} }} }}",
        head.repeat(levels),
        tail.repeat(levels)
    )
}

#[test]
fn hostile_statement_and_unary_nesting_is_one_spanned_error() {
    const LEVELS: usize = 20_000;
    let sources = [
        nested_statements("if (b) ", "", LEVELS),
        nested_statements("while (b) ", "", LEVELS),
        nested_statements("if (b) { n--; } else ", "", LEVELS),
        nested_statements("{ ", " }", LEVELS),
        format!(
            "class Deep {{ private boolean b = true; public void f() {{ b = {}b; }} }}",
            "!".repeat(LEVELS)
        ),
    ];
    for src in sources {
        let out = check_one(src);
        assert_eq!(out.exit_code(), 2, "{}", out.output);
        assert_eq!(out.front_errors, 1, "{}", out.output);
        assert!(out.output.contains("  --> Deep.java:1:"), "{}", out.output);
        assert!(out.output.contains("nesting deeper than"), "{}", out.output);
    }
}

/// A block of more statements than a statement path step can address is
/// one spanned lowering error at the first statement past the limit, and
/// the else-branch after it still resolves to its own statement.
#[test]
fn an_overlong_block_is_one_spanned_error() {
    use jcc_core::model::ast::ELSE_OFFSET;
    let src = format!(
        "class Long {{ private int n = 0; private boolean b = true;\n\
         public void f() {{ if (b) {{\n{}}} else {{ n = 2; }} }} }}\n",
        "n = 1;\n".repeat(ELSE_OFFSET + 1)
    );
    let out = check_files(
        &[("Long.java".into(), src.clone())],
        &CheckOptions::default(),
    );
    assert_eq!(out.exit_code(), 2, "{}", out.output);
    assert_eq!(out.front_errors, 1, "{}", out.output);
    let at = format!(
        "block of more than {ELSE_OFFSET} statements\n  --> Long.java:{}:1\n",
        3 + ELSE_OFFSET
    );
    assert!(out.output.contains(&at), "{}", out.output);
    let lowered = lower_one(&src);
    match &lowered.component.methods[0].body[0] {
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => assert_eq!((then_branch.len(), else_branch.len()), (ELSE_OFFSET, 1)),
        other => panic!("{other:?}"),
    }
    let last_then = lowered.map.resolve("f", Some(&[0, ELSE_OFFSET - 1]));
    let first_else = lowered.map.resolve("f", Some(&[0, ELSE_OFFSET]));
    assert_eq!(&src[last_then.lo as usize..last_then.hi as usize], "n = 1;");
    assert_eq!(
        &src[first_else.lo as usize..first_else.hi as usize],
        "n = 2;"
    );
    assert!(last_then.lo < first_else.lo);
}

/// A multi-megabyte class of many small methods goes through the whole
/// check in bounded time, with every method lowered and analyzed.
#[test]
fn a_multi_megabyte_source_checks_in_bounded_time() {
    const PAIRS: usize = 10_000;
    let mut src = String::from(
        "class Big {\n  private int n = 0;\n  private boolean ready = false;\n  \
         private final Object lock = new Object();\n",
    );
    for i in 0..PAIRS {
        src.push_str(&format!(
            "\n  // pair {i}\n  public synchronized void put{i}() {{\n    n = n + {i};\n    \
             ready = true;\n    notifyAll();\n  }}\n\n  public int take{i}() {{\n    \
             synchronized (this) {{\n      while (!ready) {{\n        wait();\n      }}\n      \
             ready = false;\n      return n - {i};\n    }}\n  }}\n"
        ));
    }
    src.push_str("}\n");
    assert!(src.len() > 2_000_000, "{} bytes", src.len());
    let inputs = [("Big.java".to_string(), src)];
    let started = std::time::Instant::now();
    let out = check_files(&inputs, &CheckOptions::default());
    let elapsed = started.elapsed();
    assert_eq!(
        out.exit_code(),
        0,
        "{}",
        &out.output[..out.output.len().min(2_000)]
    );
    assert_eq!(out.files[0].loc, 5 + 14 * PAIRS);
    assert_eq!(out.files[0].reports[0].component, "Big");
    assert_eq!(lower_one(&inputs[0].1).component.methods.len(), 2 * PAIRS);
    assert!(elapsed.as_secs() < 120, "checking took {elapsed:?}");
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

// ---------- pinned frontend output ----------

/// FNV-1a, for stable output fingerprints without a hasher dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 17 built-ins, every mutant of the full corpus and `gen` monitors
/// at the `lint` workload's sizes, each printed to Java as `(file, text)`.
fn printed_components() -> Vec<(String, String)> {
    use jcc_core::components::gen::{generate, GenConfig};
    use jcc_core::components::zoo::full_corpus;
    use jcc_core::model::examples;
    use jcc_core::model::mutate::all_mutants;
    let mut components = vec![
        examples::producer_consumer(),
        examples::bounded_buffer(),
        examples::semaphore(),
        examples::readers_writers(),
        examples::barrier(),
        examples::lock_order_deadlock(),
        examples::dining_deadlock(),
        examples::dining_ordered(),
        examples::racy_counter(),
    ];
    components.extend(jcc_core::components::zoo::zoo().into_iter().map(|(_, c)| c));
    assert_eq!(components.len(), 17);
    for (_, c) in full_corpus() {
        components.extend(all_mutants(&c).into_iter().map(|(_, m)| m));
    }
    for seed in 1..=3 {
        for guards in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64] {
            components.push(generate(&GenConfig {
                guards,
                wait_sites: 2 * guards,
                locks: guards.min(8),
                padding: 2 * guards,
                threads: 3,
                seed,
            }));
        }
    }
    components
        .iter()
        .map(|c| (format!("{}.java", c.name), print_component(c)))
        .collect()
}

/// Sources that stress the lexer: escapes (known and unknown, around
/// non-ASCII text), non-ASCII identifiers, CRLF line ends, stray and
/// bitwise characters, an out-of-range literal, Unicode-blank and
/// comment-only lines, and an unterminated string and comment.
fn hostile_lexemes() -> Vec<(String, String)> {
    let crlf = "class Crlf {\r\n  private boolean ready = false;\r\n\r\n  \
                public synchronized void take() {\r\n    wait();\r\n    ready = false;\r\n  }\r\n}\r\n";
    [
        (
            "Esc.java",
            "class Esc {\n  String a = \"tab\\there \\\"q\\\" back\\\\slash\\n\";\n  \
             String b = \"bad \\é escape \\q\";\n  String c = \"𝄞 é plain\";\n  \
             synchronized String m() { return a.concat(\"\\t\").concat(c); }\n}\n",
        ),
        (
            "Café.java",
            "class Café {\n  private int ñ1 = 0;\n  private final Object lås = new Object();\n  \
             public void m() {\n    synchronized (lås) { ñ1 = ñ1 + 1; lås.notify(); }\n  }\n  \
             public synchronized void é_$٣() { while (ñ1 == 0) { wait(); } }\n}\n",
        ),
        ("Crlf.java", crlf),
        (
            "Stray.java",
            "class Stray {\n  int x = 0 € 1;\n  int y = 2 # 3;\n  boolean b = true & false;\n  \
             int big = 99999999999999999999;\n  int z = x٣ ٣x;\n}\n",
        ),
        (
            "Blank.java",
            "// header\n\u{2003}\n\u{a0}// spaced comment\n\u{2003}* doc\nclass Blank {\n\
             \u{2009}\u{2009}/* block */ int n = 0;\n  \u{3000}\n  synchronized void m() { n++; }\n}\n",
        ),
        (
            "OpenStr.java",
            "class OpenStr {\n  String s = \"oops;\n  int n = 0;\n  void m() { s = \"again",
        ),
        (
            "OpenComment.java",
            "class OpenComment {\n  int n = 0;\n  /* never closed\n  void m() { n = 1; }\n",
        ),
    ]
    .into_iter()
    .map(|(f, s)| (f.to_string(), s.to_string()))
    .collect()
}

/// `jcc check --deny=low` text and JSON output, each file's line count,
/// and the lexer's token stream, over `inputs`.
fn frontend_fingerprints(inputs: &[(String, String)]) -> [u64; 4] {
    use jcc_core::javasrc::lexer::lex;
    let run = |format| {
        let opts = CheckOptions {
            deny: Severity::Low,
            format,
        };
        check_files(inputs, &opts)
    };
    let text = run(Format::Text);
    let json = run(Format::Json);
    let mut loc = String::new();
    let mut tokens = String::new();
    for ((file, src), f) in inputs.iter().zip(&text.files) {
        loc.push_str(&format!("{file} {} {}\n", f.loc, f.front_errors));
        let (toks, diags) = lex(src);
        for t in &toks {
            tokens.push_str(&format!("{:?} {:?}\n", t.kind, t.span));
        }
        tokens.push_str(&format!("{diags:?}\n"));
    }
    [
        fnv1a(text.output.as_bytes()),
        fnv1a(json.output.as_bytes()),
        fnv1a(loc.as_bytes()),
        fnv1a(tokens.as_bytes()),
    ]
}

/// `LowerMap::resolve` for every statement path of every lowered method,
/// plus each method's fallback (no path, and a path that is not there).
fn resolve_fingerprint(inputs: &[(String, String)]) -> u64 {
    use jcc_core::model::ast::walk_paths;
    let mut out = String::new();
    for (file, src) in inputs {
        let (unit, _) = parse(src);
        for class in &unit.classes {
            let lowered = lower_class(class);
            let map = &lowered.map;
            out.push_str(&format!("{file} {:?}\n", map.resolve("<none>", None)));
            for m in &lowered.component.methods {
                walk_paths(&m.body, &mut |_, path| {
                    out.push_str(&format!(
                        "{} {path:?} {:?}\n",
                        m.name,
                        map.resolve(&m.name, Some(path))
                    ));
                });
                out.push_str(&format!(
                    "{} {:?} {:?}\n",
                    m.name,
                    map.resolve(&m.name, None),
                    map.resolve(&m.name, Some(&[usize::MAX]))
                ));
            }
        }
    }
    fnv1a(out.as_bytes())
}

/// The frontend's observable output, pinned byte for byte: `jcc check`
/// over printed components and hostile lexemes, their line counts and
/// token streams, and the statement spans lowering records. The values
/// were computed before the frontend borrowed its tokens, AST and source
/// map; any drift is a behaviour change.
#[test]
fn frontend_output_is_pinned() {
    let printed = printed_components();
    let hostile = hostile_lexemes();
    let actual = (
        frontend_fingerprints(&printed),
        frontend_fingerprints(&hostile),
        resolve_fingerprint(&printed),
        resolve_fingerprint(&hostile),
    );
    let expected = (
        [
            0xe800_f508_4233_c9e7,
            0x13cd_1a3d_a4e8_64e5,
            0xbe03_73e1_66e1_a6ab,
            0xcb20_7a7e_7449_1f7f,
        ],
        [
            0xd089_a17b_896d_2f11,
            0x2c60_1c6a_8bd1_e6ef,
            0xc635_3112_e4fc_a654,
            0x4684_5d3a_a25c_b214,
        ],
        0xc362_4a3b_fc50_b727,
        0x32c3_0441_951a_33fb,
    );
    assert_eq!(actual, expected, "{actual:#x?}");
}
