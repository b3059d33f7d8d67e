//! # jcc-bench — experiment regeneration
//!
//! One binary per experiment of `DESIGN.md` §8 (`cargo run -p jcc-bench
//! --bin <name>`):
//!
//! | binary                  | regenerates                                  |
//! |-------------------------|----------------------------------------------|
//! | `fig1_model`            | Figure 1 — the petri-net model               |
//! | `table1_classification` | Table 1 — the failure classification         |
//! | `fig2_monitor`          | Figure 2 — the producer–consumer monitor     |
//! | `fig3_cofg`             | Figure 3 — the CoFGs for receive/send        |
//! | `e5_mutation_study`     | E5 — directed vs random mutant detection     |
//! | `e6_completion_oracle`  | E6 — the ConAn completion-time oracle        |
//! | `e7_detectors`          | E7 — Eraser lockset + lock-order cycles      |
//! | `e8_statespace`         | E8 — state-space growth                      |
//! | `e9_ablation`           | E9 — arc-only vs strengthened suite criteria |
//! | `e10_static_analysis`   | E10 — static analyzer precision/recall       |
//! | `e11_corpus_sweep`      | E11 — corpus scaling sweep                   |
//! | `e12_live_monitor`      | E12 — always-on monitor saturation           |
//! | `e13_java_frontend`     | E13 — Java frontend end to end               |
//! | `e14_live_introspection`| E14 — live-introspection overhead            |
//!
//! One operational binary rides along: `jcc-report`, the cross-run
//! regression ledger and the only regression gate. It diffs two or more
//! run reports into `jcc-ledger/v1` JSON plus a human table; CI runs
//! `jcc-report ci/bench_baseline*.json BENCH_eN.json --gate` once per
//! gated bench, judged by the `obs::ledger` rule table.
