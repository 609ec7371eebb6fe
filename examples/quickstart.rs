//! Quickstart: define rules in the OPS5-ish DSL, load working memory,
//! run the single-thread engine, inspect the trace.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dbps::engine::{EngineConfig, SingleThreadEngine};
use dbps::rete::Strategy;
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};

fn main() {
    // --- rules: OPS5-ish DSL text, ids in source order ---
    let rules = RuleSet::parse(
        "(p restock (item ^name <n> ^stock { < 3 <s> })
            --> (modify 1 ^stock (+ <s> 10)) (make order ^item <n>))
         (p audit (order ^item <i>) -(audited ^item <i>)
            --> (make audited ^item <i>))",
    )
    .expect("parses");

    // --- working memory: a tiny inventory ---
    let mut wm = WorkingMemory::new();
    wm.insert(
        WmeData::new("item")
            .with("name", "bolt")
            .with("stock", 1i64),
    );
    wm.insert(WmeData::new("item").with("name", "nut").with("stock", 7i64));
    wm.insert(
        WmeData::new("item")
            .with("name", "washer")
            .with("stock", 0i64),
    );

    // --- run ---
    let mut engine = SingleThreadEngine::new(
        &rules,
        wm,
        EngineConfig {
            strategy: Strategy::Lex,
            max_cycles: 100,
        },
    );
    let report = engine.run();

    println!(
        "fired {} productions: {:?}",
        report.commits,
        report.trace.names()
    );
    println!("\nfinal working memory:");
    for wme in engine.wm().iter() {
        println!("  {wme}");
    }

    // bolt and washer were below the threshold; nut was fine.
    assert_eq!(engine.wm().class_iter("order").count(), 2);
    assert_eq!(engine.wm().class_iter("audited").count(), 2);
    let nut = engine
        .wm()
        .class_iter("item")
        .find(|w| w.get("name").and_then(|v| v.as_text()) == Some("nut"))
        .expect("nut survives");
    assert_eq!(nut.get("stock").and_then(|v| v.as_i64()), Some(7));
    println!("\nquickstart OK");
}
