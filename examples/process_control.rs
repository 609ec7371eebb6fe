//! Process control — the database-production-system application the
//! paper's introduction motivates ("many new database applications,
//! e.g., manufacturing and process control, need some rule based
//! reasoning").
//!
//! A plant floor: machines report temperature samples; rules classify
//! overheating machines, shut them down, and dispatch technicians —
//! executed **in parallel** by the dynamic engine under the paper's
//! `Rc`/`Ra`/`Wa` protocol, with the commit trace checked against the
//! single-thread execution semantics (Definition 3.2).
//!
//! ```text
//! cargo run --example process_control
//! ```

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};

const RULES: &str = r#"
; A sample above the threshold marks its machine overheated.
(p flag-overheat
   (sample ^machine <m> ^temp { > 90 <t> })
   (machine ^id <m> ^state running)
   -->
   (remove 1)
   (modify 2 ^state overheated ^last-temp <t>))

; Cool samples are simply consumed.
(p consume-normal
   (sample ^machine <m> ^temp <= 90)
   -->
   (remove 1))

; Hot samples for machines no longer running are stale: consume them.
(p consume-stale
   (sample ^machine <m> ^temp > 90)
   -(machine ^id <m> ^state running)
   -->
   (remove 1))

; An overheated machine is shut down and a technician dispatched,
; unless one is already on the way.
(p shutdown
   (machine ^id <m> ^state overheated)
   -(dispatch ^machine <m>)
   -->
   (modify 1 ^state shutdown)
   (make dispatch ^machine <m>))
"#;

fn main() {
    let rules = RuleSet::parse(RULES).expect("rule set parses");
    let mut wm = WorkingMemory::new();
    for m in 0..6i64 {
        wm.insert(
            WmeData::new("machine")
                .with("id", m)
                .with("state", "running"),
        );
    }
    // Samples: machines 1 and 4 run hot.
    for (m, t) in [
        (0i64, 70i64),
        (1, 95),
        (2, 80),
        (3, 65),
        (4, 102),
        (5, 88),
        (1, 97),
    ] {
        wm.insert(WmeData::new("sample").with("machine", m).with("temp", t));
    }
    let initial = wm.clone();

    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: ConflictPolicy::Revalidate,
            workers: 4,
            work: WorkModel::FixedMicros(200), // each rule is a small "query"
            max_commits: 1_000,
            rc_escalation: None,
            ..Default::default()
        },
    );
    let report = engine.run();
    validate_trace(&rules, &initial, &report.trace)
        .expect("parallel run is semantically consistent");

    println!(
        "committed {} productions on 4 workers in {:.2} ms ({} aborts, trace valid)",
        report.commits,
        report.wall.as_secs_f64() * 1e3,
        report.aborts.total(),
    );
    let final_wm = engine.final_wm();
    for machine in final_wm.class_iter("machine") {
        println!("  {machine}");
    }

    let shutdown = final_wm
        .class_iter("machine")
        .filter(|w| w.get("state").and_then(|v| v.as_text()) == Some("shutdown"))
        .count();
    assert_eq!(shutdown, 2, "machines 1 and 4 shut down");
    assert_eq!(
        final_wm.class_iter("dispatch").count(),
        2,
        "one technician each"
    );
    assert_eq!(
        final_wm.class_iter("sample").count(),
        0,
        "all samples consumed"
    );
    println!("\nprocess control OK");
}
