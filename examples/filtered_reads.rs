//! Filtered reads through the query layer: predicates answered by an index
//! probe over a resolved schema version, projections and limits applied
//! while rows stream out. The example asserts the access path each read
//! takes, so running it checks the planner.
//!
//! Run with: `cargo run --release --example filtered_reads`

use inverda::{AccessPath, Expr};
use inverda_workloads::tasky;

fn main() {
    // Figure 1's three co-existing versions, with some data.
    let db = tasky::build();
    tasky::load_tasks(&db, 2_000);

    // `Do!` is a *virtual* version (SPLIT + DROP COLUMN away from the
    // data). The plan shows the access path the engine chose. The first
    // filtered read resolves `Do!.Todo` the way a scan would — one
    // canonical evaluation through those mappings — and scans it:
    let author007 = db
        .query("Do!", "Todo")
        .filter(Expr::col("author").eq(Expr::lit("author007")));
    let plan = author007.plan().unwrap();
    println!("cold plan:  {plan}");
    assert_eq!(plan.access, AccessPath::Scan, "{plan}");
    // The snapshot store kept the resolved relation, so the same query now
    // probes the warm snapshot's index.
    let plan = author007.plan().unwrap();
    println!("warm plan:  {plan}");
    assert!(
        matches!(plan.access, AccessPath::IndexProbe { ref column, op: "=" } if column == "author"),
        "{plan}"
    );
    let ann = author007.rows().unwrap();
    println!("\nauthor007's todos in Do! ({} rows):", ann.len());
    for (key, row) in ann {
        println!("  {key}: {row:?}");
    }

    // Projections and limits apply during emission; order_by sorts by a
    // column (ties break by tuple id).
    let top = db
        .query("TasKy", "Task")
        .filter(Expr::col("prio").ge(Expr::lit(2)))
        .order_by_desc("prio")
        .project(["task", "prio"])
        .limit(3)
        .rows()
        .unwrap();
    println!("\ntop prio tasks (projected to {:?}):", top.columns());
    for (key, row) in top {
        println!("  {key}: {row:?}");
    }

    // Aggregates never clone rows; a warm unfiltered count is O(1).
    let urgent = db
        .query("TasKy", "Task")
        .filter(Expr::col("prio").eq(Expr::lit(1)))
        .count()
        .unwrap();
    println!("\nprio-1 tasks in TasKy: {urgent}");
    println!(
        "any task by author199? {}",
        db.query("TasKy", "Task")
            .filter(Expr::col("author").eq(Expr::lit("author199")))
            .exists()
            .unwrap()
    );

    // An index probe is byte-for-byte equivalent to scan + filter — the
    // query layer only changes *how* rows are found, never *which*.
    let scanned = db.scan("Do!", "Todo").unwrap();
    let by_hand = scanned
        .iter()
        .filter(|(_, row)| row[0] == "author007".into())
        .count();
    let probed = author007.count().unwrap();
    assert_eq!(by_hand, probed);
    println!("\nindex probe == scan+filter: {probed} rows either way");
}
