//! The paper's running example (Figure 1): TasKy, the Do! phone app, and
//! the TasKy2 release — three co-existing schema versions, with writes
//! propagating between all of them.
//!
//! Run with: `cargo run --example tasky_evolution`

use inverda::workloads::tasky;
use inverda::{Inverda, Value};

fn main() {
    let db: Inverda = tasky::build();

    // Figure 1's data set.
    db.insert_many(
        "TasKy",
        "Task",
        vec![
            vec!["Ann".into(), "Organize party".into(), 3.into()],
            vec!["Ben".into(), "Learn for exam".into(), 2.into()],
            vec!["Ann".into(), "Write paper".into(), 1.into()],
            vec!["Ben".into(), "Clean room".into(), 1.into()],
        ],
    )
    .unwrap();

    println!("== The three schema versions of Figure 1 ==");
    println!("TasKy.Task:\n{}", db.scan("TasKy", "Task").unwrap());
    println!(
        "Do!.Todo (only prio-1 tasks, no prio column):\n{}",
        db.scan("Do!", "Todo").unwrap()
    );
    println!(
        "TasKy2.Task (normalized):\n{}",
        db.scan("TasKy2", "Task").unwrap()
    );
    println!("TasKy2.Author:\n{}", db.scan("TasKy2", "Author").unwrap());

    // "When a new entry is inserted in Todo, this will automatically insert
    // a corresponding task with priority 1 to Task in TasKy."
    let k = db
        .insert("Do!", "Todo", vec!["Eve".into(), "Review paper".into()])
        .unwrap();
    println!(
        "inserted via Do!: TasKy sees {:?}",
        db.get("TasKy", "Task", k).unwrap().unwrap()
    );
    println!(
        "TasKy2.Author gained Eve: {} authors",
        db.count("TasKy2", "Author").unwrap()
    );

    // Deleting through Do! removes the task everywhere.
    db.delete("Do!", "Todo", k).unwrap();
    assert!(db.get("TasKy", "Task", k).unwrap().is_none());
    println!("deleted via Do!: gone from all versions");

    // Completing a task through TasKy2 (prio change) updates Do!'s view.
    let task2 = db.scan("TasKy2", "Task").unwrap();
    let (write_paper, row) = task2
        .iter()
        .find(|(_, row)| row[0] == Value::text("Write paper"))
        .map(|(k, r)| (k, r.to_vec()))
        .unwrap();
    let before = db.count("Do!", "Todo").unwrap();
    db.update(
        "TasKy2",
        "Task",
        write_paper,
        vec![row[0].clone(), 2.into(), row[2].clone()],
    )
    .unwrap();
    println!(
        "raised 'Write paper' to prio 2 via TasKy2: Do! shrank {} -> {}",
        before,
        db.count("Do!", "Todo").unwrap()
    );

    // The DBA migrates as adoption shifts — all versions keep working.
    for target in ["TasKy2", "Do!", "TasKy"] {
        db.execute(&format!("MATERIALIZE '{target}';")).unwrap();
        println!(
            "MATERIALIZE '{target}': physical = {:?}, TasKy rows = {}",
            db.physical_table_versions(),
            db.count("TasKy", "Task").unwrap()
        );
    }
}
