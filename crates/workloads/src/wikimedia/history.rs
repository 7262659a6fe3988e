//! The generated history and its Akan-shaped data, written against
//! `Inverda`'s public API alone (the engine type is the parent module's).
//! The engine crate's `MATERIALIZE` planning oracle includes this file by
//! path: its unit tests cannot depend on this crate, which depends on it.

use super::Inverda;
use inverda_storage::Value;

/// Number of schema versions (the paper's 171).
pub const VERSIONS: usize = 171;

/// Akan wiki cardinalities (Section 8.3): 14,359 pages and 536,283 links.
pub const AKAN_PAGES: usize = 14_359;
/// See [`AKAN_PAGES`].
pub const AKAN_LINKS: usize = 536_283;

/// Version name for a 1-based version number (`1..=171`).
pub fn version_name(n: usize) -> String {
    format!("v{n:03}")
}

/// Data is loaded in this version (the paper's v16524, 109th version).
pub const LOAD_VERSION: usize = 109;

/// Generate the full history as BiDEL scripts, one per version.
pub fn history_scripts() -> Vec<String> {
    let mut flat: Vec<String> = Vec::new();
    let mut ac_counter = 0usize;
    let mut rc_queue: Vec<(String, String)> = Vec::new(); // (table, column)
    let mut dc_queue: Vec<(String, String)> = Vec::new();
    let ac_targets = ["page", "links", "revision", "user"];
    let mut rc_done = 0usize;
    let mut dc_done = 0usize;

    for round in 0..38usize {
        // CREATE TABLE (38 of the 42; 4 are in v001).
        flat.push(format!("CREATE TABLE wmt{round}(x, y)"));
        // ADD COLUMN: 3 on even rounds, 2 on odd rounds = 95 total.
        let acs = if round % 2 == 0 { 3 } else { 2 };
        for _ in 0..acs {
            let table = ac_targets[ac_counter % ac_targets.len()];
            let col = format!("c{ac_counter}");
            flat.push(format!("ADD COLUMN {col} AS 0 INTO {table}"));
            if ac_counter.is_multiple_of(2) {
                rc_queue.push((table.to_string(), col));
            } else {
                dc_queue.push((table.to_string(), col));
            }
            ac_counter += 1;
        }
        // RENAME COLUMN: one per round for the first 36 rounds.
        if rc_done < 36 && !rc_queue.is_empty() {
            let (table, col) = rc_queue.remove(0);
            flat.push(format!("RENAME COLUMN {col} IN {table} TO {col}r"));
            rc_done += 1;
        }
        // DROP COLUMN: one per round for rounds 10..31.
        if (10..31).contains(&round) && dc_done < 21 && !dc_queue.is_empty() {
            let (table, col) = dc_queue.remove(0);
            flat.push(format!("DROP COLUMN {col} FROM {table} DEFAULT 0"));
            dc_done += 1;
        }
        // DROP TABLE: wmt0..wmt9 at rounds 12..21.
        if (12..22).contains(&round) {
            flat.push(format!("DROP TABLE wmt{}", round - 12));
        }
        // DECOMPOSE: wmt10..wmt13 at rounds 22/24/26/28.
        if matches!(round, 22 | 24 | 26 | 28) {
            let t = 10 + (round - 22) / 2;
            flat.push(format!(
                "DECOMPOSE TABLE wmt{t} INTO wmt{t}a(x), wmt{t}b(y) ON PK"
            ));
        }
        // MERGE: (wmt14, wmt15) at round 30, (wmt16, wmt17) at round 32.
        if round == 30 {
            flat.push("MERGE TABLE wmt14 (x < 500), wmt15 (x >= 500) INTO wmerge0".into());
        }
        if round == 32 {
            flat.push("MERGE TABLE wmt16 (x < 500), wmt17 (x >= 500) INTO wmerge1".into());
        }
        // RENAME TABLE: once.
        if round == 34 {
            flat.push("RENAME TABLE wmt18 INTO searchindex".into());
        }
    }
    assert_eq!(flat.len(), 207, "SMO budget must total 207 after v001");

    // Chunk into 170 evolution steps: the first 37 steps carry 2 SMOs.
    let mut scripts = Vec::with_capacity(VERSIONS);
    scripts.push(
        "CREATE SCHEMA VERSION v001 WITH \
         CREATE TABLE page(title, namespace, text); \
         CREATE TABLE links(l_from, l_to); \
         CREATE TABLE user(name); \
         CREATE TABLE revision(rev_page, rev_comment);"
            .to_string(),
    );
    let mut iter = flat.into_iter();
    for step in 0..(VERSIONS - 1) {
        let n = step + 2; // version number
        let take = if step < 37 { 2 } else { 1 };
        let smos: Vec<String> = (&mut iter).take(take).collect();
        assert!(!smos.is_empty(), "ran out of SMOs at step {step}");
        scripts.push(format!(
            "CREATE SCHEMA VERSION {} FROM {} WITH {};",
            version_name(n),
            version_name(n - 1),
            smos.join("; ")
        ));
    }
    assert!(iter.next().is_none(), "unassigned SMOs remain");
    scripts
}

/// Generate a value for a column of a synthetic wiki row.
fn filler(column: &str, i: usize) -> Value {
    match column {
        "title" => Value::text(format!("Page_{i}")),
        "namespace" => Value::Int((i % 16) as i64),
        "text" => Value::text(format!("article text {i}")),
        "name" => Value::text(format!("user{i}")),
        c if c.starts_with("l_") => Value::Int((i * 37 % AKAN_PAGES.max(1)) as i64),
        _ => Value::Int((i % 100) as i64),
    }
}

/// Load Akan-wiki-shaped data into `page` and `links` of the given version
/// (1-based). `scale` shrinks the cardinalities (1.0 = full Akan size).
pub fn load_akan(db: &Inverda, version: usize, scale: f64) {
    let v = version_name(version);
    let n_pages = ((AKAN_PAGES as f64) * scale).max(1.0) as usize;
    let n_links = ((AKAN_LINKS as f64) * scale).max(1.0) as usize;
    let page_cols = db.columns_of(&v, "page").expect("page exists");
    let rows: Vec<Vec<Value>> = (0..n_pages)
        .map(|i| page_cols.iter().map(|c| filler(c, i)).collect())
        .collect();
    db.insert_many(&v, "page", rows).expect("load pages");
    let link_cols = db.columns_of(&v, "links").expect("links exists");
    let rows: Vec<Vec<Value>> = (0..n_links)
        .map(|i| link_cols.iter().map(|c| filler(c, i)).collect())
        .collect();
    db.insert_many(&v, "links", rows).expect("load links");
}
