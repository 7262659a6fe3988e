//! The Wikimedia database evolution benchmark (Curino et al. \[7]),
//! reconstructed synthetically.
//!
//! The paper implements 171 schema versions of Wikimedia with 211 SMOs and
//! reports their type histogram in Table 4. The per-version DDL of the real
//! benchmark is not in the paper, so this module generates a deterministic
//! history with **exactly** that histogram and chain length:
//!
//! | SMO            | count | | SMO          | count |
//! |----------------|-------|-|--------------|-------|
//! | CREATE TABLE   | 42    | | RENAME COLUMN| 36    |
//! | DROP TABLE     | 10    | | JOIN         | 0     |
//! | RENAME TABLE   | 1     | | DECOMPOSE    | 4     |
//! | ADD COLUMN     | 95    | | MERGE        | 2     |
//! | DROP COLUMN    | 21    | | SPLIT        | 0     |
//!
//! The core tables `page`, `links`, `user`, `revision` exist from v001 and
//! accumulate most ADD COLUMN evolution — reproducing the asymmetry the
//! paper attributes to "the dominance of add column SMOs" (Figure 12).

use inverda_core::Inverda;
use inverda_storage::{Expr, Value};

mod history;
pub use history::{
    history_scripts, load_akan, version_name, AKAN_LINKS, AKAN_PAGES, LOAD_VERSION, VERSIONS,
};

/// The version numbers used in Figure 12: queried (28th, 171st) and
/// materialized (1st, 109th, 171st); data is loaded at the 109th.
pub const QUERY_VERSIONS: [usize; 2] = [28, 171];
/// See [`QUERY_VERSIONS`].
pub const MAT_VERSIONS: [usize; 3] = [1, 109, 171];
/// Install all 171 versions into a fresh database.
pub fn install() -> Inverda {
    let db = Inverda::new();
    for script in history_scripts() {
        db.execute(&script).expect("wikimedia history step");
    }
    db
}

/// Histogram of SMO kinds over the whole installed history (Table 4).
pub fn smo_histogram(db: &Inverda) -> std::collections::BTreeMap<String, usize> {
    // Count via the executed scripts (the catalog does not expose its smo
    // list publicly through Inverda; recount from the source of truth).
    let mut hist = std::collections::BTreeMap::new();
    for script in history_scripts() {
        let parsed = inverda_bidel::parse_script(&script).expect("valid script");
        for stmt in parsed.statements {
            if let inverda_bidel::Statement::CreateSchemaVersion { smos, .. } = stmt {
                for smo in smos {
                    *hist.entry(smo.kind().to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    let _ = db;
    hist
}

/// The template read queries of Figure 12: scan the wiki tables of a
/// version; returns total rows read.
pub fn query_version(db: &Inverda, version: usize) -> usize {
    let v = version_name(version);
    let mut total = 0usize;
    for table in ["page", "links"] {
        total += db.scan(&v, table).expect("scan wiki table").len();
    }
    total
}

/// The title every [`probe_version`] / [`probe_version_scan`] pair looks
/// for — a page that exists at any load scale.
pub const PROBE_TITLE_I: usize = 7;

/// A selective per-version point probe issued **through the query API**:
/// count the pages of `version` whose title equals `Page_7`. A cold
/// virtual version is resolved whole, as a scan resolves it, and kept in
/// the snapshot store; a warm one answers from an index probe.
pub fn probe_version(db: &Inverda, version: usize) -> usize {
    let v = version_name(version);
    db.query(&v, "page")
        .filter(Expr::col("title").eq(Expr::lit(format!("Page_{PROBE_TITLE_I}"))))
        .count()
        .expect("pushdown probe")
}

/// The same probe answered by full scan + client-side filter — the shape
/// every filtered read had before the query layer existed.
pub fn probe_version_scan(db: &Inverda, version: usize) -> usize {
    let v = version_name(version);
    let rel = db.scan(&v, "page").expect("scan");
    let cols = db.columns_of(&v, "page").expect("columns");
    let title = cols
        .iter()
        .position(|c| c == "title")
        .expect("title column");
    let probe = Value::text(format!("Page_{PROBE_TITLE_I}"));
    rel.iter().filter(|(_, row)| row[title] == probe).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_has_171_versions_and_table_4_histogram() {
        let scripts = history_scripts();
        assert_eq!(scripts.len(), VERSIONS);
        let db = Inverda::new();
        // Parse-only histogram check (cheap).
        let mut hist = std::collections::BTreeMap::new();
        for script in &scripts {
            let parsed = inverda_bidel::parse_script(script).unwrap();
            for stmt in parsed.statements {
                if let inverda_bidel::Statement::CreateSchemaVersion { smos, .. } = stmt {
                    for smo in smos {
                        *hist.entry(smo.kind().to_string()).or_insert(0usize) += 1;
                    }
                }
            }
        }
        let _ = db;
        assert_eq!(hist["CREATE TABLE"], 42);
        assert_eq!(hist["DROP TABLE"], 10);
        assert_eq!(hist["RENAME TABLE"], 1);
        assert_eq!(hist["ADD COLUMN"], 95);
        assert_eq!(hist["DROP COLUMN"], 21);
        assert_eq!(hist["RENAME COLUMN"], 36);
        assert_eq!(hist["DECOMPOSE"], 4);
        assert_eq!(hist["MERGE"], 2);
        assert_eq!(hist.values().sum::<usize>(), 211);
    }

    #[test]
    fn full_history_installs() {
        let db = install();
        assert_eq!(db.versions().len(), VERSIONS);
        // The wiki tables exist at the key versions.
        for n in [1, 28, 109, 171] {
            let v = version_name(n);
            let tables = db.tables_of(&v).unwrap();
            assert!(tables.contains(&"page".to_string()), "{v}: {tables:?}");
            assert!(tables.contains(&"links".to_string()), "{v}");
        }
        // page accumulated extra columns along the way.
        let v171_cols = db.columns_of(&version_name(171), "page").unwrap();
        assert!(v171_cols.len() > 10, "{v171_cols:?}");
    }

    #[test]
    fn tiny_akan_load_is_visible_across_versions() {
        let db = install();
        // 0.2 % scale keeps the test fast.
        load_akan(&db, LOAD_VERSION, 0.002);
        let at_load = query_version(&db, LOAD_VERSION);
        assert!(at_load > 0);
        for q in QUERY_VERSIONS {
            assert_eq!(query_version(&db, q), at_load, "version {q}");
        }
        // The query-API probe must agree with scan+filter on every version
        // of the chain, cold (first touch after install) and warm.
        for q in QUERY_VERSIONS {
            let pushed = probe_version(&db, q);
            assert_eq!(pushed, probe_version_scan(&db, q), "version {q}");
            assert_eq!(pushed, 1, "Page_{PROBE_TITLE_I} loaded exactly once");
            assert_eq!(probe_version(&db, q), pushed, "warm probe, version {q}");
        }
    }
}
