//! `wiki_evolve` and `wiki_migrate`: the 171-version Wikimedia genealogy at
//! Akan scale 0.01 (143 pages, 5 362 links), data materialized at v109.
//!
//! Both first take the data once to v171 and back. A database that has been
//! migrated is the long-lived, stationary state: a cold scan of the head
//! costs ~15× more in it than in a freshly loaded one, and the first forward
//! move is 3× cheaper than every later one.
//!
//! Sizing (reference box): a `wiki_evolve` iteration is ~180 ms (create
//! 0.9 ms, cold read txn ~125 ms, cold insert ~46 ms, two warm updates of
//! ~2 ms, delete ~2 ms, drop 2 ms). A `wiki_migrate` round trip is ~0.8 s
//! (forward 0.45 s, back 0.13 s, the two verifications 0.2 s). ISSUE.md
//! proposed scale 0.03 for `wiki_migrate`; a round trip is then 2.2 s and the
//! whole window would hold seven.

use super::{Plan, Scale, Workload};
use crate::harness::{Class, Fnv, Recorder, Rng};
use inverda_bidel::parse_script;
use inverda_core::Inverda;
use inverda_storage::{Expr, Value};
use inverda_workloads::wikimedia;

const DATA: &str = "v109";
const HEAD: &str = "v171";
/// The versions whose reads are verified: first, the paper's two query
/// versions, and the one holding the data.
const CHECKED: [&str; 4] = ["v001", "v028", DATA, HEAD];
const TABLES: [&str; 2] = ["page", "links"];
/// SMO hops between a child of the head and the data at v109.
const HOPS_TO_DATA: f64 = 63.0;

const CREATE_TMP: &str =
    "CREATE SCHEMA VERSION vtmp FROM v171 WITH ADD COLUMN bench_extra AS 0 INTO page;";
const TO_HEAD: &str = "MATERIALIZE 'v171';";
const TO_DATA: &str = "MATERIALIZE 'v109';";

struct Wiki {
    db: Inverda,
    pages: usize,
    links: usize,
}

/// Parse and install the history, put the data at v109, move it to the head
/// and back once.
fn install(scale: Scale, rec: &mut Recorder) -> Wiki {
    let akan = if scale == Scale::Smoke { 0.002 } else { 0.01 };
    let scripts = wikimedia::history_scripts();
    rec.call("setup.parse_history", || {
        scripts.iter().try_for_each(|s| parse_script(s).map(drop))
    });
    let db = Inverda::new_in_memory();
    rec.call("setup.install_history", || {
        scripts.iter().try_for_each(|s| db.execute(s).map(drop))
    });
    rec.call("setup.materialize", || db.execute(TO_DATA));
    rec.call("setup.load", || {
        wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, akan);
        Ok::<_, String>(())
    });
    let pages = rec
        .call("setup.count", || db.count(DATA, "page"))
        .unwrap_or(0);
    let links = rec
        .call("setup.count", || db.count(DATA, "links"))
        .unwrap_or(0);
    rec.check(pages > 0 && links > 0, "wiki data loaded");

    // The head scanned cold while the database has never been migrated.
    rec.timed("setup.fresh_scan", |rec| {
        for table in TABLES {
            rec.call("setup.fresh_scan_table", || db.scan(HEAD, table));
        }
    });
    rec.call("setup.materialize", || db.execute(TO_HEAD));
    rec.call("setup.materialize", || db.execute(TO_DATA));
    Wiki { db, pages, links }
}

impl Wiki {
    /// `page` and `links` counted through the four checked versions.
    fn verify_counts(&self, rec: &mut Recorder) {
        for version in CHECKED {
            for (table, expected) in TABLES.iter().zip([self.pages, self.links]) {
                let n = rec.call("verify.count", || self.db.count(version, table));
                rec.check(n == Some(expected), "row count through a checked version");
            }
        }
    }

    /// Every checked version shows the same keys and titles as the data
    /// version; the digest covers all eight scans.
    fn verify_state(&self, rec: &mut Recorder) -> u64 {
        let mut h = Fnv::default();
        let db = &self.db;
        let mut titles: Option<Vec<(u64, Value)>> = None;
        for version in CHECKED {
            for table in TABLES {
                let Some(rel) = rec.call("verify.scan", || db.scan(version, table)) else {
                    continue;
                };
                h.relation(&format!("{version}.{table}"), &rel);
                if table == "links" {
                    rec.check(rel.len() == self.links, "links visible");
                    continue;
                }
                let title = title_column(db, rec, version);
                let seen: Vec<(u64, Value)> = rel
                    .iter()
                    .map(|(k, row)| (k.0, row[title].clone()))
                    .collect();
                rec.check(seen.len() == self.pages, "pages visible");
                match &titles {
                    Some(first) => rec.check(*first == seen, "same pages through every version"),
                    None => titles = Some(seen),
                }
            }
        }
        h.finish()
    }
}

fn title_column(db: &Inverda, rec: &mut Recorder, version: &str) -> usize {
    rec.call("verify.columns", || db.columns_of(version, "page"))
        .and_then(|cols| cols.iter().position(|c| c == "title"))
        .unwrap_or(0)
}

/// A `page` row for the given columns: text where the generator loads text,
/// integers elsewhere.
fn page_row(columns: &[String], title: &str, rng: &mut Rng) -> Vec<Value> {
    columns
        .iter()
        .map(|c| match c.as_str() {
            "title" => Value::text(title),
            "text" => Value::text(format!("bench text {}", rng.below(1 << 20))),
            _ => Value::Int(rng.below(100) as i64),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// wiki_evolve
// ---------------------------------------------------------------------------

struct Iteration {
    probe: Expr,
    insert: Vec<Value>,
    updates: [Vec<Value>; 2],
}

pub struct Evolve {
    wiki: Wiki,
    iterations: std::vec::IntoIter<Iteration>,
    /// Row and title written through the head between rounds.
    head_row: Vec<Value>,
    head_title: String,
}

pub fn build_evolve(
    seed: u64,
    scale: Scale,
    rounds: usize,
    rec: &mut Recorder,
) -> (Box<dyn Workload>, Plan) {
    let plan = Plan::of(scale, rounds, 5, 22, 2);
    let wiki = install(scale, rec);
    let db = &wiki.db;

    // The columns a child of the head shows; learnt from a throw-away child.
    rec.call("setup.create_version", || db.execute(CREATE_TMP));
    let tmp_cols = rec
        .call("setup.columns", || db.columns_of("vtmp", "page"))
        .unwrap_or_default();
    rec.call("setup.drop_version", || db.drop_schema_version("vtmp"));
    let head_cols = rec
        .call("setup.columns", || db.columns_of(HEAD, "page"))
        .unwrap_or_default();

    let mut rng = Rng::new(seed);
    let iterations: Vec<Iteration> = (0..plan.warmup + plan.rounds * plan.round)
        .map(|i| Iteration {
            probe: Expr::col("title").eq(Expr::lit(format!("Page_{}", rng.below(wiki.pages)))),
            insert: page_row(&tmp_cols, &format!("Bench_{i}"), &mut rng),
            updates: [1, 2].map(|n| page_row(&tmp_cols, &format!("Bench_{i}_edit{n}"), &mut rng)),
        })
        .collect();
    let head_title = format!("Bench_head_{}", rng.below(1 << 20));
    let head_row = page_row(&head_cols, &head_title, &mut rng);
    let w = Evolve {
        wiki,
        iterations: iterations.into_iter(),
        head_row,
        head_title,
    };
    (Box::new(w), plan)
}

impl Workload for Evolve {
    fn iterate(&mut self, rec: &mut Recorder, n: usize) {
        let Wiki {
            db, pages, links, ..
        } = &self.wiki;
        for it in self.iterations.by_ref().take(n) {
            // Clears the compiled-rule and snapshot stores: everything below
            // resolves cold through the whole chain.
            rec.timed("ddl.create", |rec| {
                rec.call("create_version", || db.execute(CREATE_TMP));
            });
            rec.txn(Class::Read, "txn.read", |rec| {
                let hits = rec.call("read.probe", || {
                    db.query("vtmp", "page").filter(it.probe).count()
                });
                rec.check(hits == Some(1), "title probe through the new version");
                let p = rec.call("read.scan_page", || db.scan("vtmp", "page"));
                rec.check(p.is_some_and(|r| r.len() == *pages), "page scan length");
                let l = rec.call("read.scan_links", || db.scan("vtmp", "links"));
                rec.check(l.is_some_and(|r| r.len() == *links), "links scan length");
            });
            // Three write txns: the insert propagates cold, the two updates
            // warm, so p50 falls in the warm mode and p90 in the cold one. The
            // delete keeps the table stationary and is no latency sample.
            let key = rec.txn(Class::Write, "txn.write.insert", |rec| {
                rec.call("write.insert", || db.insert("vtmp", "page", it.insert))
            });
            if let Some(key) = key {
                for update in it.updates {
                    rec.txn(Class::Write, "txn.write.update", |rec| {
                        rec.call("write.update", || db.update("vtmp", "page", key, update));
                    });
                }
                rec.timed("cleanup.delete", |rec| {
                    rec.call("write.delete", || db.delete("vtmp", "page", key));
                });
            }
            rec.timed("ddl.drop", |rec| {
                rec.call("drop_version", || db.drop_schema_version("vtmp"));
            });
        }
    }

    /// A row written through the head is readable through all four checked
    /// versions, and gone from all of them once deleted.
    fn between_rounds(&mut self, rec: &mut Recorder) {
        let db = &self.wiki.db;
        let row = self.head_row.clone();
        let Some(key) = rec.call("verify.insert", || db.insert(HEAD, "page", row)) else {
            return;
        };
        for version in CHECKED {
            let title = title_column(db, rec, version);
            let row = rec.call("verify.get", || db.get(version, "page", key));
            let seen = row
                .flatten()
                .is_some_and(|r| r[title].as_text() == Some(self.head_title.as_str()));
            rec.check(seen, "head write readable through every checked version");
        }
        rec.call("verify.delete", || db.delete(HEAD, "page", key));
        for version in CHECKED {
            let row = rec.call("verify.get", || db.get(version, "page", key));
            rec.check(
                row == Some(None),
                "head delete visible through every checked version",
            );
        }
    }

    fn verify(&mut self, rec: &mut Recorder) -> u64 {
        self.wiki.verify_counts(rec);
        self.wiki.verify_state(rec)
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        let db = &self.wiki.db;
        for _ in 0..25 {
            rec.call("probe.parse", || parse_script(CREATE_TMP));
        }
        rec.call("probe.create_version", || db.execute(CREATE_TMP));
        rec.call("probe.cold_scan", || db.scan("vtmp", "links"));
        for _ in 0..5 {
            rec.call("probe.warm_scan", || db.scan("vtmp", "links"));
        }
        rec.call("probe.drop_version", || db.drop_schema_version("vtmp"));

        let parse = rec.p50_outside_us("probe.parse");
        let create = rec.p50_us("create_version");
        let warm = rec.p50_us("write.update");
        out.extend([
            ("bidel.parse_us", parse),
            (
                "bidel.parse_history_ms",
                rec.p50_outside_us("setup.parse_history") / 1e3,
            ),
            ("core.database.create_version_us", create),
            ("core.database.drop_version_us", rec.p50_us("drop_version")),
            ("catalog.register_us", create - parse),
            (
                "core.database.install_history_ms",
                rec.p50_outside_us("setup.install_history") / 1e3,
            ),
            ("core.write.chain_cold_us", rec.p50_us("write.insert")),
            ("core.write.chain_warm_us", warm),
            ("core.write.chain_warm_us_per_hop", warm / HOPS_TO_DATA),
            ("core.edb.chain_cold_probe_us", rec.p50_us("read.probe")),
            (
                "core.edb.chain_cold_scan_page_us",
                rec.p50_us("read.scan_page"),
            ),
            (
                "core.edb.chain_cold_scan_links_us",
                rec.p50_us("read.scan_links"),
            ),
            (
                "core.edb.chain_cold_scan_fresh_us",
                rec.p50_outside_us("setup.fresh_scan"),
            ),
            (
                "core.edb.chain_warm_scan_us",
                rec.p50_outside_us("probe.warm_scan"),
            ),
        ]);
    }
}

// ---------------------------------------------------------------------------
// wiki_migrate
// ---------------------------------------------------------------------------

pub struct Migrate {
    wiki: Wiki,
}

/// A round trip is 0.8 s. Rounds of five would make every p90 a maximum, so
/// the window is one round of all its round trips: fifteen at twelve seconds.
pub fn build_migrate(scale: Scale, rounds: usize, rec: &mut Recorder) -> (Box<dyn Workload>, Plan) {
    let trips = Plan::of(scale, rounds, 1, 5, 1);
    let plan = Plan {
        rounds: 1,
        round: rounds * trips.round,
        ..trips
    };
    (
        Box::new(Migrate {
            wiki: install(scale, rec),
        }),
        plan,
    )
}

impl Workload for Migrate {
    /// One round trip. Its write sample is the two moves together and its
    /// read sample the two verifications together, so both classes are
    /// homogeneous although a forward move costs 3× a backward one.
    fn iterate(&mut self, rec: &mut Recorder, n: usize) {
        let wiki = &self.wiki;
        for _ in 0..n {
            let ((), forward) = rec.timed("txn.migrate.forward", |rec| {
                rec.call("materialize.forward", || wiki.db.execute(TO_HEAD));
            });
            let ((), seen_at_head) = rec.timed("txn.verify.forward", |rec| wiki.verify_counts(rec));
            let ((), back) = rec.timed("txn.migrate.back", |rec| {
                rec.call("materialize.back", || wiki.db.execute(TO_DATA));
            });
            let ((), seen_at_data) = rec.timed("txn.verify.back", |rec| wiki.verify_counts(rec));
            rec.sample(Class::Write, forward + back);
            rec.sample(Class::Read, seen_at_head + seen_at_data);
        }
    }

    fn verify(&mut self, rec: &mut Recorder) -> u64 {
        self.wiki.verify_state(rec)
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        let forward_s = rec.p50_us("materialize.forward") / 1e6;
        let rows = (self.wiki.pages + self.wiki.links) as f64;
        out.extend([
            ("core.migrate.forward_s", forward_s),
            ("core.migrate.back_s", rec.p50_us("materialize.back") / 1e6),
            ("core.migrate.rows_moved", rows),
            ("core.migrate.rows_per_s", rows / forward_s),
            (
                "core.migrate.verify_ms",
                (rec.p50_us("txn.verify.forward") + rec.p50_us("txn.verify.back")) / 1e3,
            ),
        ]);
    }
}
