//! The two byte-equality checks on the 171-version Wikimedia genealogy that
//! no differential suite makes at this depth: a store-on database, whose
//! cold reads resolve through fused γ-chains, against a store-off one, which
//! resolves hop by hop, at versions up to 62 hops above the data; and the
//! query layer's pushed-down title probe against scan + filter on the head
//! version.

use inverda::storage::BoundExpr;
use inverda::workloads::wikimedia;
use inverda::{AccessPath, Expr, Inverda, Relation, Value};

/// The Wikimedia genealogy with its data loaded at the load version, at the
/// scale of the paper bins' smoke runs.
fn wiki_db() -> Inverda {
    let db = wikimedia::install();
    db.execute(&format!(
        "MATERIALIZE '{}';",
        wikimedia::version_name(wikimedia::LOAD_VERSION)
    ))
    .unwrap();
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, 0.002);
    db
}

/// Every depth of the ADD/DROP/RENAME run above the load version (the
/// Figure 12 reads plus the pushed-down title probe), the deepest first so
/// that no shallower snapshot ends a fused run early, then the skolem
/// registry and the key sequence.
fn fingerprint(db: &Inverda) -> String {
    let mut s = String::new();
    for v in [171, 160, 145, 130, 115] {
        let name = wikimedia::version_name(v);
        for table in ["page", "links"] {
            s.push_str(&format!(
                "{name}.{table}:\n{}",
                db.scan(&name, table).unwrap()
            ));
        }
        s.push_str(&format!("probe {v}: {}\n", wikimedia::probe_version(db, v)));
    }
    s.push_str(&db.debug_registry());
    s.push_str(&format!("key_seq={}", db.debug_key_seq()));
    s
}

/// A store-on database resolves the chain fused, its store-off twin hop by
/// hop; both must produce the same rows at every depth, and the same
/// skolem registry and key sequence: first on the freshly loaded data,
/// where every aux table above the data is empty and the fused chains are
/// built on that assumption, then after a write through the head has filled
/// the aux tables of its ADD COLUMN hops. Before the second round the
/// store-on database drops its snapshots but keeps its fused chains, so its
/// reads revalidate the chains' emptiness assumptions instead of hitting
/// maintained snapshots.
#[test]
fn fused_chains_resolve_the_same_bytes_as_hop_by_hop() {
    let fused = wiki_db();
    let plain = wiki_db();
    plain.set_snapshot_reuse(false);
    let on_fused = fingerprint(&fused);
    let (chains, deepest) = fused.fused_chain_stats();
    assert!(
        deepest > 1,
        "no chain fused: {chains} chains, deepest run {deepest} hops"
    );
    assert!(on_fused.contains(&format!("Page_{}", wikimedia::PROBE_TITLE_I)));
    assert_eq!(
        on_fused,
        fingerprint(&plain),
        "fused ≠ hop-by-hop on the loaded data"
    );
    assert_eq!(
        plain.fused_chain_stats(),
        (0, 0),
        "the store-off twin fused"
    );

    let head = wikimedia::version_name(171);
    let row: Vec<Value> = fused
        .columns_of(&head, "page")
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, c)| match c.as_str() {
            "title" => Value::text(format!("Page_{}", wikimedia::PROBE_TITLE_I)),
            "text" => Value::text("written through the head"),
            _ => Value::Int(1_000 + i as i64),
        })
        .collect();
    for db in [&fused, &plain] {
        db.insert(&head, "page", row.clone()).unwrap();
    }
    fused.set_snapshot_reuse(false);
    fused.set_snapshot_reuse(true);
    assert!(
        fused.fused_chain_stats().0 >= chains,
        "the chains were kept"
    );
    let on_fused = fingerprint(&fused);
    assert!(on_fused.contains("written through the head"));
    assert_eq!(
        on_fused,
        fingerprint(&plain),
        "fused ≠ hop-by-hop after a head write"
    );
}

/// `title = 'Page_7'` on the head version, 62 hops above the data: the
/// query layer resolves the version and scans it when cold and probes the
/// cached snapshot's index when warm; both must return exactly
/// the rows, tuple ids included, that a full scan filtered by the client
/// returns.
#[test]
fn the_head_title_probe_equals_scan_and_filter() {
    let db = wiki_db();
    let version = wikimedia::version_name(171);
    let filter = Expr::col("title").eq(Expr::lit(format!("Page_{}", wikimedia::PROBE_TITLE_I)));
    let columns = db.columns_of(&version, "page").unwrap();
    let bound = BoundExpr::bind(&filter, "page", &columns).unwrap();
    for warm in [false, true] {
        db.set_snapshot_reuse(warm);
        if warm {
            db.scan(&version, "page").unwrap();
        }
        let pushed = db
            .query(&version, "page")
            .filter(filter.clone())
            .collect()
            .unwrap();
        let access = db
            .query(&version, "page")
            .filter(filter.clone())
            .plan()
            .unwrap()
            .access;
        assert!(
            matches!(
                (warm, &access),
                (false, AccessPath::Scan) | (true, AccessPath::IndexProbe { .. })
            ),
            "warm {warm}: {access}"
        );
        let scanned = db.scan(&version, "page").unwrap();
        let mut filtered = Relation::new(scanned.schema().clone());
        for (k, row) in scanned.iter() {
            if bound.matches(row).unwrap() {
                filtered.upsert(k, row.to_vec()).unwrap();
            }
        }
        assert!(
            !filtered.is_empty(),
            "warm {warm}: the probe title is missing"
        );
        assert_eq!(pushed.len(), filtered.len(), "warm {warm}");
        for (k, row) in filtered.iter() {
            assert_eq!(pushed.get(k), Some(row), "warm {warm}: row {k}");
        }
    }
}
