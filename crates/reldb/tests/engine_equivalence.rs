//! Property test: the row engine and the column engine are observationally
//! equivalent — identical results for identical SQL over identical data,
//! under randomized schemas, data and query workloads.
//!
//! Seeded hand-rolled generation (no external crates): every run explores
//! the same workloads, and failures name the case index.

use xac_reldb::{Database, StorageKind, Value};

/// Seeded splitmix64 stream over the shared [`xac_obs::splitmix64`] step.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        xac_obs::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A randomized two-table database and a batch of queries over it.
struct Workload {
    parents: Vec<(i64, Option<String>)>,
    children: Vec<(i64, i64, Option<String>, i64)>,
    queries: Vec<String>,
}

fn random_text(rng: &mut Rng) -> Option<String> {
    match rng.below(8) {
        0 | 1 => Some("a".to_string()),
        2 | 3 => Some("b".to_string()),
        4 => Some("700".to_string()),
        5 => Some("1600".to_string()),
        _ => None,
    }
}

const QUERY_POOL: &[&str] = &[
    "SELECT id FROM child",
    "SELECT id FROM child WHERE v = 'a'",
    "SELECT id FROM child WHERE n > 1000",
    "SELECT id FROM child WHERE n <= 500 AND v != 'b'",
    "SELECT c.id FROM parent p, child c WHERE p.id = c.pid",
    "SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND p.v = 'a'",
    "(SELECT id FROM child WHERE v = 'a') UNION (SELECT id FROM child WHERE n > 900)",
    "(SELECT id FROM child) EXCEPT (SELECT id FROM child WHERE v = 'b')",
    "(SELECT id FROM child WHERE n > 100) INTERSECT (SELECT id FROM child WHERE v = 'a')",
    "SELECT p.id FROM parent p, child c",
    "SELECT pid FROM child WHERE pid = 3",
    "SELECT COUNT(*) FROM child WHERE n > 500",
    "SELECT COUNT(v) FROM child",
    "SELECT COUNT(c.id) FROM parent p, child c WHERE p.id = c.pid",
];

fn random_workload(rng: &mut Rng) -> Workload {
    let parents = (0..1 + rng.below(7))
        .map(|i| (i as i64 + 1, random_text(rng)))
        .collect();
    let children = (0..rng.below(20))
        .map(|i| {
            (
                100 + i as i64,
                1 + rng.below(7) as i64,
                random_text(rng),
                rng.below(2000) as i64,
            )
        })
        .collect();
    let queries = (0..1 + rng.below(5))
        .map(|_| QUERY_POOL[rng.below(QUERY_POOL.len())].to_string())
        .collect();
    Workload { parents, children, queries }
}

fn build(kind: StorageKind, w: &Workload) -> Database {
    let mut db = Database::new(kind);
    db.execute("CREATE TABLE parent (id INT PRIMARY KEY, v TEXT)").unwrap();
    db.execute("CREATE TABLE child (id INT PRIMARY KEY, pid INT INDEX, v TEXT, n INT)")
        .unwrap();
    for (id, v) in &w.parents {
        let v = v.as_ref().map(|s| Value::Text(s.clone())).unwrap_or(Value::Null);
        db.append_row("parent", vec![Value::Int(*id), v]).unwrap();
    }
    for (id, pid, v, n) in &w.children {
        let v = v.as_ref().map(|s| Value::Text(s.clone())).unwrap_or(Value::Null);
        db.append_row("child", vec![Value::Int(*id), Value::Int(*pid), v, Value::Int(*n)])
            .unwrap();
    }
    db
}

#[test]
fn row_and_column_engines_agree() {
    let mut rng = Rng(0xE1);
    for case in 0..128 {
        let w = random_workload(&mut rng);
        let mut row = build(StorageKind::Row, &w);
        let mut col = build(StorageKind::Column, &w);
        for q in &w.queries {
            let r = row.query(q).unwrap().sorted();
            let c = col.query(q).unwrap().sorted();
            assert_eq!(r, c, "case {case}: engines disagree on `{q}`");
        }
    }
}

#[test]
fn engines_agree_after_mutations() {
    let mut rng = Rng(0xE2);
    for case in 0..128 {
        let w = random_workload(&mut rng);
        let cut = rng.below(2000) as i64;
        let mut row = build(StorageKind::Row, &w);
        let mut col = build(StorageKind::Column, &w);
        for db in [&mut row, &mut col] {
            db.execute(&format!("UPDATE child SET v = 'u' WHERE n > {cut}")).unwrap();
            db.execute(&format!("DELETE FROM child WHERE n <= {}", cut / 2)).unwrap();
        }
        for q in &w.queries {
            let r = row.query(q).unwrap().sorted();
            let c = col.query(q).unwrap().sorted();
            assert_eq!(r, c, "case {case}: post-mutation disagreement on `{q}`");
        }
        assert_eq!(
            row.row_count("child").unwrap(),
            col.row_count("child").unwrap(),
            "case {case}"
        );
    }
}
