//! A [`Database`] clone — the relational half of every checkpoint —
//! allocates nothing: the catalog and the table vector are shared
//! pointers, copied only by the first write after the clone. Dropping
//! the clone frees nothing either.
//!
//! This file is its own test binary, so the counting allocator wraps
//! only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xac_reldb::{Database, StorageKind};

/// System allocator that counts allocations and frees.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn a_database_clone_allocates_and_frees_nothing() {
    for kind in [StorageKind::Row, StorageKind::Column] {
        let mut db = Database::new(kind);
        db.execute_script(
            "CREATE TABLE a (id INT PRIMARY KEY, pid INT INDEX, v TEXT, s TEXT);
             CREATE TABLE b (id INT PRIMARY KEY, pid INT INDEX, v TEXT, s TEXT);
             INSERT INTO a (id, pid, v, s) VALUES (1, NULL, 'a value longer than inline', '-');
             INSERT INTO b (id, pid, v, s) VALUES (2, 1, 'x', '-');",
        )
        .unwrap();
        let counts = || (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
        let before = counts();
        let clone = db.clone();
        drop(clone);
        assert_eq!(counts(), before, "{kind:?}: clone + drop touch the heap");
        let clone = db.clone();
        db.update_signs("a", &[1], '+').unwrap();
        assert_eq!(clone.row_count("b").unwrap(), 1);
    }
}
