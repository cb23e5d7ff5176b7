//! Sharded-cache behavior under concurrent access from scoped OS
//! threads (`std::thread::scope`), plus cross-thread invariants the
//! per-shard unit tests cannot see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use hgserve::ShardedLru;

#[test]
fn concurrent_mixed_workload_keeps_invariants() {
    const THREADS: usize = 8;
    const OPS: usize = 2_000;
    // Small budget so eviction happens constantly under contention.
    let cache = ShardedLru::new(16 * 1024, THREADS);
    let gets = AtomicU64::new(0);

    thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, gets) = (&cache, &gets);
            // Each thread works a rolling window of keys that overlaps its
            // neighbors', so threads race on shared keys, not disjoint sets.
            s.spawn(move || {
                for j in 0..OPS {
                    let key = format!("key-{}", (t * OPS / 2 + j) % 500);
                    if j % 3 == 0 {
                        cache.insert(&key, Arc::new(format!("value-of-{key}")));
                    } else {
                        gets.fetch_add(1, Ordering::Relaxed);
                        if let Some(v) = cache.get(&key) {
                            // A hit must never observe another key's value.
                            assert_eq!(v.as_str(), &format!("value-of-{key}"), "corrupt read");
                        }
                    }
                }
            });
        }
    });

    let st = cache.stats();
    assert_eq!(
        st.hits + st.misses,
        gets.load(Ordering::Relaxed),
        "every get is exactly one hit or one miss: {st:?}"
    );
    assert!(st.bytes <= st.capacity_bytes, "over budget: {st:?}");
    assert!(st.hits > 0, "workload should produce some hits: {st:?}");
    assert!(st.evictions > 0, "tiny budget should evict: {st:?}");
}

#[test]
fn concurrent_inserts_of_same_key_settle_on_one_entry() {
    let cache = ShardedLru::new(1 << 20, 4);
    thread::scope(|s| {
        for t in 0..8 {
            let cache = &cache;
            s.spawn(move || {
                for _ in 0..500 {
                    cache.insert("contended", Arc::new(format!("writer-{t}")));
                }
            });
        }
    });
    let st = cache.stats();
    assert_eq!(st.entries, 1, "{st:?}");
    let v = cache.get("contended").expect("present");
    assert!(v.starts_with("writer-"), "{v}");
    // Exactly one insertion counted: the other 3999 were replacements.
    assert_eq!(st.insertions, 1, "{st:?}");
}

#[test]
fn reads_scale_across_shards_without_poisoning() {
    let cache = ShardedLru::new(1 << 20, 8);
    for i in 0..256 {
        cache.insert(&format!("warm-{i}"), Arc::new("x".repeat(64)));
    }
    let results: Vec<u64> = thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let cache = &cache;
                s.spawn(move || {
                    (0..1_000)
                        .filter(|j| {
                            cache
                                .get(&format!("warm-{}", (t * 131 + j) % 256))
                                .is_some()
                        })
                        .count() as u64
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // Capacity is ample: nothing was evicted, so every read hits.
    assert_eq!(results.iter().sum::<u64>(), 8_000);
    assert_eq!(cache.stats().entries, 256);
}
