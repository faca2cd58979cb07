//! Deduplication of immutable per-geometry state across jobs.
//!
//! Building a [`Reconstruction`] (quadtree, MLFMA plan, translators,
//! incident fields) is by far the most expensive part of a small job's
//! setup, and it depends only on the scene geometry — not on the phantom,
//! iteration count or limits. Jobs whose specs share a geometry
//! fingerprint therefore share one cached `Arc<Reconstruction>`.
//!
//! Concurrency: the first job for a geometry builds while *holding a
//! per-key claim*, not the map lock — other geometries build concurrently,
//! and a second job for the *same* geometry blocks on a condvar until the
//! build lands instead of duplicating it. A build that unwinds withdraws
//! its claim and wakes the waiters, one of which then builds in its place.
//! Eviction is LRU over completed entries once the capacity is exceeded;
//! evicted entries only drop the cache's reference, so in-flight jobs keep
//! theirs alive.

use ffw_tomo::Reconstruction;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

enum Slot {
    /// A build is in flight on another thread; wait on the condvar.
    Building,
    /// Ready for use.
    Ready(Arc<Reconstruction>),
}

struct Inner {
    map: HashMap<u64, Slot>,
    /// Keys in least-recently-used order (front = coldest ready entry).
    lru: Vec<u64>,
}

/// A bounded, fingerprint-keyed cache of ready-to-run reconstructions.
pub struct PlanCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` geometries (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: Vec::new(),
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached reconstruction for `key`, building it with
    /// `build` on a miss. Concurrent callers with the same key get one
    /// build; different keys build in parallel.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Arc<Reconstruction>,
    ) -> Arc<Reconstruction> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match inner.map.get(&key) {
                    Some(Slot::Ready(recon)) => {
                        let recon = Arc::clone(recon);
                        inner.lru.retain(|&k| k != key);
                        inner.lru.push(key);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        ffw_obs::counter("serve.plan_cache.hits").inc();
                        return recon;
                    }
                    Some(Slot::Building) => {
                        inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        inner.map.insert(key, Slot::Building);
                        break;
                    }
                }
            }
        }
        // Claimed: build without holding the lock.
        self.misses.fetch_add(1, Ordering::Relaxed);
        ffw_obs::counter("serve.plan_cache.misses").inc();
        let claim = Claim { cache: self, key };
        let recon = build();
        std::mem::forget(claim);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.insert(key, Slot::Ready(Arc::clone(&recon)));
        inner.lru.push(key);
        while inner.lru.len() > self.capacity {
            let coldest = inner.lru.remove(0);
            inner.map.remove(&coldest);
        }
        drop(inner);
        self.ready.notify_all();
        recon
    }

    /// Withdraws `key`'s claim and wakes everyone waiting on it.
    fn withdraw(&self, key: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.remove(&key);
        drop(inner);
        self.ready.notify_all();
    }

    /// Cache hits so far (independent of the obs recorder being on).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A build claim in flight. Forgotten once the build returns; dropped only
/// if the build unwinds, and then it withdraws the claim — otherwise every
/// later caller with the key would wait for a build that never lands.
struct Claim<'a> {
    cache: &'a PlanCache,
    key: u64,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.withdraw(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_mlfma::Accuracy;
    use ffw_par::Pool;
    use ffw_tomo::SceneConfig;

    fn scene() -> SceneConfig {
        SceneConfig {
            accuracy: Accuracy::low(),
            ..SceneConfig::new(32, 2, 4)
        }
    }

    fn build() -> Arc<Reconstruction> {
        Arc::new(Reconstruction::with_pool(
            &scene(),
            Arc::clone(Pool::global_arc()),
        ))
    }

    #[test]
    fn same_key_hits_and_shares_the_instance() {
        let cache = PlanCache::new(4);
        let a = cache.get_or_build(7, build);
        let b = cache.get_or_build(7, build);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let first = cache.get_or_build(1, build);
        cache.get_or_build(2, build);
        cache.get_or_build(1, build); // touch 1: now 2 is coldest
        cache.get_or_build(3, build); // evicts 2
        assert_eq!(cache.misses(), 3);
        let again = cache.get_or_build(1, build); // still cached
        assert!(Arc::ptr_eq(&first, &again));
        cache.get_or_build(2, build); // rebuilt
        assert_eq!(cache.misses(), 4);
    }

    /// A build that panics leaves no claim behind: a caller that was
    /// waiting on it builds the geometry itself and returns. The outcome
    /// holds in every interleaving — a stale claim would block the second
    /// caller whenever it arrives — and the pause before the failure only
    /// makes it likely that the second caller is already on the condvar,
    /// which is the path `notify_all` serves.
    #[test]
    fn a_panicking_build_hands_its_claim_to_a_waiter() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = Arc::new(PlanCache::new(4));
        let (started_tx, started) = mpsc::channel();
        let (fail_tx, fail) = mpsc::channel::<()>();
        let first = {
            let cache = Arc::clone(&cache);
            #[expect(
                clippy::disallowed_methods,
                reason = "two service callers racing for one plan, as the engine's worker threads do"
            )]
            std::thread::spawn(move || {
                cache.get_or_build(5, || {
                    started_tx.send(()).expect("test alive");
                    let _ = fail.recv();
                    panic!("plan build failed");
                })
            })
        };
        started.recv().expect("the first build starts");
        let (done_tx, done) = mpsc::channel();
        let second = {
            let cache = Arc::clone(&cache);
            #[expect(
                clippy::disallowed_methods,
                reason = "two service callers racing for one plan, as the engine's worker threads do"
            )]
            std::thread::spawn(move || done_tx.send(cache.get_or_build(5, build)))
        };
        // Let the second caller reach the condvar, then fail the build.
        std::thread::sleep(Duration::from_millis(100));
        fail_tx.send(()).expect("first build waiting");
        assert!(first.join().is_err(), "the first build panics");
        let recon = done
            .recv_timeout(Duration::from_secs(60))
            .expect("the waiter builds instead of waiting forever");
        let sent = second.join().expect("the waiter returns");
        assert!(sent.is_ok());
        assert_eq!(cache.misses(), 2);
        assert!(Arc::ptr_eq(&recon, &cache.get_or_build(5, build)));
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(PlanCache::new(4));
        #[expect(
            clippy::disallowed_methods,
            reason = "four service callers racing for one plan, as the engine's worker threads do"
        )]
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || cache.get_or_build(9, build));
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
