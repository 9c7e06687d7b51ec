//! A *live* (thread-based) log pool: the same two-level-index / FIFO-pool
//! structure as the simulated TSUE front end, driven by real threads.
//!
//! This is the embeddable form of the paper's §3.2 structure for use
//! outside the simulator: producers append concurrently under a
//! `parking_lot` lock; sealed units are merged and dispatched over
//! `crossbeam` channels to a recycler pool; jobs for the same key always
//! land on the same worker (the paper's per-block thread affinity), so
//! per-location ordering — and therefore newest-wins semantics — is
//! preserved end to end.
//!
//! ```
//! use std::sync::Arc;
//! use tsue_core::live::{LiveLogPool, LivePoolConfig, RecycleSink};
//! use parking_lot::Mutex;
//!
//! struct Sink(Mutex<Vec<(u64, u64, Vec<u8>)>>);
//! impl RecycleSink for Sink {
//!     fn merge(&self, key: u64, off: u64, data: &[u8]) {
//!         self.0.lock().push((key, off, data.to_vec()));
//!     }
//! }
//!
//! let sink = Arc::new(Sink(Mutex::new(Vec::new())));
//! let pool = LiveLogPool::new(LivePoolConfig::default(), sink.clone());
//! pool.append(7, 0, &[1, 2, 3]);
//! pool.flush();
//! assert_eq!(sink.0.lock().len(), 1);
//! pool.shutdown();
//! ```

use crate::logpool::LogPool;
use crate::logunit::UnitState;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tsue_ecfs::rangemap::Discipline;
use tsue_ecfs::Chunk;

/// Where recycled (merged) log content is applied — the live analogue of
/// "overwrite the data block".
pub trait RecycleSink: Send + Sync + 'static {
    /// Applies one merged range. Calls for the same `key` arrive in log
    /// order on a single thread.
    fn merge(&self, key: u64, off: u64, data: &[u8]);
}

/// Tunables for the live pool.
#[derive(Clone, Debug)]
pub struct LivePoolConfig {
    /// Unit capacity in bytes.
    pub unit_size: u64,
    /// Units retained in the FIFO (read-cache depth).
    pub max_units: usize,
    /// Recycler worker threads.
    pub workers: usize,
    /// Backpressure bound on dispatched-but-unfinished merge jobs.
    pub max_outstanding: u64,
}

impl Default for LivePoolConfig {
    fn default() -> Self {
        LivePoolConfig {
            unit_size: 1 << 20,
            max_units: 4,
            workers: 2,
            max_outstanding: 4096,
        }
    }
}

struct Job {
    key: u64,
    off: u64,
    /// Shared view of the unit's merged range — the worker borrows it,
    /// never copies it.
    data: tsue_buf::Bytes,
}

struct Shared {
    pool: Mutex<LogPool<u64>>,
    outstanding: AtomicU64,
    drained: Condvar,
    drain_lock: Mutex<()>,
    appended: AtomicU64,
    merged: AtomicU64,
}

/// The concurrent log pool.
pub struct LiveLogPool {
    shared: Arc<Shared>,
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    cfg: LivePoolConfig,
}

impl LiveLogPool {
    /// Creates the pool and spawns its recycler workers.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new<S: RecycleSink>(cfg: LivePoolConfig, sink: Arc<S>) -> Self {
        assert!(cfg.workers > 0, "need at least one recycler");
        let shared = Arc::new(Shared {
            pool: Mutex::new(LogPool::new(cfg.unit_size, cfg.max_units, 0)),
            outstanding: AtomicU64::new(0),
            drained: Condvar::new(),
            drain_lock: Mutex::new(()),
            appended: AtomicU64::new(0),
            merged: AtomicU64::new(0),
        });
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (tx, rx) = unbounded::<Job>();
            senders.push(tx);
            let sink = Arc::clone(&sink);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tsue-recycler-{w}"))
                    .spawn(move || {
                        for job in rx {
                            sink.merge(job.key, job.off, &job.data);
                            shared.merged.fetch_add(1, Ordering::Relaxed);
                            if shared.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
                                let _g = shared.drain_lock.lock();
                                shared.drained.notify_all();
                            }
                        }
                    })
                    // INVARIANT: OS thread spawn fails only on resource exhaustion at
                    // startup; the live pool cannot operate without its recyclers.
                    .expect("spawn recycler"),
            );
        }
        LiveLogPool {
            shared,
            senders,
            workers,
            cfg,
        }
    }

    /// Appends a record; may seal and dispatch a full unit, and blocks
    /// briefly when the recycler backlog exceeds the configured bound.
    pub fn append(&self, key: u64, off: u64, data: &[u8]) {
        assert!(!data.is_empty(), "empty append");
        // Backpressure.
        while self.shared.outstanding.load(Ordering::Acquire) > self.cfg.max_outstanding {
            let mut g = self.shared.drain_lock.lock();
            self.shared
                .drained
                .wait_for(&mut g, std::time::Duration::from_millis(1));
        }
        let need = data.len() as u64 + crate::logunit::RECORD_HEADER;
        let mut pool = self.shared.pool.lock();
        if !pool.active_fits(need) {
            if let Some(uid) = pool.seal_active(0) {
                self.dispatch_unit(&mut pool, uid);
            }
            assert!(
                pool.provision_active(),
                "live pool exhausted: recycled units unavailable"
            );
        }
        // Into a pool-recycled buffer (the caller's slice is borrowed, so
        // this boundary copy is inherent — and counted).
        pool.active_mut().append(
            key,
            off,
            Chunk::real(tsue_buf::Bytes::copy_from_slice(data)),
            Discipline::Overwrite,
            true,
            0,
        );
        self.shared.appended.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves a read from the log cache; returns true when the range was
    /// fully covered (and `buf` patched).
    pub fn read(&self, key: u64, off: u64, buf: &mut [u8]) -> bool {
        let pool = self.shared.pool.lock();
        pool.overlay(&key, off, buf.len() as u64, Some(buf))
    }

    /// Seals the active unit and blocks until every dispatched merge has
    /// been applied.
    pub fn flush(&self) {
        {
            let mut pool = self.shared.pool.lock();
            if let Some(uid) = pool.seal_active(0) {
                self.dispatch_unit(&mut pool, uid);
            }
            pool.provision_active();
        }
        let mut g = self.shared.drain_lock.lock();
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            self.shared
                .drained
                .wait_for(&mut g, std::time::Duration::from_millis(1));
        }
    }

    /// Records appended so far.
    pub fn appended(&self) -> u64 {
        self.shared.appended.load(Ordering::Relaxed)
    }

    /// Merged ranges applied so far (post-folding — expect far fewer than
    /// [`Self::appended`] under locality).
    pub fn merged(&self) -> u64 {
        self.shared.merged.load(Ordering::Relaxed)
    }

    /// Stops the workers after draining. Consumes the pool.
    pub fn shutdown(mut self) {
        self.flush();
        self.senders.clear(); // closes channels; workers exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Extracts merged jobs from a sealed unit and dispatches them with
    /// per-key affinity; the unit becomes a Recycled read cache.
    fn dispatch_unit(&self, pool: &mut LogPool<u64>, uid: crate::logunit::UnitId) {
        // INVARIANT: the caller seals `uid` under this same pool lock just
        // before dispatching, and sealed units are never evicted.
        let unit = pool.unit_mut(uid).expect("sealed unit");
        unit.state = UnitState::Recycling;
        let mut jobs = Vec::new();
        for (&key, entry) in unit.index.iter_mut() {
            for (off, chunk) in entry.ranges.gather().iter() {
                jobs.push(Job {
                    key,
                    off,
                    // INVARIANT: the live pool appends only materialized chunks,
                    // never ghosts, so every merged range carries bytes.
                    data: chunk.bytes.clone().expect("live pool stores real bytes"),
                });
            }
        }
        // Deterministic dispatch order.
        jobs.sort_by_key(|j| (j.key, j.off));
        unit.state = UnitState::Recycled;
        let n = self.senders.len();
        for job in jobs {
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            let w = (job.key as usize).wrapping_mul(0x9e3779b9) >> 16;
            // INVARIANT: worker receivers live until drop() joins the pool,
            // and nothing dispatches after drop.
            self.senders[w % n].send(job).expect("worker alive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Sink that records the final content per (key, offset) byte.
    struct MapSink {
        bytes: Mutex<HashMap<(u64, u64), u8>>,
    }

    impl RecycleSink for MapSink {
        fn merge(&self, key: u64, off: u64, data: &[u8]) {
            let mut m = self.bytes.lock();
            for (i, &b) in data.iter().enumerate() {
                m.insert((key, off + i as u64), b);
            }
        }
    }

    fn new_pool(unit_size: u64) -> (LiveLogPool, Arc<MapSink>) {
        let sink = Arc::new(MapSink {
            bytes: Mutex::new(HashMap::new()),
        });
        let cfg = LivePoolConfig {
            unit_size,
            max_units: 4,
            workers: 2,
            max_outstanding: 1024,
        };
        (LiveLogPool::new(cfg, Arc::clone(&sink)), sink)
    }

    #[test]
    fn append_flush_applies_newest() {
        let (pool, sink) = new_pool(1 << 20);
        pool.append(1, 0, &[1; 64]);
        pool.append(1, 0, &[2; 64]); // newest wins
        pool.append(1, 64, &[3; 64]);
        pool.flush();
        let m = sink.bytes.lock();
        assert_eq!(m[&(1, 0)], 2);
        assert_eq!(m[&(1, 63)], 2);
        assert_eq!(m[&(1, 64)], 3);
        drop(m);
        assert_eq!(pool.appended(), 3);
        assert!(pool.merged() <= 2, "folding must shrink the job count");
        pool.shutdown();
    }

    #[test]
    fn read_cache_serves_unflushed_content() {
        let (pool, _sink) = new_pool(1 << 20);
        pool.append(9, 100, &[7; 32]);
        let mut buf = [0u8; 32];
        assert!(pool.read(9, 100, &mut buf));
        assert!(buf.iter().all(|&b| b == 7));
        let mut miss = [0u8; 32];
        assert!(!pool.read(9, 0, &mut miss));
        pool.shutdown();
    }

    #[test]
    fn concurrent_producers_converge() {
        let (pool, sink) = new_pool(16 << 10); // small units force seals
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    // Distinct keys per thread: per-key ordering is the
                    // guarantee under test.
                    p.append(t, (i % 16) * 64, &[(i % 251) as u8; 64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        pool.flush();
        let m = sink.bytes.lock();
        for t in 0..4u64 {
            for slot in 0..16u64 {
                // The newest write to (t, slot) has i ≡ slot + 16·n with the
                // largest n < 200/16; i = 176 + slot … compute directly:
                let last_i = (0..200u64).rev().find(|i| i % 16 == slot).unwrap();
                let expect = (last_i % 251) as u8;
                assert_eq!(
                    m[&(t, slot * 64)],
                    expect,
                    "thread {t} slot {slot} must hold its newest write"
                );
            }
        }
        drop(m);
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => panic!("pool still shared"),
        }
    }

    #[test]
    #[should_panic(expected = "empty append")]
    fn empty_append_panics() {
        let (pool, _sink) = new_pool(1 << 20);
        pool.append(1, 0, &[]);
    }
}
