//! Deterministic storage fault injection: [`FaultingBackend`] wraps any
//! [`StorageBackend`] and makes it fail on a seeded schedule.
//!
//! Production storage fails in ways the memory and log backends never
//! exercise on a healthy host: transient `EIO`, `ENOSPC`, torn writes
//! that ack a record whose bytes never fully land, and lying fsyncs
//! (sync reports success, the page cache is lost at the next crash).
//! The wrapper reproduces all four *deterministically* — faults come
//! either from an explicit injection queue ([`FaultHandle::inject`],
//! [`FaultHandle::fail_persistently`]) or from a per-operation seeded
//! roll against [`FaultConfig`] parts-per-million rates — so a seeded
//! run repeats with faults enabled: each store owns its own RNG stream,
//! whatever the other stores do.
//!
//! Durability model. Appends buffer inside the wrapper (the simulated
//! page cache) and reach the inner backend only at an *honest* `sync`.
//! A lying sync returns `Ok` and keeps the buffer — a later honest
//! sync can still persist it (just like a real page cache), but
//! [`FaultingBackend::simulate_crash`] drops it, leaving the inner
//! backend holding exactly the durable prefix. A torn write acks the
//! record and persists nothing; replay after a crash reports it as a
//! truncated tail, the same outcome the log backend's CRC scan
//! produces for a physically torn frame.
//!
//! The wrapper is composable over both backends: memory (chaos tests —
//! fault decisions still fire, state is ephemeral anyway) and log
//! (crash/reopen tests — the inner segment files hold only what an
//! honest sync flushed).

use super::{Footprint, LogRecord, ReplayLog, StorageBackend, StorageError};
use crate::audit::AuditEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Seeded probabilistic fault schedule, in faults per million
/// operations. All-zero (the default) injects nothing — the wrapper is
/// then a transparent buffering layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the per-store fault RNG stream.
    pub seed: u64,
    /// Transient `EIO` per append, ppm.
    pub append_io_ppm: u32,
    /// `ENOSPC` per append, ppm.
    pub enospc_ppm: u32,
    /// Torn write per append, ppm (record acked, bytes lost at a
    /// seeded offset).
    pub torn_ppm: u32,
    /// Transient `EIO` per sync, ppm.
    pub sync_io_ppm: u32,
    /// Lying fsync per sync, ppm (reports success, flushes nothing).
    pub fsync_lie_ppm: u32,
}

impl FaultConfig {
    /// A schedule with every fault class at the same rate — the chaos
    /// harness's usual shape.
    pub fn uniform(seed: u64, ppm: u32) -> FaultConfig {
        FaultConfig {
            seed,
            append_io_ppm: ppm,
            enospc_ppm: ppm,
            torn_ppm: ppm,
            sync_io_ppm: ppm,
            fsync_lie_ppm: ppm,
        }
    }

    /// Derives a per-store schedule from this one: same rates, seed
    /// mixed with `name` so every store draws an independent — but
    /// registration-order- and shard-count-invariant — stream.
    pub fn for_store(&self, name: &str) -> FaultConfig {
        // FNV-1a over the name: stable across runs, independent of
        // registration order and shard count.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        FaultConfig {
            seed: self.seed ^ h,
            ..*self
        }
    }
}

/// One explicitly injected fault, consumed by upcoming operations in
/// queue order (ahead of any probabilistic roll).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The next `ops` appends **and** syncs fail with a transient
    /// `EIO`, then the backend recovers on its own.
    TransientIo {
        /// How many operations fail before self-recovery.
        ops: u32,
    },
    /// The next `ops` appends fail with `ENOSPC` (syncs still work —
    /// a full disk can flush what it already accepted).
    Enospc {
        /// How many appends fail before space "frees up".
        ops: u32,
    },
    /// The next append acks but persists at most `keep_bytes` of the
    /// encoded record — a torn frame the replay scan will drop.
    TornWrite {
        /// Byte prefix of the encoded record that survives.
        keep_bytes: usize,
    },
    /// The next `ops` syncs report success without flushing.
    FsyncLie {
        /// How many syncs lie before honesty resumes.
        ops: u32,
    },
}

/// Totals of injected faults, by class: the fault plane's only record
/// of them (a runtime's registry shows them as `fault.injected.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient/persistent `EIO` injections.
    pub io: u64,
    /// `ENOSPC` injections.
    pub enospc: u64,
    /// Torn writes injected.
    pub torn: u64,
    /// Bytes of torn frames that physically landed (the prefix before
    /// the tear offset) — what a CRC scan would read and discard.
    pub torn_bytes_kept: u64,
    /// Lying fsyncs injected.
    pub fsync_lies: u64,
}

/// Mutable fault state shared between the backend (which consults it
/// on every operation) and the test or runtime holding the handle.
struct FaultState {
    rng: StdRng,
    config: FaultConfig,
    queue: VecDeque<Fault>,
    persistent: bool,
    counts: FaultCounts,
}

/// What [`FaultState`] decided for one append.
#[derive(Clone, Copy)]
enum AppendOutcome {
    Pass,
    Io,
    Enospc,
    Torn { keep_bytes: usize },
}

/// What [`FaultState`] decided for one sync.
#[derive(Clone, Copy)]
enum SyncOutcome {
    Pass,
    Io,
    Lie,
}

impl FaultState {
    /// Pops the front queue entry if it applies to an append,
    /// decrementing multi-op faults in place; a tear keeps at most the
    /// record's `record_bytes`.
    fn queued_append(&mut self, record_bytes: usize) -> Option<AppendOutcome> {
        match self.queue.front_mut() {
            Some(Fault::TransientIo { ops }) => {
                *ops -= 1;
                if *ops == 0 {
                    self.queue.pop_front();
                }
                Some(AppendOutcome::Io)
            }
            Some(Fault::Enospc { ops }) => {
                *ops -= 1;
                if *ops == 0 {
                    self.queue.pop_front();
                }
                Some(AppendOutcome::Enospc)
            }
            Some(Fault::TornWrite { keep_bytes }) => {
                let keep = (*keep_bytes).min(record_bytes);
                self.queue.pop_front();
                Some(AppendOutcome::Torn { keep_bytes: keep })
            }
            // An FsyncLie at the head waits for a sync; appends pass.
            Some(Fault::FsyncLie { .. }) | None => None,
        }
    }

    /// Pops the front queue entry if it applies to a sync.
    fn queued_sync(&mut self) -> Option<SyncOutcome> {
        match self.queue.front_mut() {
            Some(Fault::TransientIo { ops }) => {
                *ops -= 1;
                if *ops == 0 {
                    self.queue.pop_front();
                }
                Some(SyncOutcome::Io)
            }
            Some(Fault::FsyncLie { ops }) => {
                *ops -= 1;
                if *ops == 0 {
                    self.queue.pop_front();
                }
                Some(SyncOutcome::Lie)
            }
            Some(Fault::Enospc { .. }) | Some(Fault::TornWrite { .. }) | None => None,
        }
    }

    /// Decides one append — a persistent fault, else the queue, else a
    /// seeded roll — and counts what it injected.
    fn decide_append(&mut self, record_bytes: usize) -> AppendOutcome {
        let out = if self.persistent {
            AppendOutcome::Io
        } else {
            self.queued_append(record_bytes)
                .unwrap_or_else(|| self.rolled_append(record_bytes))
        };
        match out {
            AppendOutcome::Io => self.counts.io += 1,
            AppendOutcome::Enospc => self.counts.enospc += 1,
            AppendOutcome::Torn { keep_bytes } => {
                self.counts.torn += 1;
                self.counts.torn_bytes_kept += keep_bytes as u64;
            }
            AppendOutcome::Pass => {}
        }
        out
    }

    fn rolled_append(&mut self, record_bytes: usize) -> AppendOutcome {
        let c = self.config;
        let total = c.append_io_ppm + c.enospc_ppm + c.torn_ppm;
        if total == 0 {
            return AppendOutcome::Pass;
        }
        // One draw per append keeps the stream position a pure
        // function of the store's operation count.
        let roll: u32 = self.rng.gen_range(0..1_000_000u32);
        if roll < c.append_io_ppm {
            AppendOutcome::Io
        } else if roll < c.append_io_ppm + c.enospc_ppm {
            AppendOutcome::Enospc
        } else if roll < total {
            // A second draw picks the tear offset — only on the rare
            // torn path, so it cannot skew the per-op stream.
            let keep_bytes = self.rng.gen_range(0..record_bytes.max(1));
            AppendOutcome::Torn { keep_bytes }
        } else {
            AppendOutcome::Pass
        }
    }

    /// Decides one sync, like [`FaultState::decide_append`].
    fn decide_sync(&mut self) -> SyncOutcome {
        let out = if self.persistent {
            SyncOutcome::Io
        } else {
            self.queued_sync().unwrap_or_else(|| self.rolled_sync())
        };
        match out {
            SyncOutcome::Io => self.counts.io += 1,
            SyncOutcome::Lie => self.counts.fsync_lies += 1,
            SyncOutcome::Pass => {}
        }
        out
    }

    fn rolled_sync(&mut self) -> SyncOutcome {
        let c = self.config;
        let total = c.sync_io_ppm + c.fsync_lie_ppm;
        if total == 0 {
            return SyncOutcome::Pass;
        }
        let roll: u32 = self.rng.gen_range(0..1_000_000u32);
        if roll < c.sync_io_ppm {
            SyncOutcome::Io
        } else if roll < total {
            SyncOutcome::Lie
        } else {
            SyncOutcome::Pass
        }
    }
}

/// Cloneable control handle for one store's fault schedule. Tests and
/// the runtime hold a clone while the [`FaultingBackend`] (owned by
/// the store) consults the shared state on every operation.
#[derive(Clone)]
pub struct FaultHandle(Arc<Mutex<FaultState>>);

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.0.lock().expect("fault state lock");
        f.debug_struct("FaultHandle")
            .field("persistent", &st.persistent)
            .field("queued", &st.queue.len())
            .field("counts", &st.counts)
            .finish()
    }
}

impl FaultHandle {
    /// A handle rolling faults on `config`'s seeded schedule.
    pub fn seeded(config: FaultConfig) -> FaultHandle {
        FaultHandle(Arc::new(Mutex::new(FaultState {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            queue: VecDeque::new(),
            persistent: false,
            counts: FaultCounts::default(),
        })))
    }

    /// A handle that injects nothing until told to
    /// ([`inject`](FaultHandle::inject) /
    /// [`fail_persistently`](FaultHandle::fail_persistently)).
    pub fn quiet() -> FaultHandle {
        FaultHandle::seeded(FaultConfig::default())
    }

    /// Queues one explicit fault for upcoming operations.
    pub fn inject(&self, fault: Fault) {
        self.0
            .lock()
            .expect("fault state lock")
            .queue
            .push_back(fault);
    }

    /// Every subsequent append and sync fails with `EIO` until
    /// [`heal`](FaultHandle::heal) — the media-death mode that drives
    /// a store into quarantine.
    pub fn fail_persistently(&self) {
        self.0.lock().expect("fault state lock").persistent = true;
    }

    /// Whether a persistent fault is active.
    pub fn is_persistent(&self) -> bool {
        self.0.lock().expect("fault state lock").persistent
    }

    /// Clears the persistent fault and any queued injections (the
    /// seeded schedule keeps rolling — heal the medium, not the
    /// weather).
    pub fn heal(&self) {
        let mut st = self.0.lock().expect("fault state lock");
        st.persistent = false;
        st.queue.clear();
    }

    /// Totals of faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.0.lock().expect("fault state lock").counts
    }

    fn decide_append(&self, record_bytes: usize) -> AppendOutcome {
        self.0
            .lock()
            .expect("fault state lock")
            .decide_append(record_bytes)
    }

    fn decide_sync(&self) -> SyncOutcome {
        self.0.lock().expect("fault state lock").decide_sync()
    }
}

/// A [`StorageBackend`] wrapper injecting the faults its
/// [`FaultHandle`] schedules, with a simulated page cache so fsync
/// lies and crashes have honest durability semantics.
pub struct FaultingBackend<B: StorageBackend> {
    inner: B,
    handle: FaultHandle,
    /// Appends acked but not yet flushed to `inner` — the page cache.
    buffered: Vec<LogRecord>,
    /// Records destroyed by torn writes or a simulated crash; replay
    /// reports their absence as a truncated tail.
    lost: u64,
}

impl<B: StorageBackend> FaultingBackend<B> {
    /// Wraps `inner`, consulting `handle` on every operation.
    pub fn new(inner: B, handle: FaultHandle) -> FaultingBackend<B> {
        FaultingBackend {
            inner,
            handle,
            buffered: Vec::new(),
            lost: 0,
        }
    }

    /// A clone of the control handle.
    pub fn handle(&self) -> FaultHandle {
        self.handle.clone()
    }

    /// Drops the simulated page cache, as a crash would: every record
    /// acked since the last honest sync vanishes. The inner backend is
    /// left holding exactly the durable prefix; reopen it (or keep
    /// using this wrapper) to observe what survived.
    pub fn simulate_crash(&mut self) {
        self.lost += self.buffered.len() as u64;
        self.buffered.clear();
    }

    /// Records acked but still only in the simulated page cache.
    pub fn unflushed(&self) -> usize {
        self.buffered.len()
    }

    /// Unwraps the inner backend (dropping any unflushed buffer — the
    /// caller is taking the durable medium, not the page cache).
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Flushes the simulated page cache into the inner backend without
    /// rolling fault decisions — maintenance paths (rotate,
    /// checkpoint) must see everything the store believes durable.
    fn flush_buffered(&mut self) -> Result<(), StorageError> {
        for record in self.buffered.drain(..) {
            self.inner.append(&record)?;
        }
        Ok(())
    }

    fn injected_io(&self, op: &str) -> StorageError {
        StorageError::Io {
            context: format!("fault({})", self.inner.describe()),
            message: format!("injected I/O error during {op}"),
        }
    }
}

impl<B: StorageBackend> StorageBackend for FaultingBackend<B> {
    fn append(&mut self, record: &LogRecord) -> Result<(), StorageError> {
        let bytes = super::encode_record(record);
        match self.handle.decide_append(bytes.len()) {
            AppendOutcome::Pass => {
                self.buffered.push(record.clone());
                Ok(())
            }
            AppendOutcome::Io => Err(self.injected_io("append")),
            AppendOutcome::Enospc => Err(StorageError::Io {
                context: format!("fault({})", self.inner.describe()),
                message: "injected ENOSPC: no space left on device".into(),
            }),
            AppendOutcome::Torn { .. } => {
                // The record is acked but its frame is torn: nothing
                // durable survives the CRC scan, so from the replay
                // anchor's point of view the record never happened.
                self.lost += 1;
                Ok(())
            }
        }
    }

    fn replay(&mut self) -> Result<ReplayLog, StorageError> {
        let mut log = self.inner.replay()?;
        if self.lost > 0 {
            log.truncated_tail = true;
        }
        Ok(log)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        match self.handle.decide_sync() {
            SyncOutcome::Io => Err(self.injected_io("sync")),
            // The lie: report success, keep the page cache. A later
            // honest sync can still persist it; a crash loses it.
            SyncOutcome::Lie => Ok(()),
            SyncOutcome::Pass => {
                self.flush_buffered()?;
                self.inner.sync()
            }
        }
    }

    fn describe(&self) -> String {
        format!("faulting({})", self.inner.describe())
    }

    fn footprint(&self) -> Footprint {
        // Buffered records are not on the medium yet, so the inner
        // footprint is the honest answer.
        self.inner.footprint()
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        if self.handle.is_persistent() {
            return Err(self.injected_io("rotate"));
        }
        self.flush_buffered()?;
        self.inner.rotate()
    }

    fn install_checkpoint(
        &mut self,
        checkpoint: &LogRecord,
        audit_suffix: &[AuditEntry],
        prune: bool,
    ) -> Result<bool, StorageError> {
        if self.handle.is_persistent() {
            return Err(self.injected_io("checkpoint"));
        }
        self.flush_buffered()?;
        self.inner
            .install_checkpoint(checkpoint, audit_suffix, prune)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::memory::MemoryBackend;

    fn tick(n: u64) -> LogRecord {
        LogRecord::Tick(n)
    }

    #[test]
    fn quiet_handle_is_transparent() {
        let mut b = FaultingBackend::new(MemoryBackend::new(), FaultHandle::quiet());
        b.append(&tick(1)).unwrap();
        b.append(&tick(2)).unwrap();
        assert_eq!(b.unflushed(), 2, "appends buffer until sync");
        b.sync().unwrap();
        assert_eq!(b.unflushed(), 0);
        assert_eq!(b.into_inner().appended(), 2);
    }

    #[test]
    fn transient_io_recovers_on_its_own() {
        let h = FaultHandle::quiet();
        let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
        h.inject(Fault::TransientIo { ops: 2 });
        assert!(b.append(&tick(1)).is_err());
        assert!(b.sync().is_err());
        b.append(&tick(2)).unwrap();
        b.sync().unwrap();
        assert_eq!(h.counts().io, 2);
    }

    #[test]
    fn persistent_fault_fails_until_heal() {
        let h = FaultHandle::quiet();
        let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
        h.fail_persistently();
        for _ in 0..3 {
            assert!(b.append(&tick(1)).is_err());
            assert!(b.sync().is_err());
        }
        assert!(b.rotate().is_err());
        h.heal();
        b.append(&tick(2)).unwrap();
        b.sync().unwrap();
        assert_eq!(b.into_inner().appended(), 1, "only the post-heal append");
    }

    #[test]
    fn enospc_hits_appends_not_syncs() {
        let h = FaultHandle::quiet();
        let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
        b.append(&tick(1)).unwrap();
        h.inject(Fault::Enospc { ops: 1 });
        // The full disk still flushes what it already accepted.
        b.sync().unwrap();
        let err = b.append(&tick(2)).unwrap_err();
        match err {
            StorageError::Io { message, .. } => assert!(message.contains("ENOSPC")),
            other => panic!("expected injected ENOSPC, got {other:?}"),
        }
        b.append(&tick(3)).unwrap();
        assert_eq!(h.counts().enospc, 1);
    }

    #[test]
    fn fsync_lie_loses_records_at_crash_only() {
        let h = FaultHandle::quiet();
        let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
        b.append(&tick(1)).unwrap();
        h.inject(Fault::FsyncLie { ops: 1 });
        b.sync().unwrap();
        assert_eq!(b.unflushed(), 1, "the lie flushed nothing");
        // No crash yet: a later honest sync persists the record.
        b.sync().unwrap();
        assert_eq!(b.unflushed(), 0);
        // Lie again, then crash: the record vanishes.
        b.append(&tick(2)).unwrap();
        h.inject(Fault::FsyncLie { ops: 1 });
        b.sync().unwrap();
        b.simulate_crash();
        assert!(b.replay().unwrap().truncated_tail, "crash loss is reported");
        assert_eq!(b.into_inner().appended(), 1);
        assert_eq!(h.counts().fsync_lies, 2);
    }

    #[test]
    fn torn_write_acks_but_never_persists() {
        let h = FaultHandle::quiet();
        let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
        h.inject(Fault::TornWrite { keep_bytes: 3 });
        b.append(&tick(1)).unwrap();
        b.append(&tick(2)).unwrap();
        b.sync().unwrap();
        assert_eq!(h.counts().torn, 1);
        assert_eq!(h.counts().torn_bytes_kept, 3, "tear offset is recorded");
        let log = b.replay().unwrap();
        assert!(log.truncated_tail, "torn frame reads as a truncated tail");
        assert_eq!(b.into_inner().appended(), 1, "only the intact record");
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed: u64| {
            let h = FaultHandle::seeded(FaultConfig::uniform(seed, 200_000));
            let mut b = FaultingBackend::new(MemoryBackend::new(), h.clone());
            let mut outcomes = Vec::new();
            for i in 0..200 {
                outcomes.push(b.append(&tick(i)).is_ok());
                outcomes.push(b.sync().is_ok());
            }
            (outcomes, h.counts())
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_eq!(ca, cb);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different sequence");
        let total = ca.io + ca.enospc + ca.torn + ca.fsync_lies;
        assert!(total > 0, "a 20% uniform schedule must fire in 400 ops");
    }

    #[test]
    fn per_store_configs_diverge_but_reproduce() {
        let base = FaultConfig::uniform(42, 1000);
        assert_eq!(base.for_store("alice"), base.for_store("alice"));
        assert_ne!(base.for_store("alice").seed, base.for_store("bob").seed);
        assert_eq!(base.for_store("alice").torn_ppm, base.torn_ppm);
    }
}
