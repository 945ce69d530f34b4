//! The segmented log-structured file backend: a set of framed-record
//! segments governed by a CRC-framed `MANIFEST`, with size-triggered
//! rotation, checkpoint-bounded replay, and live-state compaction.
//!
//! ## On-disk layout
//!
//! A store opened at `<name>.certlog` begins life exactly as in PR 2: a
//! single append-only segment at that path. The first rotation (or
//! checkpoint) migrates it transparently into a segment directory:
//!
//! ```text
//! <name>.certlog          single-segment ("file") mode, pre-rotation
//! <name>/                 segment-set ("dir") mode
//!   MANIFEST              one CRC-framed record naming the live
//!                         segment set, the replay anchor, and the
//!                         valid audit-segment prefix
//!   seg-00000001.certlog  sealed and active record segments
//!   audit.certlog         lifecycle entries folded out of compacted
//!                         history (framed `REC_AUDIT` records)
//! ```
//!
//! ## Recovery semantics
//!
//! Replay starts at the manifest's checkpoint segment when one is
//! recorded (the checkpoint record it begins with resets the store, so
//! earlier segments never need reading) and scans forward segment by
//! segment. Within a segment the PR-2 rules hold: the first truncated
//! or corrupt frame ends the valid prefix (the torn tail is physically
//! truncated, and any later segments — unreachable history — are
//! dropped from the manifest), while an *intact* frame this binary
//! cannot decode is version skew and refuses the open.
//!
//! ## Crash contract
//!
//! Rotation, migration and checkpoint installation all follow the same
//! discipline: new files are written and fsynced first, then the
//! manifest is swapped atomically (`MANIFEST.tmp` + rename + directory
//! fsync), and only then are superseded files deleted. Old segments win
//! until the manifest swap is durable; segment files the manifest does
//! not reference are garbage from a crashed install and are removed at
//! the next open.

use super::{
    encode_audit_entry, encode_record, scan_records, Footprint, LogRecord, ReplayLog,
    StorageBackend, StorageError,
};
use crate::audit::AuditEntry;
use lbtrust_net::wire::{frame_meta_file, read_frame, read_meta_file, META_MANIFEST};
use lbtrust_net::MAX_FRAME_BODY;
use lbtrust_obs::{Counter, Histogram, Registry};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default rotation budget: the active segment is sealed once it
/// exceeds this many bytes. Small stores (and every pre-existing test
/// fixture) never rotate and stay a single file.
pub const DEFAULT_ROTATE_BYTES: u64 = 4 * 1024 * 1024;

/// The manifest one segment directory carries: which segments are live,
/// where replay is anchored, and how much of the audit segment is
/// valid. Swapped atomically as a whole — a half-written manifest is
/// rejected by its CRC frame and the previous generation wins.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Manifest {
    /// Next segment number to allocate.
    next: u64,
    /// Live segments in replay order (the last one is active).
    segments: Vec<u64>,
    /// Segment whose first record is the latest checkpoint — the
    /// replay anchor. `None` until the first checkpoint.
    checkpoint: Option<u64>,
    /// Entries of `audit.certlog` covered by the last successful fold.
    audit_entries: u64,
    /// Bytes of `audit.certlog` covered by the last successful fold
    /// (the file is truncated back to this before a new fold appends,
    /// so a crashed fold can never duplicate entries).
    audit_bytes: u64,
}

impl Manifest {
    /// The active segment: the last one listed. Every manifest this
    /// backend governs lists one (`open_dir_mode` refuses one that does
    /// not, and nothing empties the list), so the error is a refusal,
    /// not a path a working store takes.
    fn active(&self, dir: &Path) -> Result<u64, StorageError> {
        self.segments
            .last()
            .copied()
            .ok_or_else(|| manifest_error(dir, "manifest lists no segments"))
    }

    /// Why this manifest cannot govern a segment directory, beyond
    /// listing no segment: a segment listed twice, one not below `next`
    /// (a rotation creates segment `next` truncated, over whatever file
    /// has that number), or a checkpoint naming an unlisted segment.
    fn inconsistency(&self) -> Option<&'static str> {
        let mut listed = std::collections::HashSet::new();
        if !self.segments.iter().all(|&seg| listed.insert(seg)) {
            Some("manifest lists a segment twice")
        } else if self.segments.iter().any(|&seg| seg >= self.next) {
            Some("manifest's next segment is not above every listed one")
        } else if self.checkpoint.is_some_and(|c| !listed.contains(&c)) {
            Some("manifest's checkpoint names an unlisted segment")
        } else {
            None
        }
    }

    /// What `next` becomes once segment `next` is created: a manifest
    /// read from disk may have put it at the end of the numbers.
    fn after_next(&self, dir: &Path) -> Result<u64, StorageError> {
        let next = self.next.checked_add(1);
        next.ok_or_else(|| manifest_error(dir, "segment numbers ran out"))
    }

    fn encode(&self) -> Vec<u8> {
        let segments: Vec<String> = self.segments.iter().map(|s| s.to_string()).collect();
        let checkpoint = match self.checkpoint {
            Some(s) => s.to_string(),
            None => "none".to_string(),
        };
        let payload = format!(
            "lbtrust-manifest:v1\nnext:{}\nsegments:{}\ncheckpoint:{checkpoint}\naudit:{}:{}\n",
            self.next,
            segments.join(","),
            self.audit_entries,
            self.audit_bytes
        );
        frame_meta_file(META_MANIFEST, payload.as_bytes())
    }

    fn decode(bytes: &[u8]) -> Option<Manifest> {
        let payload = read_meta_file(META_MANIFEST, bytes)?;
        let text = std::str::from_utf8(payload).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "lbtrust-manifest:v1" {
            return None;
        }
        let next: u64 = lines.next()?.strip_prefix("next:")?.parse().ok()?;
        let segments_field = lines.next()?.strip_prefix("segments:")?;
        let segments = if segments_field.is_empty() {
            Vec::new()
        } else {
            segments_field
                .split(',')
                .map(|s| s.parse().ok())
                .collect::<Option<Vec<u64>>>()?
        };
        let checkpoint = match lines.next()?.strip_prefix("checkpoint:")? {
            "none" => None,
            s => Some(s.parse().ok()?),
        };
        let (entries, bytes) = lines.next()?.strip_prefix("audit:")?.split_once(':')?;
        let audit_entries = entries.parse().ok()?;
        let audit_bytes = bytes.parse().ok()?;
        if lines.next().is_some() {
            return None;
        }
        Some(Manifest {
            next,
            segments,
            checkpoint,
            audit_entries,
            audit_bytes,
        })
    }
}

/// Storage-lifecycle observability: how long rotations, checkpoints,
/// replays and fsyncs take, and how many bytes they move. Durations
/// are wall-clock timing histograms (excluded from deterministic
/// snapshots); byte figures are deterministic.
#[derive(Clone, Debug)]
pub struct LifecycleMetrics {
    replay_ns: Histogram,
    rotation_ns: Histogram,
    checkpoint_ns: Histogram,
    sync_ns: Histogram,
    replay_bytes: Histogram,
    checkpoint_bytes: Histogram,
    reclaimed_bytes: Counter,
}

impl LifecycleMetrics {
    /// Metrics registered under the `storelog.*` namespace.
    pub fn registered_in(registry: &Registry) -> LifecycleMetrics {
        LifecycleMetrics {
            replay_ns: registry.timing("storelog.replay_ns"),
            rotation_ns: registry.timing("storelog.rotation_ns"),
            checkpoint_ns: registry.timing("storelog.checkpoint_ns"),
            sync_ns: registry.timing("storelog.sync_ns"),
            replay_bytes: registry.histogram("storelog.replay_bytes"),
            checkpoint_bytes: registry.histogram("storelog.checkpoint_bytes"),
            reclaimed_bytes: registry.counter("storelog.reclaimed_bytes"),
        }
    }
}

/// A durable record log: one `<name>.certlog` segment until the first
/// rotation, a manifest-governed segment set afterwards.
pub struct LogBackend {
    /// The single-segment path (also what the segment directory name is
    /// derived from).
    path: PathBuf,
    /// The segment directory (`path` minus its extension).
    dir: PathBuf,
    /// `None` in file mode; the governing manifest in dir mode.
    manifest: Option<Manifest>,
    /// Buffered writer over the active segment.
    writer: BufWriter<File>,
    /// Bytes in the active segment (replayed + appended).
    active_bytes: u64,
    /// Sizes of sealed segments, `(segment, bytes)`.
    sealed: Vec<(u64, u64)>,
    /// Bytes in `audit.certlog`.
    audit_bytes: u64,
    /// Rotation budget for the active segment.
    rotate_bytes: u64,
    /// Lifecycle observability, off unless attached.
    metrics: Option<LifecycleMetrics>,
}

fn io_err(context: &str, e: std::io::Error) -> StorageError {
    StorageError::Io {
        context: context.to_string(),
        message: e.to_string(),
    }
}

/// A manifest that cannot govern `dir`, or none where one must.
fn manifest_error(dir: &Path, message: &str) -> StorageError {
    StorageError::Io {
        context: format!("manifest in {}", dir.display()),
        message: message.into(),
    }
}

fn seg_name(seg: u64) -> String {
    format!("seg-{seg:08}.certlog")
}

/// Parses `seg-NNNNNNNN.certlog` back into its number.
fn parse_seg_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".certlog")?
        .parse()
        .ok()
}

/// The segment directory a single-segment path migrates into.
fn segment_dir(path: &Path) -> PathBuf {
    if path.extension().is_some() {
        path.with_extension("")
    } else {
        let mut dir = path.as_os_str().to_os_string();
        dir.push(".segs");
        PathBuf::from(dir)
    }
}

/// Opens a file for appending (creating it if absent).
fn open_append(path: &Path) -> Result<File, StorageError> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| io_err(&format!("opening {}", path.display()), e))
}

/// Creates a fresh (truncated) segment file — used for newly allocated
/// segment numbers, which may collide with orphans of a crashed
/// install that must not survive as a prefix.
fn create_truncated(path: &Path) -> Result<File, StorageError> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err(&format!("creating {}", path.display()), e))
}

/// Fsyncs a directory so a rename into it is durable (the POSIX
/// crash-consistency step the manifest swap depends on).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(&format!("fsyncing directory {}", dir.display()), e))
}

impl LogBackend {
    /// Opens (creating if absent) the log rooted at `path` with the
    /// default rotation budget. An existing single-segment file from an
    /// earlier version is adopted as-is (it becomes segment 1 at the
    /// first rotation); an existing segment directory is opened through
    /// its manifest. Callers normally use [`crate::CertStore::open`],
    /// which replays first.
    pub fn open(path: impl AsRef<Path>) -> Result<LogBackend, StorageError> {
        LogBackend::open_with_budget(path, DEFAULT_ROTATE_BYTES)
    }

    /// Opens the log with an explicit rotation budget in bytes.
    pub fn open_with_budget(
        path: impl AsRef<Path>,
        rotate_bytes: u64,
    ) -> Result<LogBackend, StorageError> {
        let path = path.as_ref().to_path_buf();
        let dir = segment_dir(&path);
        let manifest_path = dir.join("MANIFEST");

        match std::fs::read(&manifest_path) {
            Ok(bytes) => {
                let manifest = Manifest::decode(&bytes).ok_or_else(|| StorageError::Io {
                    context: format!("decoding manifest {}", manifest_path.display()),
                    message: "corrupt or torn manifest".into(),
                })?;
                return LogBackend::open_dir_mode(path, dir, manifest, rotate_bytes);
            }
            // Only a genuinely *absent* manifest may take the recovery
            // paths below. A transient read failure (EACCES, EIO, fd
            // exhaustion) must propagate: falling through would
            // synthesize a checkpoint-less manifest over the segment
            // files and atomically replace the real one — permanently
            // discarding the replay anchor and the folded audit trail.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(io_err(
                    &format!("reading manifest {}", manifest_path.display()),
                    e,
                ))
            }
        }

        // No manifest. A directory holding segments is the footprint of
        // a crash between segment migration and the first manifest
        // write — recover by synthesizing a manifest over the segments
        // found, in numeric order.
        let mut found: Vec<u64> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| parse_seg_name(&e.file_name().to_string_lossy()))
                .collect(),
            Err(_) => Vec::new(),
        };
        found.sort_unstable();
        if let Some(&last) = found.last() {
            let manifest = Manifest {
                next: last + 1,
                segments: found,
                checkpoint: None,
                audit_entries: 0,
                audit_bytes: 0,
            };
            let mut backend = LogBackend::open_dir_mode(path, dir, manifest, rotate_bytes)?;
            backend.write_manifest()?;
            return Ok(backend);
        }

        // File mode: the PR-2 single segment (possibly absent).
        let file = open_append(&path)?;
        let active_bytes = file
            .metadata()
            .map_err(|e| io_err("reading segment metadata", e))?
            .len();
        Ok(LogBackend {
            path,
            dir,
            manifest: None,
            writer: BufWriter::new(file),
            active_bytes,
            sealed: Vec::new(),
            audit_bytes: 0,
            rotate_bytes,
            metrics: None,
        })
    }

    fn open_dir_mode(
        path: PathBuf,
        dir: PathBuf,
        manifest: Manifest,
        rotate_bytes: u64,
    ) -> Result<LogBackend, StorageError> {
        // Refuse a manifest that cannot govern this directory before
        // touching any file: it must list segments, each once and each
        // below `next`, a checkpoint among them, and every sealed one
        // must be present. (A listed-but-absent *active* segment is legal:
        // a crash can land between the manifest swap and its first byte.)
        let Some((&active, sealed_segs)) = manifest.segments.split_last() else {
            return Err(manifest_error(&dir, "manifest lists no segments"));
        };
        if let Some(why) = manifest.inconsistency() {
            return Err(manifest_error(&dir, why));
        }
        let mut sealed = Vec::new();
        for &seg in sealed_segs {
            let len = std::fs::metadata(dir.join(seg_name(seg)))
                .map_err(|e| io_err(&format!("reading sealed segment {seg}"), e))?
                .len();
            sealed.push((seg, len));
        }
        // Only now remove unreferenced segment files: orphans of a
        // crashed rotation or compaction whose manifest swap never landed.
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                if let Some(seg) = parse_seg_name(&entry.file_name().to_string_lossy()) {
                    if !manifest.segments.contains(&seg) {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        let file = open_append(&dir.join(seg_name(active)))?;
        let active_bytes = file
            .metadata()
            .map_err(|e| io_err("reading segment metadata", e))?
            .len();
        let audit_bytes = std::fs::metadata(dir.join("audit.certlog"))
            .map(|m| m.len())
            .unwrap_or(0);
        Ok(LogBackend {
            path,
            dir,
            manifest: Some(manifest),
            writer: BufWriter::new(file),
            active_bytes,
            sealed,
            audit_bytes,
            rotate_bytes,
            metrics: None,
        })
    }

    /// The single-segment path this log is rooted at (the active
    /// segment itself once the log has migrated to a segment set).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment directory (only populated after the first rotation
    /// or checkpoint).
    pub fn segment_dir(&self) -> &Path {
        &self.dir
    }

    /// Records lifecycle durations and byte volumes into `registry`'s
    /// `storelog.*` metrics. Attach *before* the replaying open so the
    /// replay itself is measured.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(LifecycleMetrics::registered_in(registry));
    }

    /// The governing manifest. Only dir mode has one, and every caller
    /// runs there (after `migrate_to_dir` at the latest), so the error
    /// is a refusal, not a path a working store takes.
    fn dir_manifest(&self) -> Result<&Manifest, StorageError> {
        (self.manifest.as_ref()).ok_or_else(|| manifest_error(&self.dir, "the log has no manifest"))
    }

    /// Durably writes the manifest: tmp file, fsync, atomic rename,
    /// directory fsync. Until the rename lands, the previous manifest
    /// generation governs — this is the "old segments win" point of the
    /// crash contract.
    fn write_manifest(&mut self) -> Result<(), StorageError> {
        let bytes = self.dir_manifest()?.encode();
        let tmp = self.dir.join("MANIFEST.tmp");
        let target = self.dir.join("MANIFEST");
        let mut f = create_truncated(&tmp)?;
        f.write_all(&bytes)
            .map_err(|e| io_err("writing manifest", e))?;
        f.sync_data().map_err(|e| io_err("fsyncing manifest", e))?;
        drop(f);
        std::fs::rename(&tmp, &target).map_err(|e| io_err("swapping manifest", e))?;
        sync_dir(&self.dir)
    }

    /// Migrates a single-segment file into a segment directory: the
    /// existing file is renamed (atomically) to segment 1 and a fresh
    /// active segment 2 is created. Called by the first rotation.
    fn migrate_to_dir(&mut self) -> Result<(), StorageError> {
        debug_assert!(self.manifest.is_none());
        self.writer
            .flush()
            .map_err(|e| io_err("flushing before migration", e))?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("sealing the legacy segment", e))?;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| io_err(&format!("creating {}", self.dir.display()), e))?;
        let seg1 = self.dir.join(seg_name(1));
        std::fs::rename(&self.path, &seg1)
            .map_err(|e| io_err("migrating the legacy segment", e))?;
        sync_dir(&self.dir)?;
        let seg2 = self.dir.join(seg_name(2));
        let file = create_truncated(&seg2)?;
        self.sealed.push((1, self.active_bytes));
        self.writer = BufWriter::new(file);
        self.active_bytes = 0;
        self.manifest = Some(Manifest {
            next: 3,
            segments: vec![1, 2],
            checkpoint: None,
            audit_entries: 0,
            audit_bytes: 0,
        });
        self.write_manifest()
    }

    /// Seals the active segment and opens a fresh one under a new
    /// number, recording both in the manifest.
    fn rotate_dir(&mut self) -> Result<(), StorageError> {
        self.writer
            .flush()
            .map_err(|e| io_err("flushing before rotation", e))?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("sealing the active segment", e))?;
        let dir = &self.dir;
        let manifest = (self.manifest.as_mut())
            .ok_or_else(|| manifest_error(dir, "the log has no manifest"))?;
        let sealed_seg = manifest.active(dir)?;
        let new_seg = manifest.next;
        let next = manifest.after_next(dir)?;
        let file = create_truncated(&self.dir.join(seg_name(new_seg)))?;
        manifest.next = next;
        manifest.segments.push(new_seg);
        self.sealed.push((sealed_seg, self.active_bytes));
        self.writer = BufWriter::new(file);
        self.active_bytes = 0;
        self.write_manifest()
    }

    /// Replays one segment's bytes into `out`, returning `(clean,
    /// valid_bytes_of_this_segment)` — `clean` is `false` when a torn
    /// tail ended the segment (so later segments are unreachable).
    fn replay_segment(
        &mut self,
        seg_path: &Path,
        is_active: bool,
        out: &mut ReplayLog,
    ) -> Result<(bool, u64), StorageError> {
        let buf = std::fs::read(seg_path)
            .map_err(|e| io_err(&format!("reading {}", seg_path.display()), e))?;
        let log = scan_records(&buf);
        if let Some(offset) = log.unsupported_at {
            // An intact frame this binary cannot decode: version skew,
            // not corruption. Truncating would destroy real history
            // (possibly revocations) — refuse to open instead.
            return Err(StorageError::UnsupportedRecord {
                context: seg_path.display().to_string(),
                offset,
            });
        }
        out.records.extend(log.records);
        out.valid_bytes += log.valid_bytes;
        if log.truncated_tail {
            // Drop the torn tail so future appends extend the valid
            // prefix instead of hiding behind garbage.
            if is_active {
                self.writer
                    .get_mut()
                    .set_len(log.valid_bytes)
                    .map_err(|e| io_err("truncating a torn tail", e))?;
            } else {
                OpenOptions::new()
                    .write(true)
                    .open(seg_path)
                    .and_then(|f| f.set_len(log.valid_bytes))
                    .map_err(|e| io_err("truncating a torn sealed segment", e))?;
            }
            out.truncated_tail = true;
            return Ok((false, log.valid_bytes));
        }
        Ok((true, log.valid_bytes))
    }

    /// Reads the valid audit-segment prefix per the manifest.
    fn replay_audit(&self, manifest: &Manifest) -> Vec<AuditEntry> {
        let Ok(buf) = std::fs::read(self.dir.join("audit.certlog")) else {
            return Vec::new();
        };
        let valid = &buf[..(manifest.audit_bytes as usize).min(buf.len())];
        let mut entries = Vec::new();
        let mut offset = 0usize;
        while entries.len() < manifest.audit_entries as usize {
            let Some((kind, payload, next)) = read_frame(valid, offset) else {
                break;
            };
            let Some(entry) = super::decode_audit_entry(kind, payload) else {
                break;
            };
            entries.push(entry);
            offset = next;
        }
        entries
    }
}

impl StorageBackend for LogBackend {
    fn append(&mut self, record: &LogRecord) -> Result<(), StorageError> {
        let bytes = encode_record(record);
        self.writer
            .write_all(&bytes)
            .map_err(|e| io_err("appending a record", e))?;
        self.active_bytes += bytes.len() as u64;
        if self.active_bytes >= self.rotate_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn replay(&mut self) -> Result<ReplayLog, StorageError> {
        let started = Instant::now();
        self.writer
            .flush()
            .map_err(|e| io_err("flushing before replay", e))?;
        let mut out = ReplayLog::default();
        match self.manifest.clone() {
            None => {
                let path = self.path.clone();
                let (_, seg_bytes) = self.replay_segment(&path, true, &mut out)?;
                self.active_bytes = seg_bytes;
            }
            Some(manifest) => {
                // Anchor at the checkpoint segment when one is
                // recorded: everything before it is superseded state.
                let start = manifest
                    .checkpoint
                    .and_then(|c| manifest.segments.iter().position(|&s| s == c))
                    .unwrap_or(0);
                out.from_checkpoint = manifest.checkpoint.is_some();
                let active = manifest.active(&self.dir)?;
                for (i, &seg) in manifest.segments[start..].iter().enumerate() {
                    let seg_path = self.dir.join(seg_name(seg));
                    let (clean, seg_bytes) =
                        self.replay_segment(&seg_path, seg == active, &mut out)?;
                    if seg == active {
                        self.active_bytes = seg_bytes;
                    }
                    if !clean {
                        // Records past a torn segment are unreachable:
                        // the torn segment becomes the active tail and
                        // later segments are dropped — mirroring the
                        // single-file behaviour of truncating at the
                        // first bad frame.
                        let pos = start + i;
                        let keep: Vec<u64> = manifest.segments[..=pos].to_vec();
                        let dropped: Vec<u64> = manifest.segments[pos + 1..].to_vec();
                        self.sealed.retain(|(s, _)| keep.contains(s) && *s != seg);
                        self.manifest = Some(Manifest {
                            segments: keep,
                            ..manifest.clone()
                        });
                        self.active_bytes = seg_bytes;
                        self.writer = BufWriter::new(open_append(&seg_path)?);
                        self.write_manifest()?;
                        for d in dropped {
                            let _ = std::fs::remove_file(self.dir.join(seg_name(d)));
                        }
                        break;
                    }
                }
                out.audit = self.replay_audit(&manifest);
            }
        }
        if let Some(m) = &self.metrics {
            m.replay_ns.record_duration(started.elapsed());
            m.replay_bytes.record(out.valid_bytes);
        }
        Ok(out)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let started = Instant::now();
        self.writer
            .flush()
            .map_err(|e| io_err("flushing appends", e))?;
        // A failed fsync means the data may never reach the platter —
        // for a store whose whole point is that revocations survive a
        // restart, that must surface, not be swallowed.
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("fsyncing the segment", e))?;
        if let Some(m) = &self.metrics {
            m.sync_ns.record_duration(started.elapsed());
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match &self.manifest {
            None => self.path.display().to_string(),
            Some(m) => format!("{} ({} segments)", self.dir.display(), m.segments.len()),
        }
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            segments: 1 + self.sealed.len() as u64,
            bytes: self.active_bytes + self.sealed.iter().map(|(_, b)| b).sum::<u64>(),
            audit_bytes: self.audit_bytes,
        }
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        let started = Instant::now();
        match self.manifest {
            None => self.migrate_to_dir(),
            Some(_) => self.rotate_dir(),
        }?;
        if let Some(m) = &self.metrics {
            m.rotation_ns.record_duration(started.elapsed());
        }
        Ok(())
    }

    fn install_checkpoint(
        &mut self,
        checkpoint: &LogRecord,
        audit_suffix: &[AuditEntry],
        prune: bool,
    ) -> Result<bool, StorageError> {
        let started = Instant::now();
        let bytes_before = self.footprint().bytes;
        let record = encode_record(checkpoint);
        if record.len() > MAX_FRAME_BODY {
            return Err(StorageError::CheckpointTooLarge {
                context: self.describe(),
                bytes: record.len() as u64,
                limit: MAX_FRAME_BODY as u64,
            });
        }
        if self.manifest.is_none() {
            self.migrate_to_dir()?;
        }
        // Seal the current active segment.
        self.writer
            .flush()
            .map_err(|e| io_err("flushing before checkpoint", e))?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("sealing before checkpoint", e))?;

        // 1. Write the checkpoint into a fresh segment and fsync it.
        let manifest = self.dir_manifest()?;
        let old_segments = manifest.segments.clone();
        let old_active = manifest.active(&self.dir)?;
        let new_seg = manifest.next;
        let next = manifest.after_next(&self.dir)?;
        let seg_path = self.dir.join(seg_name(new_seg));
        let mut file = create_truncated(&seg_path)?;
        file.write_all(&record)
            .map_err(|e| io_err("writing the checkpoint record", e))?;
        file.sync_data()
            .map_err(|e| io_err("fsyncing the checkpoint segment", e))?;

        // 2. Fold the audit suffix: truncate back to the last durable
        // fold boundary (discarding leftovers of any crashed fold),
        // append, fsync.
        let audit_path = self.dir.join("audit.certlog");
        let audit_file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&audit_path)
            .map_err(|e| io_err("opening the audit segment", e))?;
        audit_file
            .set_len(manifest.audit_bytes)
            .map_err(|e| io_err("truncating the audit segment", e))?;
        let mut audit_writer = BufWriter::new(audit_file);
        let mut appended = 0u64;
        {
            use std::io::Seek;
            audit_writer
                .seek(std::io::SeekFrom::End(0))
                .map_err(|e| io_err("seeking the audit segment", e))?;
        }
        for entry in audit_suffix {
            let bytes = encode_audit_entry(entry);
            audit_writer
                .write_all(&bytes)
                .map_err(|e| io_err("appending audit entries", e))?;
            appended += bytes.len() as u64;
        }
        audit_writer
            .flush()
            .map_err(|e| io_err("flushing audit entries", e))?;
        audit_writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("fsyncing the audit segment", e))?;
        let new_audit_bytes = manifest.audit_bytes + appended;
        let new_audit_entries = manifest.audit_entries + audit_suffix.len() as u64;

        // 3. Swap the manifest: the checkpoint segment becomes the
        // replay anchor and the new active segment. Until this rename
        // is durable, the old history governs.
        let segments = if prune {
            vec![new_seg]
        } else {
            let mut s = old_segments.clone();
            s.push(new_seg);
            s
        };
        self.manifest = Some(Manifest {
            next,
            segments,
            checkpoint: Some(new_seg),
            audit_entries: new_audit_entries,
            audit_bytes: new_audit_bytes,
        });
        self.write_manifest()?;

        // 4. Adopt the checkpoint segment as active; prune superseded
        // segments (now garbage — best-effort deletion, the manifest no
        // longer references them).
        self.writer = BufWriter::new(open_append(&seg_path)?);
        self.sealed.push((old_active, self.active_bytes));
        self.active_bytes = record.len() as u64;
        self.audit_bytes = new_audit_bytes;
        if prune {
            for seg in old_segments {
                let _ = std::fs::remove_file(self.dir.join(seg_name(seg)));
            }
            self.sealed.clear();
        }
        if let Some(m) = &self.metrics {
            m.checkpoint_ns.record_duration(started.elapsed());
            m.checkpoint_bytes.record(record.len() as u64);
            m.reclaimed_bytes
                .add(bytes_before.saturating_sub(self.footprint().bytes));
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CheckpointCert, CheckpointState};
    use super::*;
    use crate::audit::AuditAction;
    use lbtrust_datalog::Symbol;
    use std::sync::Arc;

    fn tmp_path(tag: &str) -> PathBuf {
        let base = std::env::var_os("CARGO_TARGET_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!(
            "lbtrust-logbackend-{}-{tag}.certlog",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(segment_dir(path));
    }

    fn cert(rule_src: &str) -> crate::cert::LinkedCert {
        crate::cert::LinkedCert {
            issuer: Symbol::intern("alice"),
            rule: Arc::new(lbtrust_datalog::parse_rule(rule_src).unwrap()),
            links: vec![],
            ttl: None,
            signature: vec![1, 2, 3],
        }
    }

    #[test]
    fn append_close_reopen_replays() {
        let path = tmp_path("roundtrip");
        cleanup(&path);
        let records = vec![
            LogRecord::Tick(3),
            LogRecord::Revoke {
                issuer: Symbol::intern("alice"),
                target: crate::CertDigest::of(b"x"),
                signature: vec![9, 9],
            },
            LogRecord::Tick(4),
        ];
        {
            let mut b = LogBackend::open(&path).unwrap();
            for r in &records {
                b.append(r).unwrap();
            }
            b.sync().unwrap();
        }
        let mut b = LogBackend::open(&path).unwrap();
        let log = b.replay().unwrap();
        assert_eq!(log.records, records);
        assert!(!log.truncated_tail);
        // Appending after replay extends the same log.
        b.append(&LogRecord::Tick(5)).unwrap();
        b.sync().unwrap();
        let mut again = LogBackend::open(&path).unwrap();
        assert_eq!(again.replay().unwrap().records.len(), 4);
        cleanup(&path);
    }

    #[test]
    fn unsupported_record_refuses_to_open_and_preserves_bytes() {
        let path = tmp_path("skew");
        cleanup(&path);
        {
            let mut b = LogBackend::open(&path).unwrap();
            b.append(&LogRecord::Tick(1)).unwrap();
            b.sync().unwrap();
        }
        // A future binary appends a record kind we do not know.
        let mut bytes = std::fs::read(&path).unwrap();
        let skew_at = bytes.len() as u64;
        bytes.extend_from_slice(&lbtrust_net::frame_record(99, b"from-the-future"));
        std::fs::write(&path, &bytes).unwrap();

        let mut b = LogBackend::open(&path).unwrap();
        match b.replay() {
            Err(StorageError::UnsupportedRecord { offset, .. }) => assert_eq!(offset, skew_at),
            other => panic!("must refuse version-skewed log, got {other:?}"),
        }
        drop(b);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the skewed log must not be truncated or rewritten"
        );
        cleanup(&path);
    }

    #[test]
    fn append_before_replay_never_clobbers_history() {
        let path = tmp_path("appendfirst");
        cleanup(&path);
        {
            let mut b = LogBackend::open(&path).unwrap();
            b.append(&LogRecord::Tick(1)).unwrap();
            b.append(&LogRecord::Tick(2)).unwrap();
            b.sync().unwrap();
        }
        // Misuse: append without replaying first. Append mode must
        // still land the record at the end, not over record 1.
        {
            let mut b = LogBackend::open(&path).unwrap();
            b.append(&LogRecord::Tick(3)).unwrap();
            b.sync().unwrap();
        }
        let mut b = LogBackend::open(&path).unwrap();
        let log = b.replay().unwrap();
        assert_eq!(
            log.records,
            vec![LogRecord::Tick(1), LogRecord::Tick(2), LogRecord::Tick(3)]
        );
        assert!(!log.truncated_tail);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_replay() {
        let path = tmp_path("torn");
        cleanup(&path);
        {
            let mut b = LogBackend::open(&path).unwrap();
            b.append(&LogRecord::Tick(1)).unwrap();
            b.sync().unwrap();
        }
        let valid_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn write: half a frame of garbage at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x55, 0x00, 0x00]);
        std::fs::write(&path, &bytes).unwrap();

        let mut b = LogBackend::open(&path).unwrap();
        let log = b.replay().unwrap();
        assert_eq!(log.records, vec![LogRecord::Tick(1)]);
        assert!(log.truncated_tail);
        assert_eq!(log.valid_bytes, valid_len);
        // The tail was physically dropped and new appends land cleanly.
        b.append(&LogRecord::Tick(2)).unwrap();
        b.sync().unwrap();
        drop(b);
        let mut again = LogBackend::open(&path).unwrap();
        let log = again.replay().unwrap();
        assert_eq!(log.records, vec![LogRecord::Tick(1), LogRecord::Tick(2)]);
        assert!(!log.truncated_tail);
        cleanup(&path);
    }

    #[test]
    fn rotation_migrates_single_file_into_segment_set() {
        let path = tmp_path("rotate");
        cleanup(&path);
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        // Budget of three ticks: the fourth append rotates.
        let mut b = LogBackend::open_with_budget(&path, 3 * tick_len).unwrap();
        for t in 0..10u64 {
            b.append(&LogRecord::Tick(t)).unwrap();
        }
        b.sync().unwrap();
        assert!(!path.exists(), "legacy file migrated into the segment dir");
        let dir = segment_dir(&path);
        assert!(dir.join("MANIFEST").exists());
        let fp = b.footprint();
        assert!(fp.segments >= 3, "ten ticks at three per segment: {fp:?}");
        drop(b);

        // Reopen: every record survives, across segments, in order.
        let mut again = LogBackend::open_with_budget(&path, 3 * tick_len).unwrap();
        let log = again.replay().unwrap();
        assert_eq!(
            log.records,
            (0..10).map(LogRecord::Tick).collect::<Vec<_>>()
        );
        assert!(!log.from_checkpoint);
        // And the log keeps accepting appends.
        again.append(&LogRecord::Tick(10)).unwrap();
        again.sync().unwrap();
        drop(again);
        let mut third = LogBackend::open(&path).unwrap();
        assert_eq!(third.replay().unwrap().records.len(), 11);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_bounds_replay_and_prune_drops_segments() {
        let path = tmp_path("ckpt");
        cleanup(&path);
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        let mut b = LogBackend::open_with_budget(&path, 4 * tick_len).unwrap();
        for t in 0..20u64 {
            b.append(&LogRecord::Tick(t)).unwrap();
        }
        let before = b.footprint();
        let ckpt = LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: 190,
            active: vec![CheckpointCert {
                digest: cert("good(carol).").digest(),
                cert: cert("good(carol)."),
                imported_at: 3,
                expires_at: None,
            }],
            revoked: vec![(
                Symbol::intern("alice"),
                crate::CertDigest::of(b"gone"),
                vec![7; 4],
            )],
        }));
        let audit = vec![AuditEntry {
            digest: crate::CertDigest::of(b"gone"),
            principal: Symbol::intern("alice"),
            action: AuditAction::Revoked,
            at: 7,
            rule: None,
        }];
        assert!(b.install_checkpoint(&ckpt, &audit, true).unwrap());
        let after = b.footprint();
        assert_eq!(after.segments, 1, "prune keeps only the checkpoint segment");
        assert!(after.bytes < before.bytes);
        // Suffix records land after the checkpoint.
        b.append(&LogRecord::Tick(99)).unwrap();
        b.sync().unwrap();
        drop(b);

        let mut again = LogBackend::open(&path).unwrap();
        let log = again.replay().unwrap();
        assert!(log.from_checkpoint);
        assert_eq!(
            log.records.len(),
            2,
            "replay is checkpoint + suffix, independent of pruned history"
        );
        assert!(matches!(log.records[0], LogRecord::Checkpoint(_)));
        assert_eq!(log.records[1], LogRecord::Tick(99));
        assert_eq!(log.audit.len(), 1, "folded audit entries restored");
        assert_eq!(log.audit[0].action, AuditAction::Revoked);
        cleanup(&path);
    }

    #[test]
    fn crash_before_manifest_swap_keeps_old_segments_winning() {
        let path = tmp_path("crash");
        cleanup(&path);
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        let mut b = LogBackend::open_with_budget(&path, 4 * tick_len).unwrap();
        for t in 0..12u64 {
            b.append(&LogRecord::Tick(t)).unwrap();
        }
        b.sync().unwrap();
        let dir = segment_dir(&path);
        // Snapshot the durable state at the would-be crash point: the
        // manifest and every referenced segment as they are *before*
        // the compaction's manifest swap.
        let manifest_bytes = std::fs::read(dir.join("MANIFEST")).unwrap();
        let seg_snapshot: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_seg_name(&e.file_name().to_string_lossy()).is_some())
            .map(|e| (e.path(), std::fs::read(e.path()).unwrap()))
            .collect();

        let ckpt = LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: 66,
            active: vec![],
            revoked: vec![],
        }));
        assert!(b.install_checkpoint(&ckpt, &[], true).unwrap());
        drop(b);

        // "Crash" rollback: the rename never became durable, the old
        // segment files were never unlinked. The new checkpoint segment
        // survives as an orphan.
        std::fs::write(dir.join("MANIFEST"), &manifest_bytes).unwrap();
        for (seg_path, bytes) in &seg_snapshot {
            std::fs::write(seg_path, bytes).unwrap();
        }

        let mut again = LogBackend::open(&path).unwrap();
        let log = again.replay().unwrap();
        assert!(!log.from_checkpoint, "old manifest generation wins");
        assert_eq!(
            log.records,
            (0..12).map(LogRecord::Tick).collect::<Vec<_>>(),
            "pre-compaction history fully intact after the crash"
        );
        // The orphaned checkpoint segment was cleaned up, and the log
        // remains fully operational (a later compaction reallocates the
        // same segment number over a truncated file).
        let ckpt2 = LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: 12,
            active: vec![],
            revoked: vec![],
        }));
        assert!(again.install_checkpoint(&ckpt2, &[], true).unwrap());
        drop(again);
        let mut third = LogBackend::open(&path).unwrap();
        let log = third.replay().unwrap();
        assert!(log.from_checkpoint);
        assert_eq!(log.records.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn missing_manifest_recovers_from_segment_files() {
        let path = tmp_path("nomanifest");
        cleanup(&path);
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        let mut b = LogBackend::open_with_budget(&path, 3 * tick_len).unwrap();
        for t in 0..7u64 {
            b.append(&LogRecord::Tick(t)).unwrap();
        }
        b.sync().unwrap();
        drop(b);
        let dir = segment_dir(&path);
        // A crash between migration and the first manifest write.
        std::fs::remove_file(dir.join("MANIFEST")).unwrap();

        let mut again = LogBackend::open(&path).unwrap();
        let log = again.replay().unwrap();
        assert_eq!(
            log.records,
            (0..7).map(LogRecord::Tick).collect::<Vec<_>>(),
            "segments recovered in numeric order without a manifest"
        );
        assert!(dir.join("MANIFEST").exists(), "manifest re-synthesized");
        cleanup(&path);
    }

    /// Writes a rotated log (several segment files under a manifest),
    /// returning its segment directory.
    fn rotated_log(path: &Path) -> PathBuf {
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        let mut b = LogBackend::open_with_budget(path, 3 * tick_len).unwrap();
        for t in 0..10u64 {
            b.append(&LogRecord::Tick(t)).unwrap();
        }
        b.sync().unwrap();
        segment_dir(path)
    }

    /// The directory's files, name and size, sorted by name.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, e.metadata().unwrap().len())
            })
            .collect();
        files.sort();
        files
    }

    /// Overwrites the manifest with a CRC-valid one.
    fn write_manifest_file(dir: &Path, manifest: &Manifest) {
        std::fs::write(dir.join("MANIFEST"), manifest.encode()).unwrap();
    }

    #[test]
    fn manifest_listing_no_segments_is_refused_before_any_file_goes() {
        let path = tmp_path("emptymanifest");
        cleanup(&path);
        let dir = rotated_log(&path);
        write_manifest_file(
            &dir,
            &Manifest {
                next: 9,
                segments: vec![],
                checkpoint: None,
                audit_entries: 0,
                audit_bytes: 0,
            },
        );
        let before = listing(&dir);
        assert!(before.iter().filter(|(n, _)| n.starts_with("seg-")).count() >= 3);
        assert!(LogBackend::open(&path).is_err());
        assert_eq!(listing(&dir), before, "a refused open deletes nothing");
        cleanup(&path);
    }

    /// Rewrites the rotated log's manifest through `edit` and opens it:
    /// the open is refused, and every file keeps its name and size.
    fn refused_untouched(tag: &str, edit: impl FnOnce(&mut Manifest)) {
        let path = tmp_path(tag);
        cleanup(&path);
        let dir = rotated_log(&path);
        let mut manifest = Manifest::decode(&std::fs::read(dir.join("MANIFEST")).unwrap()).unwrap();
        assert_eq!(
            (manifest.next, &manifest.segments[..]),
            (5, &[1, 2, 3, 4][..])
        );
        edit(&mut manifest);
        write_manifest_file(&dir, &manifest);
        let before = listing(&dir);
        assert!(LogBackend::open(&path).is_err(), "{manifest:?} opened");
        assert_eq!(listing(&dir), before, "a refused open changes no file");
        cleanup(&path);
    }

    /// A stale `next` would make the next rotations re-create sealed
    /// segments truncated, losing the records in them.
    #[test]
    fn manifest_next_not_above_its_segments_is_refused_before_any_file_changes() {
        refused_untouched("stalenext", |m| m.next = 1);
        refused_untouched("nextatlast", |m| m.next = 4);
    }

    #[test]
    fn manifest_listing_a_segment_twice_is_refused_before_any_file_changes() {
        refused_untouched("twice", |m| m.segments.insert(2, 2));
    }

    #[test]
    fn manifest_checkpoint_naming_an_unlisted_segment_is_refused_before_any_file_changes() {
        refused_untouched("unlistedckpt", |m| m.checkpoint = Some(0));
    }

    /// A manifest may set `next` to the last segment number; the
    /// rotation that would need the one after it is an error, not an
    /// overflow, and so is a checkpoint.
    #[test]
    fn a_log_out_of_segment_numbers_refuses_to_rotate() {
        let path = tmp_path("lastnumber");
        cleanup(&path);
        let dir = rotated_log(&path);
        let mut manifest = Manifest::decode(&std::fs::read(dir.join("MANIFEST")).unwrap()).unwrap();
        manifest.next = u64::MAX;
        write_manifest_file(&dir, &manifest);
        let tick_len = encode_record(&LogRecord::Tick(0)).len() as u64;
        let mut b = LogBackend::open_with_budget(&path, tick_len).unwrap();
        assert_eq!(b.replay().unwrap().records.len(), 10);
        assert!(b.append(&LogRecord::Tick(10)).is_err());
        let ckpt = LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: 11,
            active: vec![],
            revoked: vec![],
        }));
        assert!(b.install_checkpoint(&ckpt, &[], true).is_err());
        drop(b);
        let mut again = LogBackend::open(&path).unwrap();
        assert_eq!(again.replay().unwrap().records.len(), 11);
        cleanup(&path);
    }

    #[test]
    fn manifest_missing_a_sealed_segment_is_refused_before_any_file_goes() {
        let path = tmp_path("sealedgone");
        cleanup(&path);
        let dir = rotated_log(&path);
        let manifest = Manifest::decode(&std::fs::read(dir.join("MANIFEST")).unwrap()).unwrap();
        // The manifest names a sealed segment the directory lacks (and
        // leaves its first segment unreferenced, an orphan the sweep
        // would otherwise remove).
        let mut segments = manifest.segments[1..].to_vec();
        segments.insert(0, 0);
        write_manifest_file(
            &dir,
            &Manifest {
                segments,
                ..manifest
            },
        );
        let before = listing(&dir);
        assert!(LogBackend::open(&path).is_err());
        assert_eq!(listing(&dir), before, "a refused open deletes nothing");
        cleanup(&path);
    }

    #[test]
    fn manifest_codec_roundtrip() {
        let m = Manifest {
            next: 9,
            segments: vec![3, 7, 8],
            checkpoint: Some(7),
            audit_entries: 41,
            audit_bytes: 5120,
        };
        assert_eq!(Manifest::decode(&m.encode()), Some(m.clone()));
        let none = Manifest {
            checkpoint: None,
            segments: vec![1],
            ..m
        };
        assert_eq!(Manifest::decode(&none.encode()), Some(none));
        // A torn or bit-flipped manifest is rejected whole.
        let mut bytes = Manifest {
            next: 2,
            segments: vec![1],
            checkpoint: None,
            audit_entries: 0,
            audit_bytes: 0,
        }
        .encode();
        assert!(Manifest::decode(&bytes[..bytes.len() - 1]).is_none());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(Manifest::decode(&bytes).is_none());
    }
}
