//! The query cache: an in-memory tier keyed on the query normal form,
//! plus an optional on-disk tier so repeated fig11/ablation runs skip
//! already-proven obligations.
//!
//! Only definitive verdicts are cached: `Proved` (with the fingerprint
//! of its checker-accepted proof certificate), and `Refuted` with its
//! portable counterexample. `Unknown`/`Interrupted` depend on budgets
//! and cancellation, so they are never cached. The disk tier stores
//! proved keys only, in a checksummed length-prefixed binary format
//! under `target/serval-cache/` (env-gated via `SERVAL_CACHE`).
//!
//! ## Crash and concurrency discipline (disk tier)
//!
//! Each cache instance appends to its **own segment file**
//! (`seg-<pid>-<n>.bin`), created invisibly as a temp file and
//! published with an atomic rename once its header and first record are
//! down. Loading reads every segment (plus the legacy `proved.bin`).
//! Consequences:
//!
//! - Two engine *processes* sharing `SERVAL_CACHE` never write the same
//!   file, so concurrent appends cannot interleave inside each other's
//!   records — the failure the old single shared append-log had, where
//!   one process's torn write silently discarded the other's good tail.
//! - A crash before the rename leaves only an invisible `tmp-` file,
//!   which loaders ignore (and sweep up when stale).
//! - A crash mid-append tears only the crashing process's own tail;
//!   checksum verification truncates that segment back to its last good
//!   record on the next load, and nobody else's records are touched.
//!
//! A warm hit is treated as a *claim*, not a fact: every disk record
//! carries a checksum verified on load — a truncated or bit-flipped
//! record (crash mid-append, disk rot) evicts that record and the tail
//! behind it, turning corruption into a re-solve instead of a panic or
//! a silently wrong verdict. When the engine runs certified
//! (`SERVAL_CERT`), records whose stored certificate fingerprint is 0
//! (written by an uncertified run) are dropped on load for the same
//! reason: a hit must never launder an unchecked verdict into a
//! certified one. Callers evict entries that fail their own semantic
//! revalidation (e.g. a cached countermodel that no longer evaluates
//! false on the goal) via [`Cache::evict`].
//!
//! ## Lock poisoning
//!
//! The memory tier is a plain map behind a mutex, and every access
//! recovers from poisoning (`PoisonError::into_inner`): a thread that
//! panics while holding the lock leaves the map in a state that is at
//! worst *missing* an insert — a cache miss, never a wrong verdict — so
//! propagating the poison would convert one failed query into a panic
//! on every later query on every worker, violating the pool's "a
//! poisoned query fails alone" contract.

use crate::solve::PortableModel;
use serval_check::sim;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A cached definitive verdict.
#[derive(Clone, Debug)]
pub enum CachedVerdict {
    /// The query was proved (assertions unsatisfiable).
    Proved {
        /// Fingerprint of the checker-accepted certificate backing the
        /// verdict (`serval_drat::hash_steps`); 0 = proved uncertified.
        cert: u64,
    },
    /// The query was refuted; the model is over canonical var indices,
    /// so it applies to any query with the same normal form.
    Refuted(PortableModel),
}

/// Segment header. Bumped whenever the key format ([`crate::form::Core`]
/// bytes) changes, so segments keyed in an older format are deleted on
/// load instead of sitting in memory where no key can reach them.
const MAGIC: &[u8; 8] = b"SRVCACH3";

/// Distinguishes segment files created by several cache instances in
/// one process (benchmarks install engines repeatedly).
static SEG_NONCE: AtomicU64 = AtomicU64::new(0);

/// This instance's private on-disk segment.
struct Segment {
    /// The published segment path (`seg-<pid>-<n>.bin`); `None` until
    /// the first append succeeds in renaming it into visibility.
    path: Option<PathBuf>,
    dir: PathBuf,
}

/// The two-tier cache.
pub struct Cache {
    mem: Mutex<HashMap<Vec<u8>, CachedVerdict>>,
    disk: Option<Mutex<Segment>>,
    /// Drop proved records without a certificate fingerprint on load.
    require_cert: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Cache {
    /// Creates a cache; with `Some(dir)`, proved keys persist to
    /// per-process segment files under `dir` and every segment (plus
    /// the legacy `proved.bin`) is preloaded here. With `require_cert`,
    /// disk records lacking a certificate fingerprint are ignored.
    pub fn new(disk_dir: Option<PathBuf>, require_cert: bool) -> Cache {
        let mut mem = HashMap::new();
        let disk = disk_dir.map(|dir| {
            // Later records win: a key re-proven (e.g. after an evict)
            // overwrites its earlier duplicate here.
            for (key, cert) in load_dir(&dir) {
                if require_cert && cert == 0 {
                    continue;
                }
                mem.insert(key, CachedVerdict::Proved { cert });
            }
            Mutex::new(Segment { path: None, dir })
        });
        Cache {
            mem: Mutex::new(mem),
            disk,
            require_cert,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The memory-tier lock, poison-recovered (see the module docs: the
    /// map is valid after any panic, at worst missing one insert).
    fn mem_lock(&self) -> MutexGuard<'_, HashMap<Vec<u8>, CachedVerdict>> {
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&self, key: &[u8]) -> Option<CachedVerdict> {
        let found = self.mem_lock().get(key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks `key` up *without* counting a hit or a miss. This is the
    /// secondary post-presolve probe: the counted lookup for the query
    /// already happened (and missed) under its raw pre-presolve key, but
    /// alpha-distinct raw queries can simplify to the same form, so the
    /// simplified key is still worth an uncounted peek before solving.
    pub fn probe(&self, key: &[u8]) -> Option<CachedVerdict> {
        self.mem_lock().get(key).cloned()
    }

    /// Removes `key` without touching the hit/miss counters — the evict
    /// partner of [`Cache::probe`], whose lookup was never counted.
    pub fn evict_uncounted(&self, key: &[u8]) {
        self.mem_lock().remove(key);
    }

    /// Removes `key` after its cached verdict failed revalidation,
    /// reclassifying the hit its lookup just counted as a miss (the
    /// caller falls through to a fresh solve). The disk tier is
    /// append-only; the re-solve's insert appends a superseding record,
    /// and load's later-record-wins rule retires the bad one.
    pub fn evict(&self, key: &[u8]) {
        if self.mem_lock().remove(key).is_some() {
            self.hits.fetch_sub(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a definitive verdict; proved keys also go to disk when
    /// the disk tier is enabled.
    pub fn insert(&self, key: Vec<u8>, verdict: CachedVerdict) {
        let cert = match &verdict {
            CachedVerdict::Proved { cert } => Some(*cert),
            CachedVerdict::Refuted(_) => None,
        };
        let fresh = self.mem_lock().insert(key.clone(), verdict).is_none();
        if let (true, Some(cert)) = (fresh, cert) {
            if let Some(seg) = &self.disk {
                let mut seg = seg.lock().unwrap_or_else(|e| e.into_inner());
                append_proved(&mut seg, &key, cert);
            }
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Whether proved entries must carry a certificate fingerprint.
    pub fn requires_cert(&self) -> bool {
        self.require_cert
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.mem_lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Poisons the memory-tier mutex the way a panicking lock holder
    /// would. Regression tests (and sim scenarios) use this to verify
    /// that one poisoned query cannot take the cache down with it.
    #[doc(hidden)]
    pub fn poison_mem_for_test(&self) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = self.mem.lock().unwrap();
                    panic!("poison the cache lock (test)");
                })
                .join();
        });
    }
}

/// FNV-1a-64 over a record's payload, the per-record integrity check.
fn checksum(len_le: [u8; 4], key: &[u8], cert_le: [u8; 8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&len_le);
    eat(key);
    eat(&cert_le);
    h
}

/// Loads every proved-key file under `dir`: the legacy shared
/// `proved.bin` first, then each `seg-*.bin` in filename order (a
/// deterministic merge; proved records never conflict on meaning, so
/// any order is sound — filename order makes reloads reproducible).
/// Stale `tmp-*` files (a crash before the publishing rename) are
/// deleted: their writer died before claiming them visible.
fn load_dir(dir: &Path) -> Vec<(Vec<u8>, u64)> {
    let mut entries = Vec::new();
    load_file(&dir.join("proved.bin"), &mut entries);
    let mut segs: Vec<PathBuf> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") && name.ends_with(".bin") {
                segs.push(e.path());
            } else if name.starts_with("tmp-") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    segs.sort();
    for seg in &segs {
        load_file(seg, &mut entries);
    }
    entries
}

/// Loads one proved-key file, appending `(key, cert_fingerprint)` pairs.
///
/// A wrong or missing header means the file is not ours (or hopelessly
/// damaged): it is deleted outright. A record that fails its framing or
/// checksum is corruption mid-file: the file is truncated back to the
/// last good record, evicting the bad tail, and loading stops — the
/// affected queries simply re-solve and re-append. Only this one file
/// is affected either way; other processes' segments stay intact.
fn load_file(path: &Path, entries: &mut Vec<(Vec<u8>, u64)>) {
    let Ok(bytes) = std::fs::read(path) else {
        return;
    };
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        if !bytes.is_empty() {
            let _ = std::fs::remove_file(path);
        }
        return;
    }
    let mut at = MAGIC.len();
    let mut last_good = at;
    loop {
        if at == bytes.len() {
            return; // clean end
        }
        let ok = (|| {
            let len_le: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
            let len = u32::from_le_bytes(len_le) as usize;
            let key = bytes.get(at + 4..at + 4 + len)?;
            let cert_le: [u8; 8] = bytes.get(at + 4 + len..at + 12 + len)?.try_into().ok()?;
            let sum_le: [u8; 8] = bytes.get(at + 12 + len..at + 20 + len)?.try_into().ok()?;
            if u64::from_le_bytes(sum_le) != checksum(len_le, key, cert_le) {
                return None;
            }
            entries.push((key.to_vec(), u64::from_le_bytes(cert_le)));
            Some(at + 20 + len)
        })();
        match ok {
            Some(next) => {
                at = next;
                last_good = next;
            }
            None => {
                // Corrupt record: evict it (and the unreachable tail).
                // Under buggify the truncation itself may "fail" (a
                // full disk, a read-only remount) — that must only
                // defer the cleanup to the next load, never change
                // what this load returns.
                if !sim::buggify("cache-load-skip-truncate") {
                    let _ = std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .and_then(|f| f.set_len(last_good as u64));
                }
                return;
            }
        }
    }
}

/// Builds the on-disk byte form of one proved record.
fn encode_record(key: &[u8], cert: u64) -> Vec<u8> {
    let len_le = (key.len() as u32).to_le_bytes();
    let cert_le = cert.to_le_bytes();
    let sum_le = checksum(len_le, key, cert_le).to_le_bytes();
    let mut record = Vec::with_capacity(key.len() + 20);
    record.extend_from_slice(&len_le);
    record.extend_from_slice(key);
    record.extend_from_slice(&cert_le);
    record.extend_from_slice(&sum_le);
    record
}

/// Appends one proved record to this instance's private segment,
/// creating and *publishing* the segment on first use: the header and
/// first record are written to an invisible `tmp-` file, which an
/// atomic rename then promotes to `seg-<pid>-<n>.bin`. Loaders never
/// see a segment without a complete header, and a crash at any point
/// loses at most this process's own unpublished or torn tail. I/O
/// failures only lose persistence, never correctness, so they are
/// silently ignored.
fn append_proved(seg: &mut Segment, key: &[u8], cert: u64) {
    let record = encode_record(key, cert);
    if let Some(path) = &seg.path {
        // Steady state: one single-writer append per record. Torn tails
        // (crash mid-write) are truncated away by the next load.
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
            let _ = sim::io::write_all(&mut f, &record);
        }
        return;
    }
    let _ = std::fs::create_dir_all(&seg.dir);
    let pid = std::process::id();
    let nonce = SEG_NONCE.fetch_add(1, Ordering::Relaxed);
    let tmp = seg.dir.join(format!("tmp-{pid}-{nonce}"));
    let published = seg.dir.join(format!("seg-{pid}-{nonce}.bin"));
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&tmp)
    else {
        return;
    };
    let mut first = Vec::with_capacity(MAGIC.len() + record.len());
    first.extend_from_slice(MAGIC);
    first.extend_from_slice(&record);
    if sim::io::write_all(&mut f, &first).is_err() {
        return;
    }
    drop(f);
    if sim::io::rename(&tmp, &published).is_ok() {
        // If the rename was *lost* (simulated crash), later appends
        // will fail to open the path and quietly lose persistence —
        // the correct semantics for a process whose publish died.
        seg.path = Some(published);
    }
}
