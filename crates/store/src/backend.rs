//! Storage backends the envelope log appends to.
//!
//! The log itself ([`crate::EnvelopeStore`]) only ever performs a handful
//! of whole-file operations — append, ranged read, truncate, list — so the
//! backing medium hides behind one small object-safe trait. Reads hand
//! out [`Bytes`], and an append takes one record (or one compacted
//! segment) as a short list of [`Bytes`] parts in one call: the store
//! frames a publication around the publisher's own buffer rather than
//! copying it into a fresh one, so a backend that can keep what it was
//! given never copies a byte. Two implementations ship:
//!
//! * [`MemBackend`] — every file is a list of immutable [`Bytes`] chunks,
//!   one per appended part, behind one mutex. An append keeps each of
//!   the caller's parts as its own chunk; a ranged read inside one chunk
//!   is a window onto it, and only a read that spans chunks (recovery's
//!   whole-file [`StorageBackend::read`]) concatenates. The store reads
//!   a record back as its head, payload and tail, one chunk each, so a
//!   fetched payload is a window onto the buffer its publisher handed
//!   over. Truncation re-windows the
//!   last chunk it keeps and never writes into one, so a window handed
//!   out earlier keeps its bytes whatever later happens to the file.
//!   Cloning a `MemBackend` shares the map, which is exactly what a
//!   *kill-free restart* test wants: drop every store handle, keep the
//!   backend, and [`crate::EnvelopeStore::open`] it again as if the
//!   process had come back up. [`MemBackend::snapshot`] copies the map
//!   (the chunks themselves are shared, being immutable) instead,
//!   modelling the moment of a crash: truncating a segment inside a
//!   snapshot simulates a torn tail without touching the "live" copy.
//! * [`DirBackend`] — real files under one directory, with
//!   [`StorageBackend::sync`] mapped to `File::sync_all` so the commit
//!   barrier actually reaches the platter (or at least the page cache
//!   flush the OS promises).
//!
//! Tests that inject faults wrap a `MemBackend` in [`crate::FaultPlan`].
//!
//! Determinism note: [`StorageBackend::list`] returns names in sorted
//! order on every backend, so recovery replays segments in the same order
//! regardless of medium.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

/// The medium an envelope log writes to.
///
/// All methods take `&self`: backends are internally synchronized so the
/// per-shard store locks above them remain the only ordering that matters.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Reads a whole file. Missing files yield [`io::ErrorKind::NotFound`].
    fn read(&self, name: &str) -> io::Result<Bytes>;

    /// Reads `len` bytes starting at `offset`. Reading past the end is an
    /// error — record offsets come from the index, so a short read means
    /// the file was mutilated behind the store's back.
    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Bytes>;

    /// Appends `parts`, in order, to a file, creating it when missing:
    /// one call per record or compacted segment, however many parts it
    /// comes in. The parts are handed over: a backend may keep them (as
    /// [`MemBackend`] does, each as its own chunk) rather than copy them.
    fn append(&self, name: &str, parts: &[Bytes]) -> io::Result<()>;

    /// Durability barrier: blocks until every byte previously appended to
    /// the file is as durable as the medium can make it.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Truncates a file to `len` bytes (recovery chops torn tails here).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Removes a file (compaction drops superseded segments here).
    fn remove(&self, name: &str) -> io::Result<()>;

    /// All file names, sorted ascending.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Current size of a file in bytes.
    fn size(&self, name: &str) -> io::Result<u64>;
}

/// One in-memory file: immutable chunks in file order, each with the
/// offset of its first byte. No chunk is empty.
#[derive(Debug, Clone, Default)]
struct MemFile {
    chunks: Vec<(u64, Bytes)>,
    len: u64,
}

impl MemFile {
    /// The bytes `start..end` (`end` at most the file's length): a
    /// window when one chunk holds them all, else a concatenation of the
    /// chunks they span.
    fn range(&self, start: u64, end: u64) -> Bytes {
        if start == end {
            return Bytes::new();
        }
        // The last chunk that starts at or before `start`.
        let first = self.chunks.partition_point(|&(at, _)| at <= start) - 1;
        let (at, chunk) = &self.chunks[first];
        let (lo, hi) = ((start - at) as usize, (end - at) as usize);
        if hi <= chunk.len() {
            return chunk.slice(lo..hi);
        }
        let mut out = Vec::with_capacity((end - start) as usize);
        for (at, chunk) in &self.chunks[first..] {
            if *at >= end {
                break;
            }
            let lo = start.saturating_sub(*at) as usize;
            let hi = ((end - at) as usize).min(chunk.len());
            out.extend_from_slice(&chunk[lo..hi]);
        }
        out.into()
    }

    fn push(&mut self, bytes: Bytes) {
        if !bytes.is_empty() {
            let len = bytes.len() as u64;
            self.chunks.push((self.len, bytes));
            self.len += len;
        }
    }

    /// Keeps the first `len` bytes: whole chunks below the cut, and a
    /// window onto the chunk the cut falls in.
    fn truncate(&mut self, len: u64) {
        if len >= self.len {
            return;
        }
        let kept = self.chunks.partition_point(|&(at, _)| at < len);
        self.chunks.truncate(kept);
        if let Some((at, last)) = self.chunks.last_mut() {
            *last = last.slice(..(len - *at) as usize);
        }
        self.len = len;
    }
}

/// In-memory backend: a shared map of named files, each a list of
/// immutable chunks (see the module docs).
///
/// Clones share the underlying map (a restart keeps the "disk");
/// [`MemBackend::snapshot`] forks it (a crash freezes the disk at one
/// instant).
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: Arc<Mutex<BTreeMap<String, MemFile>>>,
}

impl MemBackend {
    /// Creates an empty in-memory "disk".
    pub fn new() -> Self {
        Self::default()
    }

    /// Forks the current file map into an independent backend — the
    /// state a crash at this exact instant would leave behind. The fork
    /// shares the immutable chunks and copies no byte. Mutating the
    /// snapshot (e.g. truncating a segment to simulate a torn tail)
    /// leaves the original untouched.
    pub fn snapshot(&self) -> Self {
        Self { files: Arc::new(Mutex::new(self.with(|m| m.clone()))) }
    }

    /// Total bytes across all files (what the "disk" holds).
    pub fn total_bytes(&self) -> u64 {
        self.with(|m| m.values().map(|f| f.len).sum())
    }

    /// Runs `f` on the file map. Every mutation under the lock leaves
    /// each file whole between std calls (a chunk list only ever loses
    /// or gains whole chunks, and its length follows), so a panic in a
    /// caller holding it leaves no file half-updated, and a poisoned
    /// guard is taken back rather than taking the "disk" down with it.
    fn with<T>(&self, f: impl FnOnce(&mut BTreeMap<String, MemFile>) -> T) -> T {
        f(&mut self.files.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
}

impl StorageBackend for MemBackend {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        self.with(|m| m.get(name).map(|f| f.range(0, f.len)).ok_or_else(|| not_found(name)))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Bytes> {
        self.with(|m| {
            let file = m.get(name).ok_or_else(|| not_found(name))?;
            let end =
                offset.checked_add(len as u64).filter(|&e| e <= file.len).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("range {offset}+{len} past end of {name} ({} bytes)", file.len),
                    )
                })?;
            Ok(file.range(offset, end))
        })
    }

    fn append(&self, name: &str, parts: &[Bytes]) -> io::Result<()> {
        self.with(|m| {
            let file = m.entry(name.to_string()).or_default();
            for part in parts {
                file.push(part.clone());
            }
        });
        Ok(())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(()) // memory is as durable as it gets
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.with(|m| {
            m.get_mut(name).ok_or_else(|| not_found(name))?.truncate(len);
            Ok(())
        })
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.with(|m| m.remove(name).map(|_| ()).ok_or_else(|| not_found(name)))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.with(|m| m.keys().cloned().collect())) // BTreeMap: already sorted
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.with(|m| m.get(name).map(|f| f.len).ok_or_else(|| not_found(name)))
    }
}

/// Filesystem backend: every log file lives directly under one directory.
#[derive(Debug, Clone)]
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// Opens (creating if needed) a directory as the log's home.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl StorageBackend for DirBackend {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        Ok(std::fs::read(self.path(name))?.into())
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Bytes> {
        let mut file = File::open(self.path(name))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf.into())
    }

    fn append(&self, name: &str, parts: &[Bytes]) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(self.path(name))?;
        parts.iter().try_for_each(|part| file.write_all(part))
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        OpenOptions::new().write(true).open(self.path(name))?.sync_all()
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(self.path(name))?.set_len(len)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(bytes: &[u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// The contract both backends keep. `fork` returns an independent
    /// copy of `backend`'s files as they are now: a crash's frozen disk.
    fn exercise(backend: &dyn StorageBackend, fork: &dyn Fn() -> Box<dyn StorageBackend>) {
        backend.append("b.log", &[b(&[9])]).unwrap();
        backend.append("a.log", &[b(&[1, 2, 3])]).unwrap();
        // Parts land in order, an empty one and an empty list included.
        backend.append("a.log", &[b(&[4]), b(&[]), b(&[5])]).unwrap();
        backend.append("a.log", &[]).unwrap();
        backend.sync("a.log").unwrap();
        assert_eq!(&backend.read("a.log").unwrap()[..], [1, 2, 3, 4, 5]);
        assert_eq!(&backend.read_range("a.log", 1, 3).unwrap()[..], [2, 3, 4], "straddles");
        assert_eq!(&backend.read_range("a.log", 3, 2).unwrap()[..], [4, 5]);
        assert!(backend.read_range("a.log", 5, 0).unwrap().is_empty());
        assert_eq!(backend.size("a.log").unwrap(), 5);
        assert_eq!(backend.list().unwrap(), vec!["a.log".to_string(), "b.log".to_string()]);
        assert!(backend.read_range("a.log", 3, 99).is_err(), "short range reads are errors");

        // A fork torn inside the second append, then appended to, leaves
        // the live file alone.
        let crash = fork();
        crash.truncate("a.log", 4).unwrap();
        crash.append("a.log", &[b(&[7]), b(&[8])]).unwrap();
        assert_eq!(&crash.read("a.log").unwrap()[..], [1, 2, 3, 4, 7, 8]);
        assert_eq!(&crash.read_range("a.log", 2, 3).unwrap()[..], [3, 4, 7]);
        assert_eq!(&backend.read("a.log").unwrap()[..], [1, 2, 3, 4, 5], "the fork tore alone");

        // Truncating inside the first append, then appending: a range
        // read before the cut keeps its bytes.
        let before = backend.read_range("a.log", 0, 3).unwrap();
        backend.truncate("a.log", 2).unwrap();
        assert_eq!(&backend.read("a.log").unwrap()[..], [1, 2]);
        backend.append("a.log", &[b(&[6])]).unwrap();
        assert_eq!(&backend.read("a.log").unwrap()[..], [1, 2, 6]);
        assert_eq!(&backend.read_range("a.log", 1, 2).unwrap()[..], [2, 6]);
        assert_eq!(backend.size("a.log").unwrap(), 3);
        assert_eq!(&before[..], [1, 2, 3]);

        backend.remove("b.log").unwrap();
        assert_eq!(backend.list().unwrap(), vec!["a.log".to_string()]);
        assert!(backend.read("b.log").is_err());
    }

    fn exercise_mem(disk: &MemBackend) {
        exercise(disk, &|| Box::new(disk.snapshot()));
    }

    #[test]
    fn mem_backend_contract() {
        exercise_mem(&MemBackend::new());
    }

    #[test]
    fn a_poisoned_mem_backend_keeps_its_contract() {
        let disk = MemBackend::new();
        let poisoner = disk.clone();
        let panicked = std::panic::catch_unwind(move || {
            poisoner.with(|_| panic!("a holder of the file map panics"));
        });
        assert!(panicked.is_err() && disk.files.is_poisoned());
        exercise_mem(&disk);
        assert_eq!(disk.snapshot().total_bytes(), 3);
    }

    #[test]
    fn dir_backend_contract() {
        // Scratch dirs under the workspace target directory (`cargo clean`
        // removes them; nothing outside the workspace is touched).
        let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        let (root, fork_root) =
            (tmp.join("dir_backend_contract"), tmp.join("dir_backend_contract_fork"));
        let _ = std::fs::remove_dir_all(&root);
        let disk = DirBackend::create(&root).unwrap();
        exercise(&disk, &|| {
            let _ = std::fs::remove_dir_all(&fork_root);
            let copy = DirBackend::create(&fork_root).unwrap();
            for name in disk.list().unwrap() {
                std::fs::copy(disk.path(&name), copy.path(&name)).unwrap();
            }
            Box::new(copy)
        });
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&fork_root);
    }

    #[test]
    fn clones_share_but_snapshots_fork() {
        let disk = MemBackend::new();
        disk.append("seg", &[b(&[1, 2, 3, 4])]).unwrap();
        let restart = disk.clone();
        let crash = disk.snapshot();
        crash.truncate("seg", 1).unwrap();
        disk.append("seg", &[b(&[5])]).unwrap();
        assert_eq!(&restart.read("seg").unwrap()[..], [1, 2, 3, 4, 5], "clone sees live writes");
        assert_eq!(&crash.read("seg").unwrap()[..], [1], "snapshot froze, then tore");
    }

    #[test]
    fn mem_reads_inside_one_append_are_windows_onto_it() {
        let disk = MemBackend::new();
        let first = b(&[1, 2, 3, 4]);
        // One append of two parts: each is its own chunk.
        disk.append("seg", &[first.clone(), b(&[5, 6])]).unwrap();
        let at = first.as_ptr();
        let window = disk.read_range("seg", 1, 3).unwrap();
        assert_eq!(window.as_ptr(), at.wrapping_add(1), "the append's own buffer");
        assert_eq!(disk.snapshot().read_range("seg", 0, 4).unwrap().as_ptr(), at, "forks share");
        let straddle = disk.read_range("seg", 3, 2).unwrap();
        assert_eq!(
            (&straddle[..], straddle.as_ptr() == at.wrapping_add(3)),
            (&[4u8, 5][..], false)
        );
        disk.truncate("seg", 2).unwrap();
        assert_eq!(disk.read("seg").unwrap().as_ptr(), at, "a torn chunk is re-windowed");
    }
}
