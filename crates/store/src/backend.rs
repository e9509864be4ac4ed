//! Storage backends the envelope log appends to.
//!
//! The log itself ([`crate::EnvelopeStore`]) only ever performs a handful
//! of whole-file operations — append, ranged read, truncate, list — so the
//! backing medium hides behind one small object-safe trait. Two
//! implementations ship:
//!
//! * [`MemBackend`] — files are byte vectors behind one mutex. Cloning a
//!   `MemBackend` shares the map, which is exactly what a *kill-free
//!   restart* test wants: drop every store handle, keep the backend, and
//!   [`crate::EnvelopeStore::open`] it again as if the process had come
//!   back up. [`MemBackend::snapshot`] deep-copies the map instead,
//!   modelling the moment of a crash: truncating a segment inside a
//!   snapshot simulates a torn tail without touching the "live" copy.
//! * [`DirBackend`] — real files under one directory, with
//!   [`StorageBackend::sync`] mapped to `File::sync_all` so the commit
//!   barrier actually reaches the platter (or at least the page cache
//!   flush the OS promises).
//!
//! Determinism note: [`StorageBackend::list`] returns names in sorted
//! order on every backend, so recovery replays segments in the same order
//! regardless of medium.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// The medium an envelope log writes to.
///
/// All methods take `&self`: backends are internally synchronized so the
/// per-shard store locks above them remain the only ordering that matters.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Reads a whole file. Missing files yield [`io::ErrorKind::NotFound`].
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Reads `len` bytes starting at `offset`. Reading past the end is an
    /// error — record offsets come from the index, so a short read means
    /// the file was mutilated behind the store's back.
    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// Appends bytes to a file, creating it when missing.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

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

/// In-memory backend: a shared map of named byte vectors.
///
/// Clones share the underlying map (a restart keeps the "disk");
/// [`MemBackend::snapshot`] deep-copies it (a crash freezes the disk at
/// one instant).
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemBackend {
    /// Creates an empty in-memory "disk".
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep-copies the current file map into an independent backend —
    /// the state a crash at this exact instant would leave behind.
    /// Mutating the snapshot (e.g. truncating a segment to simulate a
    /// torn tail) leaves the original untouched.
    pub fn snapshot(&self) -> Self {
        Self { files: Arc::new(Mutex::new(self.with(|m| m.clone()))) }
    }

    /// Total bytes across all files (what the "disk" holds).
    pub fn total_bytes(&self) -> u64 {
        self.with(|m| m.values().map(|f| f.len() as u64).sum())
    }

    /// Runs `f` on the file map. Every mutation under the lock is one
    /// std call on the map or one file, so a panic in a caller holding
    /// it leaves no file half-updated, and a poisoned guard is taken
    /// back rather than taking the "disk" down with it.
    fn with<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Vec<u8>>) -> T) -> T {
        f(&mut self.files.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
}

impl StorageBackend for MemBackend {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.with(|m| m.get(name).cloned().ok_or_else(|| not_found(name)))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.with(|m| {
            let file = m.get(name).ok_or_else(|| not_found(name))?;
            let start = offset as usize;
            let end = start.checked_add(len).filter(|&e| e <= file.len()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("range {offset}+{len} past end of {name} ({} bytes)", file.len()),
                )
            })?;
            Ok(file[start..end].to_vec())
        })
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.with(|m| m.entry(name.to_string()).or_default().extend_from_slice(bytes));
        Ok(())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(()) // memory is as durable as it gets
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.with(|m| {
            let file = m.get_mut(name).ok_or_else(|| not_found(name))?;
            file.truncate(len as usize);
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
        self.with(|m| m.get(name).map(|f| f.len() as u64).ok_or_else(|| not_found(name)))
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

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl StorageBackend for DirBackend {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = File::open(self.path(name))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(self.path(name))?;
        file.write_all(bytes)
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

    fn exercise(backend: &dyn StorageBackend) {
        backend.append("b.log", &[9]).unwrap();
        backend.append("a.log", &[1, 2, 3]).unwrap();
        backend.append("a.log", &[4, 5]).unwrap();
        backend.sync("a.log").unwrap();
        assert_eq!(backend.read("a.log").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(backend.read_range("a.log", 1, 3).unwrap(), vec![2, 3, 4]);
        assert_eq!(backend.size("a.log").unwrap(), 5);
        assert_eq!(backend.list().unwrap(), vec!["a.log".to_string(), "b.log".to_string()]);
        assert!(backend.read_range("a.log", 3, 99).is_err(), "short range reads are errors");
        backend.truncate("a.log", 2).unwrap();
        assert_eq!(backend.read("a.log").unwrap(), vec![1, 2]);
        backend.remove("b.log").unwrap();
        assert_eq!(backend.list().unwrap(), vec!["a.log".to_string()]);
        assert!(backend.read("b.log").is_err());
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn a_poisoned_mem_backend_keeps_its_contract() {
        let disk = MemBackend::new();
        let poisoner = disk.clone();
        let panicked = std::panic::catch_unwind(move || {
            poisoner.with(|_| panic!("a holder of the file map panics"));
        });
        assert!(panicked.is_err() && disk.files.is_poisoned());
        exercise(&disk);
        assert_eq!(disk.snapshot().total_bytes(), 2);
    }

    #[test]
    fn dir_backend_contract() {
        // Scratch dir under the workspace target directory (`cargo clean`
        // removes it; nothing outside the workspace is touched).
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/dir_backend_contract");
        let _ = std::fs::remove_dir_all(&root);
        exercise(&DirBackend::create(&root).unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn clones_share_but_snapshots_fork() {
        let disk = MemBackend::new();
        disk.append("seg", &[1, 2, 3, 4]).unwrap();
        let restart = disk.clone();
        let crash = disk.snapshot();
        crash.truncate("seg", 1).unwrap();
        disk.append("seg", &[5]).unwrap();
        assert_eq!(restart.read("seg").unwrap(), vec![1, 2, 3, 4, 5], "clone sees live writes");
        assert_eq!(crash.read("seg").unwrap(), vec![1], "snapshot froze, then tore");
    }
}
