//! A fault-injecting storage backend for tests.
//!
//! [`FaultPlan`] wraps a [`MemBackend`] and forwards every call to it,
//! except the one call a test armed: [`FaultPlan::arm`] picks a
//! [`StorageBackend`] method, the call of it that goes wrong (the Nth,
//! counted from the moment of arming) and the [`Fault`] it suffers. Each
//! method counts its own calls, and an armed fault fires once, so a
//! schedule is written down as the list of `arm` calls that make it.
//! The wrapped disk is shared, not copied: the test keeps a clone of the
//! `MemBackend` to look at the bytes a fault left behind, or to reopen a
//! store over them without faults.

use std::io;
use std::sync::{Mutex, PoisonError};

use bytes::Bytes;

use crate::backend::{MemBackend, StorageBackend};

/// A [`StorageBackend`] method, as [`FaultPlan::arm`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Read,
    ReadRange,
    Append,
    Sync,
    Truncate,
    Remove,
    List,
    Size,
}

/// What an armed call does in place of its plain operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fails before the operation touches the disk.
    Error,
    /// An `append` writes the first `k` bytes of its parts, taken across
    /// them in order (all of them when shorter), then fails. Any other
    /// method fails as for [`Fault::Error`].
    ShortWrite(usize),
    /// The operation takes effect, then the call fails anyway.
    ErrorAfter,
    /// Panics before the operation touches the disk.
    Panic,
    /// Fails before the operation, on this call and on every later call
    /// of the method: the one fault that does not disarm when it fires.
    Broken,
}

/// A [`MemBackend`] whose armed calls go wrong (see the module docs).
#[derive(Debug)]
pub struct FaultPlan {
    disk: MemBackend,
    /// Per [`Method`]: the calls left until its fault fires (the firing
    /// call included), and the fault.
    armed: Mutex<[Option<(usize, Fault)>; 8]>,
}

impl FaultPlan {
    /// Wraps `disk` with nothing armed.
    pub fn new(disk: MemBackend) -> Self {
        Self { disk, armed: Mutex::new([None; 8]) }
    }

    /// Arms `fault` to fire on the `nth` call of `method` from now on,
    /// replacing whatever that method had armed.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero: calls are counted from one.
    pub fn arm(&self, method: Method, nth: usize, fault: Fault) {
        assert!(nth > 0, "the first call from now is call 1");
        self.armed.lock().unwrap_or_else(PoisonError::into_inner)[method as usize] =
            Some((nth, fault));
    }

    /// Counts one call of `method`: the fault it suffers, if any.
    fn strike(&self, method: Method) -> Option<Fault> {
        // Nothing below panics, so the table is whole even if a poisoned
        // guard is taken back.
        let mut armed = self.armed.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = &mut armed[method as usize];
        let (left, fault) = (*slot)?;
        if left > 1 {
            *slot = Some((left - 1, fault));
            return None;
        }
        if fault != Fault::Broken {
            *slot = None;
        }
        Some(fault)
    }

    /// Runs `op`, this call of `method` on the disk, under whatever
    /// fault the call strikes.
    fn call<T>(&self, method: Method, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        suffer(method, self.strike(method), op)
    }
}

fn injected(method: Method) -> io::Error {
    io::Error::other(format!("injected fault in {method:?}"))
}

/// Runs `op` under `fault`.
fn suffer<T>(
    method: Method,
    fault: Option<Fault>,
    op: impl FnOnce() -> io::Result<T>,
) -> io::Result<T> {
    match fault {
        None => op(),
        Some(Fault::ErrorAfter) => op().and_then(|_| Err(injected(method))),
        Some(Fault::Panic) => panic!("injected panic in {method:?}"),
        Some(Fault::Error | Fault::Broken | Fault::ShortWrite(_)) => Err(injected(method)),
    }
}

impl StorageBackend for FaultPlan {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        self.call(Method::Read, || self.disk.read(name))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Bytes> {
        self.call(Method::ReadRange, || self.disk.read_range(name, offset, len))
    }

    fn append(&self, name: &str, parts: &[Bytes]) -> io::Result<()> {
        match self.strike(Method::Append) {
            Some(Fault::ShortWrite(mut k)) => {
                let prefix: Vec<Bytes> = parts
                    .iter()
                    .map(|part| {
                        let n = k.min(part.len());
                        k -= n;
                        part.slice(..n)
                    })
                    .collect();
                self.disk.append(name, &prefix)?;
                Err(injected(Method::Append))
            }
            fault => suffer(Method::Append, fault, || self.disk.append(name, parts)),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.call(Method::Sync, || self.disk.sync(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.call(Method::Truncate, || self.disk.truncate(name, len))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.call(Method::Remove, || self.disk.remove(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.call(Method::List, || self.disk.list())
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.call(Method::Size, || self.disk.size(name))
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn each_fault_leaves_the_disk_as_it_promises() {
        // (fault on the second append from arming, bytes of that append
        // on the disk after it, whether it panics, whether the third
        // append fails too). Each append is one record of three parts,
        // 4 + 0 + 6 bytes: a short write stops inside the first, at the
        // empty one, or inside the last.
        let table = [
            (Fault::Error, 0, false, false),
            (Fault::ShortWrite(3), 3, false, false),
            (Fault::ShortWrite(4), 4, false, false),
            (Fault::ShortWrite(7), 7, false, false),
            (Fault::ShortWrite(99), 10, false, false),
            (Fault::ErrorAfter, 10, false, false),
            (Fault::Panic, 0, true, false),
            (Fault::Broken, 0, false, true),
        ];
        let parts = [vec![7u8; 4], vec![], vec![8u8; 6]].map(Bytes::from);
        let ten = || &parts[..];
        for (fault, landed, panics, sticks) in table {
            let disk = MemBackend::new();
            let plan = FaultPlan::new(disk.clone());
            plan.append("f", ten()).unwrap(); // before arming: not counted
            plan.arm(Method::Append, 2, fault);
            plan.append("f", ten()).unwrap();
            // Every other method, called in between, leaves the count alone.
            plan.read("f").unwrap();
            plan.read_range("f", 1, 2).unwrap();
            plan.sync("f").unwrap();
            plan.truncate("f", 20).unwrap();
            plan.list().unwrap();
            plan.size("f").unwrap();
            disk.append("g", ten()).unwrap();
            plan.remove("g").unwrap();

            match catch_unwind(AssertUnwindSafe(|| plan.append("f", ten()))) {
                Ok(result) => assert!(!panics && result.is_err(), "{fault:?}"),
                Err(_) => assert!(panics, "{fault:?}"),
            }
            assert_eq!(disk.size("f").unwrap(), 20 + landed, "{fault:?}");
            let tail = disk.read_range("f", 20, landed as usize).unwrap();
            assert_eq!(tail[..], [&[7u8; 4][..], &[8; 6]].concat()[..landed as usize], "{fault:?}");
            assert_eq!(plan.append("f", ten()).is_err(), sticks, "{fault:?}: fires again");
        }
    }
}
