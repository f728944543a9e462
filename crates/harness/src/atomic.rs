//! Atomic file persistence shared by the checkpoint writer and the
//! experiment store.
//!
//! The idiom is the classic tmp/fsync/rename dance: encode in memory, write
//! to a *process-unique* sibling (`<path>.tmp.<pid>`), `fsync`, then
//! `rename(2)` over the target and `fsync` the directory that holds it. A process killed at any instant leaves
//! either the previous complete file or the new complete file at `path`,
//! never a torn hybrid — but it *can* leave the orphaned `*.tmp.*` sibling
//! behind if the kill lands between create and rename. [`sweep_stale_tmp`]
//! reclaims those on the next open.
//!
//! Tmp names carry the writer's pid so two concurrent writers never race on
//! the same scratch file. Sweeping deliberately skips the calling process's
//! own suffix; it may still delete a *different live* writer's scratch file,
//! in which case that writer's `write`/`fsync`/`rename` fails with a typed
//! I/O error (never corruption, never a silent partial file) and the caller
//! simply retries its read–merge–write cycle.

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// An I/O failure annotated with the path it happened on, so corruption and
/// permission reports can point at the damage.
#[derive(Debug)]
pub struct AtomicIoError {
    /// The file the operation was working on (target or scratch).
    pub path: PathBuf,
    /// The underlying OS error.
    pub source: std::io::Error,
}

impl fmt::Display for AtomicIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for AtomicIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The scratch sibling this process writes before renaming over `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(s)
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Writes `bytes` to `path` atomically and durably: create
/// `<path>.tmp.<pid>`, write, fsync, rename over `path`, then (on unix)
/// fsync the parent directory. The rename lives in the directory, not in
/// the file, so without that last fsync a power cut can roll the directory
/// back and lose the new file or the replacement.
///
/// # Errors
/// [`AtomicIoError`] naming the scratch file (create/write/fsync failures),
/// the target (rename failures) or the directory (its fsync).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), AtomicIoError> {
    let tmp = tmp_path(path);
    let err = |p: &Path, e: std::io::Error| AtomicIoError {
        path: p.to_path_buf(),
        source: e,
    };
    let mut file = std::fs::File::create(&tmp).map_err(|e| err(&tmp, e))?;
    file.write_all(bytes).map_err(|e| err(&tmp, e))?;
    file.sync_all().map_err(|e| err(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| err(path, e))?;
    #[cfg(unix)]
    {
        let dir = parent_dir(path);
        std::fs::File::open(&dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| err(&dir, e))?;
    }
    Ok(())
}

/// Removes orphaned scratch files next to `path`: every sibling whose name
/// starts with `<file name>.tmp` except this process's own suffix. Returns
/// how many were reclaimed.
///
/// A scratch file only survives a completed write when the writer died
/// between create and rename, so anything found here is (with the
/// documented concurrent-writer caveat) crash debris. Legacy fixed-name
/// `<path>.tmp` leftovers from the pre-pid format are swept too.
///
/// # Errors
/// [`AtomicIoError`] if the directory cannot be listed or a stale file
/// cannot be removed; an absent parent directory is reported as-is by the
/// directory read.
pub fn sweep_stale_tmp(path: &Path) -> Result<usize, AtomicIoError> {
    let parent = parent_dir(path);
    let Some(target_name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Ok(0);
    };
    let stale_prefix = format!("{target_name}.tmp");
    let own = tmp_path(path);
    let err = |p: &Path, e: std::io::Error| AtomicIoError {
        path: p.to_path_buf(),
        source: e,
    };
    // A target that does not exist yet has nothing to sweep (and its parent
    // may not exist either — creation is the writer's job).
    let entries = match std::fs::read_dir(&parent) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(err(&parent, e)),
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry.map_err(|e| err(&parent, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(&stale_prefix) {
            continue;
        }
        let candidate = entry.path();
        if candidate == own {
            continue; // this process's live scratch file
        }
        match std::fs::remove_file(&candidate) {
            Ok(()) => removed += 1,
            // Lost a race with another sweeper: already gone is success.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(err(&candidate, e)),
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("distill-atomic-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_read_round_trips_and_leaves_no_tmp() {
        let dir = scratch_dir("round-trip");
        let target = dir.join("data.bin");
        write_atomic(&target, b"hello").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"hello");
        write_atomic(&target, b"world").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"world");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1, "only the target may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The kill-mid-write scenario: a writer died between creating its
    /// scratch file and renaming it. The next open sweeps the orphan.
    #[test]
    fn sweep_reclaims_orphans_from_dead_writers() {
        let dir = scratch_dir("sweep");
        let target = dir.join("store.bin");
        write_atomic(&target, b"good").unwrap();
        // Orphans from two "dead" writers: a pid-suffixed scratch file (the
        // pid is not ours) and a legacy fixed-name one.
        let orphan_pid = dir.join("store.bin.tmp.999999999");
        let orphan_legacy = dir.join("store.bin.tmp");
        std::fs::write(&orphan_pid, b"torn").unwrap();
        std::fs::write(&orphan_legacy, b"torn").unwrap();
        // An unrelated sibling must survive.
        let unrelated = dir.join("store.bin.bak");
        std::fs::write(&unrelated, b"keep").unwrap();
        assert_eq!(sweep_stale_tmp(&target).unwrap(), 2);
        assert!(!orphan_pid.exists());
        assert!(!orphan_legacy.exists());
        assert!(unrelated.exists());
        assert_eq!(std::fs::read(&target).unwrap(), b"good");
        // Sweeping again finds nothing.
        assert_eq!(sweep_stale_tmp(&target).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_skips_this_processes_own_scratch_file() {
        let dir = scratch_dir("own");
        let target = dir.join("store.bin");
        let own = tmp_path(&target);
        std::fs::write(&own, b"in flight").unwrap();
        assert_eq!(sweep_stale_tmp(&target).unwrap(), 0);
        assert!(own.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_of_missing_directory_is_empty_not_an_error() {
        let target = std::env::temp_dir()
            .join(format!("distill-atomic-none-{}", std::process::id()))
            .join("store.bin");
        assert_eq!(sweep_stale_tmp(&target).unwrap(), 0);
    }

    #[test]
    fn errors_render_with_the_path() {
        let dir = scratch_dir("err");
        let bad = dir.join("no-such-subdir").join("x.bin");
        let e = write_atomic(&bad, b"x").unwrap_err();
        assert!(e.to_string().contains("no-such-subdir"));
        assert!(std::error::Error::source(&e).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
