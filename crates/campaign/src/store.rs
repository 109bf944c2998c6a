//! The persistent content-addressed artifact store.
//!
//! Output-job artifacts live under `<cache>/objects/` as plain text
//! files named `<job>-<fingerprint>.txt`, where the fingerprint is the
//! FNV-1a key of the job's inputs (knobs, program set, pass library,
//! dependency fingerprints). A warm run finds its key present and
//! restores the artifact without executing the job body; any input
//! change produces a different key and a miss for exactly the affected
//! downstream jobs.
//!
//! Every write — store objects and the user-visible `results/*.txt`
//! alike — goes through [`write_atomic`] (temp file in the target
//! directory, then `rename`), so a campaign killed mid-write never
//! leaves a truncated artifact: either the old content survives or the
//! new content is complete.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `contents` to `path` atomically: the bytes land in a unique
/// temporary file in the same directory (same filesystem, so `rename`
/// is atomic) and the temp file is renamed over the target. Parent
/// directories are created as needed.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("no file name in {}", path.display())))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The on-disk object store, rooted at `<cache_dir>/objects`.
#[derive(Debug, Clone)]
pub(crate) struct Store {
    dir: PathBuf,
}

impl Store {
    pub(crate) fn new(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The object path for a job output under a given input key.
    fn object_path(&self, id: &str, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{id}-{fingerprint:016x}.txt"))
    }

    /// Loads a cached artifact, or `None` on a miss. Unreadable
    /// objects count as misses (the job just reruns).
    pub(crate) fn load(&self, id: &str, fingerprint: u64) -> Option<String> {
        std::fs::read_to_string(self.object_path(id, fingerprint)).ok()
    }

    /// Persists an artifact under its input key, atomically.
    pub(crate) fn save(&self, id: &str, fingerprint: u64, body: &str) -> io::Result<()> {
        write_atomic(&self.object_path(id, fingerprint), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip_and_miss_on_new_key() {
        let store = Store::new(tmp_dir("roundtrip"));
        assert_eq!(store.load("job", 1), None);
        store.save("job", 1, "body\n").unwrap();
        assert_eq!(store.load("job", 1).as_deref(), Some("body\n"));
        assert_eq!(store.load("job", 2), None);
        std::fs::remove_dir_all(store.dir).unwrap();
    }

    #[test]
    fn write_atomic_overwrites_and_leaves_no_temp_files() {
        let dir = tmp_dir("atomic");
        let path = dir.join("out.txt");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
