//! The append-only campaign journal.
//!
//! One JSONL record per event — campaign start/finish and job
//! start/finish — appended and flushed as it happens. The same records
//! double as the structured progress stream (`CampaignConfig::
//! progress` echoes them to stderr), giving external monitors the job
//! id, input fingerprint, cache hit/miss and duration without parsing
//! human-oriented logs.
//!
//! The journal is write-only: the engine never reads it back, and
//! resume correctness never depends on it — the object store is the
//! source of truth; the journal is the campaign's durable history.

use crate::engine::JobStatus;
use serde::Serialize;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// One journal / progress event, flat so every record has the same
/// shape. `kind` is one of `campaign_start`, `job_start`,
/// `job_finish`, `campaign_finish`; fields irrelevant to a kind keep
/// their defaults.
#[derive(Default, Serialize)]
pub(crate) struct JournalRecord {
    kind: String,
    job: String,
    /// Input fingerprint as zero-padded hex.
    fingerprint: String,
    /// Job outcome (`hit`, `ran`, `failed`, `poisoned`) for
    /// `job_finish` records.
    status: String,
    cache_hit: bool,
    duration_ms: f64,
    error: String,
    /// Job count for campaign-level records.
    jobs: u64,
    workers: u64,
}

impl JournalRecord {
    pub(crate) fn campaign(kind: &str, jobs: u64, workers: u64) -> Self {
        JournalRecord {
            kind: kind.to_string(),
            jobs,
            workers,
            ..Default::default()
        }
    }

    pub(crate) fn job_start(job: &str, fingerprint: u64) -> Self {
        JournalRecord {
            kind: "job_start".to_string(),
            job: job.to_string(),
            fingerprint: format!("{fingerprint:016x}"),
            ..Default::default()
        }
    }

    pub(crate) fn job_finish(
        job: &str,
        fingerprint: u64,
        status: JobStatus,
        duration_ms: f64,
        error: &str,
    ) -> Self {
        JournalRecord {
            kind: "job_finish".to_string(),
            job: job.to_string(),
            fingerprint: format!("{fingerprint:016x}"),
            status: status.name().to_string(),
            cache_hit: status == JobStatus::Hit,
            duration_ms,
            error: error.to_string(),
            ..Default::default()
        }
    }

    /// The record as one JSONL line (no trailing newline).
    pub(crate) fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("journal record serializes")
    }
}

/// Append-only JSONL journal file, shared by the worker pool.
pub(crate) struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating parents and the file as needed) in append mode.
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Appends one record and flushes it. Journal I/O is best-effort
    /// for the campaign (the store carries resume correctness), so
    /// callers may ignore the result, but errors are reported.
    pub(crate) fn append(&self, record: &JournalRecord) -> io::Result<()> {
        let mut file = self.file.lock().unwrap();
        writeln!(file, "{}", record.to_jsonl())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_flat_json_lines_in_declaration_order() {
        assert_eq!(
            JournalRecord::campaign("campaign_start", 3, 2).to_jsonl(),
            r#"{"kind":"campaign_start","job":"","fingerprint":"","status":"","cache_hit":false,"duration_ms":0.0,"error":"","jobs":3,"workers":2}"#
        );
        assert_eq!(
            JournalRecord::job_finish("t1", 7, JobStatus::Failed, 1.5, "no \"luck\"").to_jsonl(),
            r#"{"kind":"job_finish","job":"t1","fingerprint":"0000000000000007","status":"failed","cache_hit":false,"duration_ms":1.5,"error":"no \"luck\"","jobs":0,"workers":0}"#
        );
        assert!(JournalRecord::job_finish("t1", 7, JobStatus::Hit, 0.0, "")
            .to_jsonl()
            .contains(r#""status":"hit","cache_hit":true"#));
    }
}
