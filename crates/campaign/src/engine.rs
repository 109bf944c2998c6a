//! The campaign execution engine: planning (cycle detection,
//! fingerprinting, cache-hit classification, demand pruning) and the
//! dependency-respecting worker pool.
//!
//! ## Planning
//!
//! Jobs are topologically sorted (a cycle is a hard error naming the
//! jobs involved), then each job's cache fingerprint is computed
//! bottom-up: `fnv(salt, id, inputs_hash, dep fingerprints...)`. The
//! *targets* (every output job, or the `only` selection) and their
//! transitive dependencies form the *needed* set. A needed output job
//! whose fingerprint is present in the store is a **hit**: its text is
//! restored from the store (and rewritten under the results directory)
//! without executing the body. Everything else that some executing job
//! transitively needs **must run**; needed jobs with no executing
//! dependent are **skipped** — which is how an all-hits warm rerun
//! executes zero job bodies even though the ephemeral artifact jobs
//! (tuner, program sets) are never persisted.
//!
//! ## Execution
//!
//! `workers` scoped threads drain a ready queue in dependency order.
//! Each body runs once, under `catch_unwind`. Jobs are deterministic,
//! so a failure (error return or panic) is reported as it happened,
//! never retried: the job **poisons** exactly its transitive
//! dependents, the rest of the campaign completes, and the report
//! carries the failure chain. Store and results writes are atomic
//! (temp + rename) and every event is appended to the JSONL journal; a
//! rerun hits every output the store already holds.

use crate::fingerprint::Fnv;
use crate::job::{Campaign, Ctx, JobSpec, Product, Value, ValueMap};
use crate::journal::{Journal, JournalRecord};
use crate::store::{write_atomic, Store};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Engine settings for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Where output artifacts (`<id>.txt`) are written.
    pub results_dir: PathBuf,
    /// Worker threads; `0` means the available parallelism.
    pub workers: usize,
    /// Evict the cache (objects and journal) before planning.
    pub fresh: bool,
    /// Fingerprint salt folded into every job key; campaigns use it
    /// for the pass-library/code fingerprint so library changes
    /// invalidate the cache.
    pub salt: u64,
    /// Target selection; empty means every output job.
    pub only: Vec<String>,
    /// Echo journal records to stderr as JSONL progress events.
    pub progress: bool,
}

impl CampaignConfig {
    pub fn for_results_dir(dir: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            results_dir: dir.into(),
            workers: 0,
            fresh: false,
            salt: 0,
            only: Vec::new(),
            progress: false,
        }
    }

    /// Cache root (object store + journal): `<results_dir>/.cache`.
    pub fn cache_dir(&self) -> PathBuf {
        self.results_dir.join(".cache")
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let n = if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        n.clamp(1, jobs.max(1))
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::for_results_dir("results")
    }
}

/// Why a campaign could not run at all (individual job failures are
/// reported per job, not as errors).
#[derive(Debug)]
pub enum CampaignError {
    /// The DAG has at least one cycle through these jobs.
    Cycle(Vec<String>),
    UnknownDep {
        job: String,
        dep: String,
    },
    UnknownTarget(String),
    Io(std::io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Cycle(jobs) => {
                write!(f, "dependency cycle through jobs: {}", jobs.join(", "))
            }
            CampaignError::UnknownDep { job, dep } => {
                write!(f, "job `{job}` depends on undeclared job `{dep}`")
            }
            CampaignError::UnknownTarget(t) => write!(f, "unknown --only target `{t}`"),
            CampaignError::Io(e) => write!(f, "campaign I/O error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Final state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Output restored from the content-addressed store.
    Hit,
    /// Body executed successfully.
    Ran,
    /// Not needed this run (unselected, or no executing dependent).
    Skipped,
    /// Body returned an error or panicked.
    Failed,
    /// Not run because a transitive dependency failed.
    Poisoned,
}

impl JobStatus {
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Hit => "hit",
            JobStatus::Ran => "ran",
            JobStatus::Skipped => "skipped",
            JobStatus::Failed => "failed",
            JobStatus::Poisoned => "poisoned",
        }
    }
}

/// Per-job outcome in the campaign report.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub id: String,
    pub fingerprint: u64,
    pub status: JobStatus,
    pub duration_ms: f64,
    pub error: Option<String>,
    /// For poisoned jobs, the failed job at the root of the chain.
    pub poisoned_by: Option<String>,
}

/// Outcome counts and per-job detail for one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-job outcomes in declaration order.
    pub jobs: Vec<JobReport>,
    pub workers: usize,
    pub wall_ms: f64,
}

impl CampaignReport {
    pub fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// No failed or poisoned jobs.
    pub fn success(&self) -> bool {
        self.count(JobStatus::Failed) == 0 && self.count(JobStatus::Poisoned) == 0
    }

    /// One-line machine-greppable summary.
    pub fn summary(&self) -> String {
        format!(
            "campaign: jobs={} hit={} ran={} skipped={} failed={} poisoned={} workers={} wall={:.1}s",
            self.jobs.len(),
            self.count(JobStatus::Hit),
            self.count(JobStatus::Ran),
            self.count(JobStatus::Skipped),
            self.count(JobStatus::Failed),
            self.count(JobStatus::Poisoned),
            self.workers,
            self.wall_ms / 1000.0
        )
    }
}

/// A finished campaign: the report plus the in-memory artifacts, so
/// drivers can pull shared values (e.g. the tuner's telemetry) out of
/// the run.
pub struct CampaignRun {
    pub report: CampaignReport,
    values: HashMap<String, Value>,
}

impl std::fmt::Debug for CampaignRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRun")
            .field("report", &self.report)
            .field("values", &self.values.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CampaignRun {
    /// An artifact produced (or restored) during the run.
    pub fn value<T: std::any::Any + Send + Sync>(&self, id: &str) -> Option<Arc<T>> {
        self.values.get(id).cloned()?.downcast::<T>().ok()
    }
}

/// Scheduler node state shared by the worker pool.
enum Slot {
    /// Not part of the executing set.
    Off,
    /// Waiting on dependencies or in the ready queue.
    Pending,
    Done(JobStatus),
}

struct Sched {
    slots: Vec<Slot>,
    deps_left: Vec<usize>,
    ready: VecDeque<usize>,
    /// Executing-set jobs not yet done.
    pending: usize,
    /// Per-job report fields written by workers.
    meta: Vec<JobMeta>,
}

#[derive(Default, Clone)]
struct JobMeta {
    duration_ms: f64,
    error: Option<String>,
    poisoned_by: Option<String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Plans and executes a campaign. Per-job failures land in the report;
/// only structural problems (cycles, unknown ids, cache I/O) error.
pub fn run(campaign: Campaign, config: &CampaignConfig) -> Result<CampaignRun, CampaignError> {
    let t0 = Instant::now();
    let jobs = campaign.jobs;
    let n = jobs.len();
    let index: HashMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();

    // Dependency edges.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, job) in jobs.iter().enumerate() {
        for dep in &job.deps {
            let &d = index
                .get(dep.as_str())
                .ok_or_else(|| CampaignError::UnknownDep {
                    job: job.id.clone(),
                    dep: dep.clone(),
                })?;
            deps[i].push(d);
            dependents[d].push(i);
        }
    }

    // Kahn topological order; leftovers are cycle members.
    let mut indegree: Vec<usize> = deps.iter().map(|d| d.len()).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(i) = queue.pop_front() {
        topo.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                queue.push_back(j);
            }
        }
    }
    if topo.len() < n {
        let cyclic: Vec<String> = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(|i| jobs[i].id.clone())
            .collect();
        return Err(CampaignError::Cycle(cyclic));
    }

    // Bottom-up input fingerprints.
    let mut fingerprints = vec![0u64; n];
    for &i in &topo {
        let mut h = Fnv::new();
        h.write_u64(config.salt)
            .write_str(&jobs[i].id)
            .write_u64(jobs[i].inputs_hash);
        for &d in &deps[i] {
            h.write_u64(fingerprints[d]);
        }
        fingerprints[i] = h.finish();
    }

    // Cache eviction and storage setup.
    let cache_dir = config.cache_dir();
    if config.fresh {
        match std::fs::remove_dir_all(&cache_dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    std::fs::create_dir_all(&config.results_dir)?;
    let store = Store::new(cache_dir.join("objects"));
    let journal = Journal::open(&cache_dir.join("journal.jsonl"))?;

    // Targets and the needed closure.
    let targets: Vec<usize> = if config.only.is_empty() {
        (0..n).filter(|&i| jobs[i].persisted).collect()
    } else {
        config
            .only
            .iter()
            .map(|t| {
                index
                    .get(t.as_str())
                    .copied()
                    .ok_or_else(|| CampaignError::UnknownTarget(t.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    let mut is_target = vec![false; n];
    let mut needed = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &t in &targets {
        is_target[t] = true;
        if !needed[t] {
            needed[t] = true;
            stack.push(t);
        }
    }
    while let Some(i) = stack.pop() {
        for &d in &deps[i] {
            if !needed[d] {
                needed[d] = true;
                stack.push(d);
            }
        }
    }

    // Cache classification for needed outputs.
    let mut cached_text: Vec<Option<String>> = vec![None; n];
    for i in 0..n {
        if needed[i] && jobs[i].persisted {
            cached_text[i] = store.load(&jobs[i].id, fingerprints[i]);
        }
    }
    let hit: Vec<bool> = cached_text.iter().map(|t| t.is_some()).collect();

    // Demand pruning: a job executes iff it misses and either is a
    // target or feeds (transitively) a job that executes.
    let mut must_run = vec![false; n];
    for &i in topo.iter().rev() {
        must_run[i] =
            needed[i] && !hit[i] && (is_target[i] || dependents[i].iter().any(|&j| must_run[j]));
    }

    let workers = config.worker_count(must_run.iter().filter(|&&m| m).count());
    journal
        .append(&JournalRecord::campaign(
            "campaign_start",
            n as u64,
            workers as u64,
        ))
        .unwrap_or_else(|e| eprintln!("campaign: journal write failed: {e}"));

    let values: ValueMap = Mutex::new(HashMap::new());
    let progress = |record: &JournalRecord| {
        journal
            .append(record)
            .unwrap_or_else(|e| eprintln!("campaign: journal write failed: {e}"));
        if config.progress {
            eprintln!("{}", record.to_jsonl());
        }
    };

    // Restore hits up front: results file, in-memory value, journal.
    for &i in &topo {
        if let Some(text) = cached_text[i].take() {
            write_atomic(
                &config.results_dir.join(format!("{}.txt", jobs[i].id)),
                &text,
            )?;
            values
                .lock()
                .unwrap()
                .insert(jobs[i].id.clone(), Arc::new(text) as Value);
            progress(&JournalRecord::job_finish(
                &jobs[i].id,
                fingerprints[i],
                JobStatus::Hit,
                0.0,
                "",
            ));
        }
    }

    // Worker pool over the must-run set.
    let slots: Vec<Slot> = (0..n)
        .map(|i| {
            if must_run[i] {
                Slot::Pending
            } else {
                Slot::Off
            }
        })
        .collect();
    let deps_left: Vec<usize> = (0..n)
        .map(|i| deps[i].iter().filter(|&&d| must_run[d]).count())
        .collect();
    let pending = must_run.iter().filter(|&&m| m).count();
    let ready: VecDeque<usize> = topo
        .iter()
        .copied()
        .filter(|&i| must_run[i] && deps_left[i] == 0)
        .collect();
    let sched = Mutex::new(Sched {
        slots,
        deps_left,
        ready,
        pending,
        meta: vec![JobMeta::default(); n],
    });
    let ready_cv = Condvar::new();

    let worker = || {
        loop {
            let i = {
                let mut guard = sched.lock().unwrap();
                loop {
                    if guard.pending == 0 {
                        return;
                    }
                    if let Some(i) = guard.ready.pop_front() {
                        break i;
                    }
                    guard = ready_cv.wait(guard).unwrap();
                }
            };
            let job: &JobSpec = &jobs[i];
            progress(&JournalRecord::job_start(&job.id, fingerprints[i]));
            let started = Instant::now();
            let body = catch_unwind(AssertUnwindSafe(|| (job.run)(&Ctx::new(&values))))
                .unwrap_or_else(|payload| Err(panic_message(payload)));
            // Persist successful outputs; a persistence failure is a
            // job failure (the cache must never hold a key whose
            // results file could not be written).
            let outcome: Result<Value, String> = body.and_then(|product| match product {
                Product::Text(text) => {
                    store
                        .save(&job.id, fingerprints[i], &text)
                        .map_err(|e| format!("cache write failed: {e}"))?;
                    write_atomic(&config.results_dir.join(format!("{}.txt", job.id)), &text)
                        .map_err(|e| format!("results write failed: {e}"))?;
                    Ok(Arc::new(text) as Value)
                }
                Product::Value(v) => Ok(v),
            });
            let duration_ms = started.elapsed().as_secs_f64() * 1000.0;
            let status = if outcome.is_ok() {
                JobStatus::Ran
            } else {
                JobStatus::Failed
            };
            progress(&JournalRecord::job_finish(
                &job.id,
                fingerprints[i],
                status,
                duration_ms,
                outcome.as_ref().err().map_or("", String::as_str),
            ));

            let mut guard = sched.lock().unwrap();
            guard.slots[i] = Slot::Done(status);
            guard.pending -= 1;
            guard.meta[i].duration_ms = duration_ms;
            match outcome {
                Ok(value) => {
                    values.lock().unwrap().insert(job.id.clone(), value);
                    for &j in &dependents[i] {
                        if matches!(guard.slots[j], Slot::Pending) {
                            guard.deps_left[j] -= 1;
                            if guard.deps_left[j] == 0 {
                                guard.ready.push_back(j);
                            }
                        }
                    }
                }
                Err(error) => {
                    guard.meta[i].error = Some(error);
                    // Poison the transitive dependents still pending.
                    let mut poison: Vec<usize> = dependents[i].clone();
                    while let Some(j) = poison.pop() {
                        if matches!(guard.slots[j], Slot::Pending) {
                            guard.slots[j] = Slot::Done(JobStatus::Poisoned);
                            guard.pending -= 1;
                            guard.meta[j].poisoned_by = Some(job.id.clone());
                            progress(&JournalRecord::job_finish(
                                &jobs[j].id,
                                fingerprints[j],
                                JobStatus::Poisoned,
                                0.0,
                                &format!("dependency `{}` failed", job.id),
                            ));
                            poison.extend_from_slice(&dependents[j]);
                        }
                    }
                }
            }
            ready_cv.notify_all();
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker);
        }
    });

    // Assemble the report in declaration order.
    let Sched { slots, meta, .. } = sched.into_inner().unwrap();
    let mut reports = Vec::with_capacity(n);
    for (i, job) in jobs.iter().enumerate() {
        let status = match slots[i] {
            Slot::Done(s) => s,
            Slot::Pending => unreachable!("every executing job finishes or is poisoned"),
            Slot::Off => {
                if hit[i] {
                    JobStatus::Hit
                } else {
                    JobStatus::Skipped
                }
            }
        };
        reports.push(JobReport {
            id: job.id.clone(),
            fingerprint: fingerprints[i],
            status,
            duration_ms: meta[i].duration_ms,
            error: meta[i].error.clone(),
            poisoned_by: meta[i].poisoned_by.clone(),
        });
    }
    let report = CampaignReport {
        jobs: reports,
        workers,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    };
    journal
        .append(&JournalRecord::campaign(
            "campaign_finish",
            n as u64,
            workers as u64,
        ))
        .unwrap_or_else(|e| eprintln!("campaign: journal write failed: {e}"));

    Ok(CampaignRun {
        report,
        values: values.into_inner().unwrap(),
    })
}
