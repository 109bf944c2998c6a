//! Engine-level tests on synthetic DAGs: planning errors, cache
//! warm/invalidation behavior, single-attempt failure poisoning,
//! demand pruning of ephemeral artifacts, a partial run resumed by a
//! full one, a crashed process resumed where it stopped, and the
//! journal record stream.

use dt_campaign::{
    run, Campaign, CampaignConfig, CampaignError, CampaignReport, JobReport, JobStatus,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt-campaign-engine-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_config(dir: &PathBuf) -> CampaignConfig {
    let mut config = CampaignConfig::for_results_dir(dir);
    config.workers = 2;
    config
}

/// The report of job `id`.
fn job<'a>(report: &'a CampaignReport, id: &str) -> &'a JobReport {
    report
        .jobs
        .iter()
        .find(|j| j.id == id)
        .unwrap_or_else(|| panic!("no job `{id}` in the report"))
}

/// A counter that records how many times each job body actually ran.
fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

/// A diamond: base (ephemeral) -> left, right (outputs) -> join.
fn diamond(
    base_runs: Arc<AtomicUsize>,
    left_runs: Arc<AtomicUsize>,
    join_runs: Arc<AtomicUsize>,
) -> Campaign {
    let mut c = Campaign::new();
    c.artifact("base", &[], 11, move |_| {
        base_runs.fetch_add(1, Ordering::SeqCst);
        Ok::<_, String>(21u64)
    });
    c.output("left", &["base"], 0, move |ctx| {
        left_runs.fetch_add(1, Ordering::SeqCst);
        Ok(format!("left of {}\n", ctx.value::<u64>("base")))
    });
    c.output("right", &["base"], 0, |ctx| {
        Ok(format!("right of {}\n", ctx.value::<u64>("base")))
    });
    c.output("join", &["left", "right"], 0, move |ctx| {
        join_runs.fetch_add(1, Ordering::SeqCst);
        Ok(format!(
            "{}{}",
            ctx.value::<String>("left"),
            ctx.value::<String>("right")
        ))
    });
    c
}

#[test]
fn cycle_detection_names_the_cycle() {
    let mut c = Campaign::new();
    c.output("a", &["b"], 0, |_| Ok(String::new()));
    c.output("b", &["a"], 0, |_| Ok(String::new()));
    c.output("free", &[], 0, |_| Ok(String::new()));
    let dir = test_dir("cycle");
    match run(c, &quiet_config(&dir)) {
        Err(CampaignError::Cycle(mut jobs)) => {
            jobs.sort();
            assert_eq!(jobs, ["a", "b"]);
        }
        other => panic!("expected cycle error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_dependency_is_an_error() {
    let mut c = Campaign::new();
    c.output("a", &["ghost"], 0, |_| Ok(String::new()));
    let dir = test_dir("unknown-dep");
    match run(c, &quiet_config(&dir)) {
        Err(CampaignError::UnknownDep { job, dep }) => {
            assert_eq!(job, "a");
            assert_eq!(dep, "ghost");
        }
        other => panic!("expected unknown-dep error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_target_is_an_error() {
    let mut c = Campaign::new();
    c.output("a", &[], 0, |_| Ok(String::new()));
    let dir = test_dir("unknown-target");
    let mut config = quiet_config(&dir);
    config.only = vec!["nope".into()];
    match run(c, &config) {
        Err(CampaignError::UnknownTarget(t)) => assert_eq!(t, "nope"),
        other => panic!("expected unknown-target error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cold_run_executes_and_warm_run_hits_without_executing() {
    let (base_runs, left_runs, join_runs) = (counter(), counter(), counter());
    let dir = test_dir("warm");
    let config = quiet_config(&dir);

    let outcome = run(
        diamond(base_runs.clone(), left_runs.clone(), join_runs.clone()),
        &config,
    )
    .unwrap();
    assert!(outcome.report.success());
    assert_eq!(outcome.report.count(JobStatus::Ran), 4);
    assert_eq!(base_runs.load(Ordering::SeqCst), 1);
    let cold_join = std::fs::read_to_string(dir.join("join.txt")).unwrap();
    assert_eq!(cold_join, "left of 21\nright of 21\n");

    // Warm rerun: all outputs restored, zero bodies executed, files
    // bit-identical.
    let outcome = run(
        diamond(base_runs.clone(), left_runs.clone(), join_runs.clone()),
        &config,
    )
    .unwrap();
    assert!(outcome.report.success(), "{}", outcome.report.summary());
    assert_eq!(outcome.report.count(JobStatus::Hit), 3);
    assert_eq!(outcome.report.count(JobStatus::Ran), 0);
    assert_eq!(
        job(&outcome.report, "base").status,
        JobStatus::Skipped,
        "ephemeral artifact must be demand-pruned on a warm run"
    );
    assert_eq!(base_runs.load(Ordering::SeqCst), 1);
    assert_eq!(left_runs.load(Ordering::SeqCst), 1);
    assert_eq!(join_runs.load(Ordering::SeqCst), 1);
    assert_eq!(
        std::fs::read_to_string(dir.join("join.txt")).unwrap(),
        cold_join
    );

    // --fresh evicts the cache: everything reruns.
    let mut fresh = config.clone();
    fresh.fresh = true;
    let outcome = run(
        diamond(base_runs.clone(), left_runs.clone(), join_runs.clone()),
        &fresh,
    )
    .unwrap();
    assert_eq!(outcome.report.count(JobStatus::Ran), 4);
    assert_eq!(base_runs.load(Ordering::SeqCst), 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn input_change_invalidates_exactly_the_downstream_slice() {
    let dir = test_dir("invalidate");
    let config = quiet_config(&dir);

    let build = |left_hash: u64, left_runs: Arc<AtomicUsize>, join_runs: Arc<AtomicUsize>| {
        let mut c = Campaign::new();
        c.output("left", &[], left_hash, move |_| {
            left_runs.fetch_add(1, Ordering::SeqCst);
            Ok(format!("left#{left_hash}\n"))
        });
        c.output("right", &[], 7, |_| Ok("right\n".to_string()));
        c.output("join", &["left", "right"], 0, move |ctx| {
            join_runs.fetch_add(1, Ordering::SeqCst);
            Ok(format!(
                "{}{}",
                ctx.value::<String>("left"),
                ctx.value::<String>("right")
            ))
        });
        c
    };

    let (l1, j1) = (counter(), counter());
    run(build(1, l1.clone(), j1.clone()), &config).unwrap();
    assert_eq!(l1.load(Ordering::SeqCst), 1);

    // Changing left's inputs reruns left and join, but right hits.
    let (l2, j2) = (counter(), counter());
    let outcome = run(build(2, l2.clone(), j2.clone()), &config).unwrap();
    assert_eq!(job(&outcome.report, "left").status, JobStatus::Ran);
    assert_eq!(job(&outcome.report, "join").status, JobStatus::Ran);
    assert_eq!(job(&outcome.report, "right").status, JobStatus::Hit);
    assert_eq!(
        std::fs::read_to_string(dir.join("join.txt")).unwrap(),
        "left#2\nright\n"
    );

    // Salt changes (pass-library fingerprint) invalidate everything.
    let (l3, j3) = (counter(), counter());
    let mut salted = config.clone();
    salted.salt = 99;
    let outcome = run(build(2, l3.clone(), j3.clone()), &salted).unwrap();
    assert_eq!(outcome.report.count(JobStatus::Ran), 3);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn failure_poisons_only_dependents_after_one_attempt() {
    let attempts = counter();
    let mut c = Campaign::new();
    let attempts_in_job = attempts.clone();
    c.output("broken", &[], 0, move |_| {
        attempts_in_job.fetch_add(1, Ordering::SeqCst);
        Err::<String, _>("always fails".to_string())
    });
    c.output("victim", &["broken"], 0, |ctx| {
        Ok(ctx.value::<String>("broken").to_string())
    });
    c.output("grand_victim", &["victim"], 0, |ctx| {
        Ok(ctx.value::<String>("victim").to_string())
    });
    c.output("bystander", &[], 0, |_| Ok("fine\n".to_string()));

    let dir = test_dir("poison");
    let outcome = run(c, &quiet_config(&dir)).unwrap();
    let report = &outcome.report;
    assert!(!report.success());
    assert_eq!(job(report, "broken").status, JobStatus::Failed);
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "a failed job is not retried"
    );
    assert!(job(report, "broken")
        .error
        .as_deref()
        .unwrap()
        .contains("always fails"));
    assert_eq!(job(report, "victim").status, JobStatus::Poisoned);
    assert_eq!(job(report, "grand_victim").status, JobStatus::Poisoned);
    assert_eq!(
        job(report, "grand_victim").poisoned_by.as_deref(),
        Some("broken")
    );
    assert_eq!(job(report, "bystander").status, JobStatus::Ran);
    assert!(dir.join("bystander.txt").exists());
    assert!(!dir.join("victim.txt").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn panics_are_caught_and_fail_the_job_once() {
    let attempts = counter();
    let mut c = Campaign::new();
    let attempts_in_job = attempts.clone();
    c.output("panicky", &[], 0, move |_| -> Result<String, String> {
        attempts_in_job.fetch_add(1, Ordering::SeqCst);
        panic!("explosion");
    });
    c.output("victim", &["panicky"], 0, |ctx| {
        Ok(ctx.value::<String>("panicky").to_string())
    });
    c.output("bystander", &[], 0, |_| Ok("fine\n".to_string()));
    let dir = test_dir("panic");
    let outcome = run(c, &quiet_config(&dir)).unwrap();
    let report = &outcome.report;
    let panicky = job(report, "panicky");
    assert_eq!(panicky.status, JobStatus::Failed);
    assert_eq!(panicky.error.as_deref(), Some("panic: explosion"));
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "a panicking job is not retried"
    );
    assert_eq!(job(report, "victim").status, JobStatus::Poisoned);
    assert_eq!(job(report, "bystander").status, JobStatus::Ran);
    assert!(!dir.join("panicky.txt").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn only_selection_runs_the_dependency_closure_and_skips_the_rest() {
    let (base_runs, left_runs, join_runs) = (counter(), counter(), counter());
    let dir = test_dir("only");
    let mut config = quiet_config(&dir);
    config.only = vec!["left".to_string()];
    let outcome = run(
        diamond(base_runs.clone(), left_runs.clone(), join_runs.clone()),
        &config,
    )
    .unwrap();
    assert_eq!(job(&outcome.report, "base").status, JobStatus::Ran);
    assert_eq!(job(&outcome.report, "left").status, JobStatus::Ran);
    assert_eq!(job(&outcome.report, "right").status, JobStatus::Skipped);
    assert_eq!(job(&outcome.report, "join").status, JobStatus::Skipped);
    assert_eq!(join_runs.load(Ordering::SeqCst), 0);
    assert!(dir.join("left.txt").exists());
    assert!(!dir.join("join.txt").exists());

    // A full run after the partial one — the state an interrupted
    // campaign leaves — hits the persisted output, runs the rest, and
    // converges to a cold full run's outputs byte for byte.
    config.only.clear();
    let outcome = run(
        diamond(base_runs.clone(), left_runs.clone(), join_runs.clone()),
        &config,
    )
    .unwrap();
    assert!(outcome.report.success(), "{}", outcome.report.summary());
    assert_eq!(job(&outcome.report, "left").status, JobStatus::Hit);
    for id in ["base", "right", "join"] {
        assert_eq!(job(&outcome.report, id).status, JobStatus::Ran, "{id}");
    }
    assert_eq!(left_runs.load(Ordering::SeqCst), 1, "left must not rerun");
    assert_eq!(join_runs.load(Ordering::SeqCst), 1);
    let cold_dir = test_dir("only-cold");
    run(
        diamond(counter(), counter(), counter()),
        &quiet_config(&cold_dir),
    )
    .unwrap();
    for file in ["left.txt", "right.txt", "join.txt"] {
        assert_eq!(
            std::fs::read(dir.join(file)).unwrap(),
            std::fs::read(cold_dir.join(file)).unwrap(),
            "{file}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(cold_dir);
}

/// Set in the child process that `crash_simulation_resumes_exactly_where_it_stopped`
/// spawns; names the results directory the crashing run writes to.
const CRASH_DIR_ENV: &str = "DT_CAMPAIGN_TEST_CRASH_DIR";
/// Exit code of the simulated crash.
const CRASH_EXIT: i32 = 86;

/// A serial chain stage0 -> stage1 -> stage2; `crash` makes stage1's
/// body end the whole process, as a kill or power loss would.
fn serial_chain(runs: [Arc<AtomicUsize>; 3], crash: bool) -> Campaign {
    let mut c = Campaign::new();
    let [r0, r1, r2] = runs;
    c.output("stage0", &[], 0, move |_| {
        r0.fetch_add(1, Ordering::SeqCst);
        Ok("s0\n".to_string())
    });
    c.output("stage1", &["stage0"], 0, move |ctx| {
        if crash {
            std::process::exit(CRASH_EXIT);
        }
        r1.fetch_add(1, Ordering::SeqCst);
        Ok(format!("{}s1\n", ctx.value::<String>("stage0")))
    });
    c.output("stage2", &["stage1"], 0, move |ctx| {
        r2.fetch_add(1, Ordering::SeqCst);
        Ok(format!("{}s2\n", ctx.value::<String>("stage1")))
    });
    c
}

#[test]
fn crash_simulation_resumes_exactly_where_it_stopped() {
    if let Some(dir) = std::env::var_os(CRASH_DIR_ENV) {
        // Child: the process dies inside stage1, after stage0 persisted.
        let dir = PathBuf::from(dir);
        let runs = [counter(), counter(), counter()];
        let _ = run(serial_chain(runs, true), &quiet_config(&dir));
        unreachable!("stage1 ends the process");
    }

    // Parent: crash a real campaign process mid-run.
    let dir = test_dir("crash");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "crash_simulation_resumes_exactly_where_it_stopped",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(CRASH_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(CRASH_EXIT),
        "the child must crash in stage1"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("stage0.txt")).unwrap(),
        "s0\n"
    );
    assert!(!dir.join("stage1.txt").exists());
    assert!(!dir.join("stage2.txt").exists());

    // Resume: the finished prefix hits, only the tail runs.
    let runs = [counter(), counter(), counter()];
    let outcome = run(serial_chain(runs.clone(), false), &quiet_config(&dir)).unwrap();
    assert!(outcome.report.success(), "{}", outcome.report.summary());
    assert_eq!(job(&outcome.report, "stage0").status, JobStatus::Hit);
    assert_eq!(job(&outcome.report, "stage1").status, JobStatus::Ran);
    assert_eq!(job(&outcome.report, "stage2").status, JobStatus::Ran);
    let [r0, r1, r2] = runs;
    assert_eq!(r0.load(Ordering::SeqCst), 0, "stage0 must not rerun");
    assert_eq!(r1.load(Ordering::SeqCst), 1);
    assert_eq!(r2.load(Ordering::SeqCst), 1);
    assert_eq!(
        std::fs::read_to_string(dir.join("stage2.txt")).unwrap(),
        "s0\ns1\ns2\n"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn journal_records_hits_misses_and_failures() {
    let dir = test_dir("journal");
    let config = quiet_config(&dir);
    let build = || {
        let mut c = Campaign::new();
        c.output("good", &[], 0, |_| Ok("ok\n".to_string()));
        c.output("bad", &[], 0, |_| Err::<String, _>("nope".to_string()));
        c
    };
    run(build(), &config).unwrap();
    run(build(), &config).unwrap();

    // Records are flat JSON objects in field declaration order, so
    // the lines can be matched as text.
    let journal = std::fs::read_to_string(dir.join(".cache/journal.jsonl")).unwrap();
    let finishes = |job: &str, status: &str| -> Vec<&str> {
        let prefix = format!(r#"{{"kind":"job_finish","job":"{job}","#);
        let status = format!(r#""status":"{status}","#);
        journal
            .lines()
            .filter(|l| l.starts_with(&prefix) && l.contains(&status))
            .collect()
    };
    let ran = finishes("good", "ran");
    let hit = finishes("good", "hit");
    assert_eq!(ran.len(), 1, "{journal}");
    assert_eq!(hit.len(), 1, "{journal}");
    // `bad` fails in both runs (failures are never cached).
    let failed = finishes("bad", "failed");
    assert_eq!(failed.len(), 2, "{journal}");
    assert!(failed[0].contains(r#""error":"nope""#), "{}", failed[0]);
    assert!(ran[0].contains(r#""status":"ran","cache_hit":false"#));
    assert!(hit[0].contains(r#""status":"hit","cache_hit":true"#));
    // Both `good` records carry the same non-empty fingerprint.
    let fingerprint = |line: &str| -> String {
        let start = line.find(r#""fingerprint":""#).unwrap() + r#""fingerprint":""#.len();
        line[start..start + 16].to_string()
    };
    assert!(fingerprint(ran[0]).chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(fingerprint(hit[0]), fingerprint(ran[0]));
    let kinds = |kind: &str| {
        let prefix = format!(r#"{{"kind":"{kind}","#);
        journal.lines().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!(kinds("campaign_start"), 2);
    assert_eq!(kinds("campaign_finish"), 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn values_flow_and_are_accessible_after_the_run() {
    let mut c = Campaign::new();
    c.artifact("numbers", &[], 0, |_| Ok::<_, String>(vec![1u32, 2, 3]));
    c.output("sum", &["numbers"], 0, |ctx| {
        let numbers = ctx.value::<Vec<u32>>("numbers");
        Ok(format!("{}\n", numbers.iter().sum::<u32>()))
    });
    let dir = test_dir("values");
    let outcome = run(c, &quiet_config(&dir)).unwrap();
    assert_eq!(
        outcome.value::<Vec<u32>>("numbers").unwrap().as_slice(),
        [1, 2, 3]
    );
    assert_eq!(outcome.value::<String>("sum").unwrap().as_str(), "6\n");
    let _ = std::fs::remove_dir_all(dir);
}
