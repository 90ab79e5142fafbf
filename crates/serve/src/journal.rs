//! Crash-recovery journal for the job service.
//!
//! The daemon appends one fsynced JSON line for each lifecycle
//! [`Transition`] a restart needs: `submitted` for an admission
//! (carrying the full spec), `attempt` for a re-queue after a transient
//! failure (carrying the retry ordinal, reason, and backoff), and
//! `finished` for a terminal outcome. `running` and `drained` write
//! nothing. A daemon killed mid-job therefore leaves a journal whose
//! `submitted`-without-`finished` entries are exactly the jobs that
//! still owe work; a restart with `--resume-dir` re-adopts them
//! (re-enqueues, in the original submit order, with their retry budget
//! already spent) and replays terminal entries into the job table as
//! history.
//!
//! The file is a [`spindle_obs::jsonl`] log, so it has the same damage
//! policy as the bench checkpoint journal: a torn *final* line (what
//! SIGKILL mid-write leaves) is ignored, damage before the last
//! well-formed record is an error. A well-formed submission whose spec
//! this version rejects (a job kind that no longer exists, say) is not
//! damage: loading refuses, naming the job and the rejection, wherever
//! the line sits.

use crate::job::{JobState, Transition};
use crate::spec::{JobSpec, SpecError};
use spindle_obs::json::Json;
use spindle_obs::jsonl::{self, AppendLog};
use std::path::Path;

/// Schema tag on the journal's header line.
pub const JOURNAL_SCHEMA: &str = "spindle-serve-journal/v1";

/// File name of the journal inside the serve directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One job reconstructed from the journal, in submit order.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedJob {
    /// The job id (`job-0001`, ...).
    pub id: String,
    /// The spec it was admitted with.
    pub spec: JobSpec,
    /// Retries the job had consumed (highest journaled `attempt`).
    pub attempts: u32,
    /// Terminal outcome, `None` for jobs still owing work.
    pub finished: Option<Finished>,
}

/// A journaled terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// The terminal state (done/failed/cancelled).
    pub state: JobState,
    /// Child exit code when one was observed.
    pub exit: Option<i32>,
    /// Wall seconds the job ran.
    pub secs: f64,
}

/// Append-side journal handle; every event is fsynced before the
/// daemon acts on it.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Opens the journal at `path` for appending, creating it with a
    /// header line when missing. The caller decides whether an existing
    /// journal may be continued.
    ///
    /// # Errors
    ///
    /// Propagates open and header-write failures.
    pub fn open(path: &Path) -> Result<Journal, String> {
        let header = Json::Obj(vec![(
            "schema".to_owned(),
            Json::Str(JOURNAL_SCHEMA.to_owned()),
        )]);
        let log = AppendLog::open(path, &header)
            .map_err(|e| format!("cannot open journal `{}`: {e}", path.display()))?;
        Ok(Journal { log })
    }

    /// Appends the line `t` writes for job `id`, if any, fsynced.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn append(&mut self, id: &str, spec: &JobSpec, t: &Transition) -> Result<(), String> {
        let (event, mut fields) = match t {
            Transition::Queued { retry: None, .. } => ("submitted", vec![("spec", spec.to_json())]),
            // A failed attempt's wall seconds let `/jobs/ID/trace`
            // consumers cross-check attempt spans against the journal.
            // Replay ignores them (parse reads only id + attempt), so
            // the schema stays forward- and backward-compatible.
            Transition::Queued { retry: Some(r), .. } => (
                "attempt",
                [t.fields(), vec![("secs", Json::Num(r.secs))]].concat(),
            ),
            Transition::Terminal(_) => ("finished", t.fields()),
            Transition::Running { .. } | Transition::Drained => return Ok(()),
        };
        fields.splice(
            0..0,
            [
                ("event", Json::Str(event.to_owned())),
                ("id", Json::Str(id.to_owned())),
            ],
        );
        let doc = Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        self.log
            .append(&doc)
            .map_err(|e| format!("cannot journal the `{event}` of `{id}`: {e}"))
    }
}

/// Loads a journal: jobs in submit order, terminal outcomes attached.
///
/// # Errors
///
/// Fails on a missing/invalid header, on damage before the final line,
/// on a submission whose spec this version rejects, and on events
/// referencing unknown job ids.
pub fn load(path: &Path) -> Result<Vec<LoadedJob>, String> {
    let log = jsonl::read(path, "journal", JOURNAL_SCHEMA, parse_event)?;
    let mut jobs: Vec<LoadedJob> = Vec::new();
    for (line_no, event) in log.records {
        match event {
            Event::Submitted(id, spec) => {
                if jobs.iter().any(|j| j.id == id) {
                    return Err(format!(
                        "journal `{}` line {line_no}: job `{id}` submitted twice",
                        path.display()
                    ));
                }
                jobs.push(LoadedJob {
                    id,
                    spec: *spec,
                    attempts: 0,
                    finished: None,
                });
            }
            Event::Rejected(id, e) => {
                return Err(format!(
                    "journal `{}` line {line_no}: job `{id}` has a spec this version \
                     rejects ({e}); resume with the version that wrote it, or start \
                     a fresh --dir",
                    path.display()
                ));
            }
            Event::Attempt(id, attempt) => {
                let Some(job) = jobs.iter_mut().find(|j| j.id == id) else {
                    return Err(format!(
                        "journal `{}` line {line_no}: job `{id}` retried but never submitted",
                        path.display()
                    ));
                };
                job.attempts = job.attempts.max(attempt);
            }
            Event::Finished(id, finished) => {
                let Some(job) = jobs.iter_mut().find(|j| j.id == id) else {
                    return Err(format!(
                        "journal `{}` line {line_no}: job `{id}` finished but never submitted",
                        path.display()
                    ));
                };
                // Last outcome wins (a re-adopted job finishes again).
                job.finished = Some(finished);
            }
        }
    }
    Ok(jobs)
}

enum Event {
    Submitted(String, Box<JobSpec>),
    /// A well-formed submission whose spec fails validation.
    Rejected(String, SpecError),
    Attempt(String, u32),
    Finished(String, Finished),
}

fn parse_event(doc: &Json) -> Option<Event> {
    let id = doc.get("id")?.as_str()?.to_owned();
    match doc.get("event")?.as_str()? {
        "submitted" => Some(match JobSpec::from_json(doc.get("spec")?) {
            Ok(spec) => Event::Submitted(id, Box::new(spec)),
            Err(e) => Event::Rejected(id, e),
        }),
        "attempt" => {
            let attempt = u32::try_from(doc.get("attempt")?.as_u64()?).ok()?;
            Some(Event::Attempt(id, attempt))
        }
        "finished" => {
            let state = JobState::parse(doc.get("state")?.as_str()?)?;
            if !state.is_terminal() {
                return None;
            }
            let exit = doc.get("exit").and_then(Json::as_i64);
            let exit = exit.and_then(|c| i32::try_from(c).ok());
            let secs = doc.get("secs")?.as_f64()?;
            Some(Event::Finished(id, Finished { state, exit, secs }))
        }
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::{Outcome, Retry};

    fn spec() -> JobSpec {
        JobSpec::parse(r#"{"kind":"generate","env":"web","span":30,"seed":5}"#).unwrap()
    }

    /// Journals the admission of `id` with `spec`.
    pub(crate) fn submitted(journal: &mut Journal, id: &str, spec: &JobSpec) {
        let t = Transition::Queued {
            attempt: 0,
            retry: None,
        };
        journal.append(id, spec, &t).unwrap();
    }

    /// Journals a retry of `id`.
    fn attempt(journal: &mut Journal, id: &str, attempt: u32, reason: &str, backoff_ms: u64) {
        let retry = Retry {
            reason: reason.to_owned(),
            backoff_ms,
            secs: 0.5,
        };
        let t = Transition::Queued {
            attempt,
            retry: Some(retry),
        };
        journal.append(id, &spec(), &t).unwrap();
    }

    /// Journals the terminal outcome of `id`.
    pub(crate) fn finished(journal: &mut Journal, id: &str, state: JobState, secs: f64) {
        let t = Transition::Terminal(Outcome {
            state,
            exit: Some(if state == JobState::Done { 0 } else { 101 }),
            secs,
            error: None,
        });
        journal.append(id, &spec(), &t).unwrap();
    }

    #[test]
    fn round_trips_submissions_and_outcomes() {
        let dir = std::env::temp_dir().join(format!("serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut journal = Journal::open(&path).unwrap();
        submitted(&mut journal, "job-0001", &spec());
        submitted(&mut journal, "job-0002", &spec());
        finished(&mut journal, "job-0001", JobState::Done, 1.5);
        drop(journal);

        let jobs = load(&path).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "job-0001");
        assert_eq!(
            jobs[0].finished,
            Some(Finished {
                state: JobState::Done,
                exit: Some(0),
                secs: 1.5
            })
        );
        assert_eq!(jobs[1].id, "job-0002");
        assert_eq!(jobs[1].finished, None, "job-0002 still owes work");
        assert_eq!(jobs[1].spec, spec());

        // Re-open for append (the resume path) and finish the orphan.
        let mut journal = Journal::open(&path).unwrap();
        finished(&mut journal, "job-0002", JobState::Failed, 0.5);
        drop(journal);
        let jobs = load(&path).unwrap();
        assert_eq!(
            jobs[1].finished.as_ref().map(|f| f.state),
            Some(JobState::Failed)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored_but_mid_file_damage_is_an_error() {
        let dir = std::env::temp_dir().join(format!("serve-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut journal = Journal::open(&path).unwrap();
        submitted(&mut journal, "job-0001", &spec());
        drop(journal);

        // A SIGKILL mid-write leaves a torn final line: harmless.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"event\":\"submitted\",\"id\":\"job-00");
        std::fs::write(&path, &text).unwrap();
        let jobs = load(&path).unwrap();
        assert_eq!(jobs.len(), 1);

        // Damage *before* a well-formed record must refuse to load.
        let good_line = "{\"event\":\"finished\",\"id\":\"job-0001\",\
                         \"state\":\"done\",\"exit\":0,\"secs\":1.0}\n";
        text.push('\n');
        text.push_str(good_line);
        std::fs::write(&path, &text).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("damaged"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attempt_records_replay_and_tolerate_a_torn_tail() {
        let dir =
            std::env::temp_dir().join(format!("serve-journal-attempt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut journal = Journal::open(&path).unwrap();
        submitted(&mut journal, "job-0001", &spec());
        attempt(&mut journal, "job-0001", 1, "child killed by signal", 512);
        attempt(&mut journal, "job-0001", 2, "telemetry stalled", 1024);
        drop(journal);

        let jobs = load(&path).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].attempts, 2, "highest attempt ordinal wins");
        assert_eq!(jobs[0].finished, None);

        // SIGKILL mid-append can tear the *attempt* record too: the
        // torn tail is dropped, the replayed retry count is what the
        // intact prefix says, and the surviving bytes are untouched.
        let intact = std::fs::read_to_string(&path).unwrap();
        let torn = format!("{intact}{{\"event\":\"attempt\",\"id\":\"job-0001\",\"atte");
        std::fs::write(&path, &torn).unwrap();
        let jobs = load(&path).unwrap();
        assert_eq!(jobs[0].attempts, 2, "torn attempt record is ignored");
        let reread = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            reread.as_bytes(),
            torn.as_bytes(),
            "loading never rewrites the journal"
        );
        assert!(reread.as_bytes().starts_with(intact.as_bytes()));

        // An attempt for an unknown id is a structured refusal.
        std::fs::remove_file(&path).unwrap();
        let mut bad = Journal::open(&path).unwrap();
        attempt(&mut bad, "job-0404", 1, "ghost", 1);
        drop(bad);
        assert!(load(&path).unwrap_err().contains("never submitted"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_removed_job_kind_refuses_to_load_wherever_its_line_sits() {
        let dir = std::env::temp_dir().join(format!("serve-journal-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let header = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n");
        let good = "{\"event\":\"submitted\",\"id\":\"job-0001\",\
                    \"spec\":{\"kind\":\"generate\",\"env\":\"web\"}}\n";
        let observe = "{\"event\":\"submitted\",\"id\":\"job-0002\",\
                       \"spec\":{\"kind\":\"observe\",\"input\":\"t.bin\",\"format\":\"md\"}}\n";
        let finished = "{\"event\":\"finished\",\"id\":\"job-0001\",\
                        \"state\":\"done\",\"exit\":0,\"secs\":1.0}\n";
        // The observe job as the final line, then followed by a record.
        for body in [
            format!("{good}{observe}"),
            format!("{good}{observe}{finished}"),
        ] {
            std::fs::write(&path, format!("{header}{body}")).unwrap();
            let err = load(&path).unwrap_err();
            assert!(err.contains("line 3: job `job-0002`"), "{err}");
            assert!(err.contains("unknown kind `observe`"), "{err}");
            assert!(!err.contains("damaged"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_and_reference_damage_are_structured_errors() {
        let dir = std::env::temp_dir().join(format!("serve-journal-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);

        std::fs::write(&path, "").unwrap();
        assert!(load(&path).unwrap_err().contains("empty"));
        std::fs::write(&path, "{\"schema\":\"other/v9\"}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("unrecognized schema"));
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n{{\"event\":\"finished\",\
                 \"id\":\"job-0009\",\"state\":\"done\",\"exit\":0,\"secs\":1.0}}\n"
            ),
        )
        .unwrap();
        assert!(load(&path).unwrap_err().contains("never submitted"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
