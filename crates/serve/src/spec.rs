//! Job specifications: the JSON body of `POST /jobs`.
//!
//! A spec names one of the existing CLI verbs (`simulate`, `analyze`,
//! `generate`, `matrix`) plus its parameters, and the
//! server turns an accepted spec into the exact argv the `spindle` (or
//! `experiments`) binary would receive on the command line. The
//! mapping is deterministic — the same spec always produces the same
//! argv — which is what makes a job's captured stdout byte-identical
//! to running the verb directly.
//!
//! Validation is strict and structured: every rejection names the
//! offending field (or the byte offset for JSON-level damage) so a
//! client gets `{"error": ..., "field": ...}` back, and hostile specs
//! can never panic the server (see the test battery at the bottom).

use spindle_obs::json::Json;
use std::fmt;
use std::path::Path;

/// Upper bound on a spec's `jobs` (worker threads inside one job);
/// matches nothing in the engine but keeps a hostile spec from asking
/// the child for millions of threads.
pub const MAX_JOB_THREADS: usize = 512;

/// Upper bound on `span` seconds for `generate` jobs: a week of
/// synthetic trace is the largest thing the service will produce.
pub const MAX_SPAN_SECS: u64 = 7 * 24 * 3600;

/// A structured spec rejection: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field, or `"(body)"` for JSON-level damage.
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl SpecError {
    fn new(field: &str, message: impl Into<String>) -> SpecError {
        SpecError {
            field: field.to_owned(),
            message: message.into(),
        }
    }

    /// Renders the error as the JSON body of a 400 response.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("error".to_owned(), Json::Str(self.message.clone())),
            ("field".to_owned(), Json::Str(self.field.clone())),
        ])
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which CLI verb a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `spindle simulate --in FILE ...`
    Simulate,
    /// `spindle analyze --in FILE ...`
    Analyze,
    /// `spindle generate --env ENV ...` (trace to stdout)
    Generate,
    /// the `experiments` matrix binary
    Matrix,
}

impl JobKind {
    /// The verb as spelled in specs and job listings.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Analyze => "analyze",
            JobKind::Generate => "generate",
            JobKind::Matrix => "matrix",
        }
    }

    fn parse(s: &str) -> Option<JobKind> {
        match s {
            "simulate" => Some(JobKind::Simulate),
            "analyze" => Some(JobKind::Analyze),
            "generate" => Some(JobKind::Generate),
            "matrix" => Some(JobKind::Matrix),
            _ => None,
        }
    }
}

/// A validated job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The CLI verb to run.
    pub kind: JobKind,
    /// `generate`: workload environment (mail/web/dev/archive).
    pub env: Option<String>,
    /// `generate`: trace span in seconds.
    pub span: Option<u64>,
    /// `generate`: RNG seed.
    pub seed: Option<u64>,
    /// `simulate`/`analyze`: input trace path (on the server's
    /// filesystem).
    pub input: Option<String>,
    /// Drive profile name, passed through to the verb.
    pub profile: Option<String>,
    /// Scheduler policy, passed through to the verb.
    pub scheduler: Option<String>,
    /// `simulate`: disable the write-back cache.
    pub no_write_back: bool,
    /// `matrix`: experiment ids to run (empty = the full matrix).
    pub ids: Vec<String>,
    /// `matrix`: quick mode.
    pub quick: bool,
    /// Worker threads inside the job (`--jobs N`).
    pub jobs: Option<usize>,
    /// Lenient trace parsing (`--lenient`).
    pub lenient: bool,
    /// Deterministic fault-injection spec (`--faults`), validated
    /// against the harden grammar at admission.
    pub faults: Option<String>,
    /// Capture a metrics dump as the `metrics.json` artifact.
    pub metrics: bool,
    /// Capture a flight-recorder export as the `trace.json` artifact.
    pub trace: bool,
    /// `matrix`: capture the rollup document as `timescales.json`.
    pub timescales: bool,
    /// Wall-clock budget per attempt in seconds; the watchdog kills
    /// the child past it (`timed_out`). Defaults to the daemon's
    /// `--default-deadline` and is clamped by `--max-deadline`.
    pub deadline_secs: Option<u64>,
}

/// Which kinds a field applies to, for the applicability check.
fn applicable(kind: JobKind, field: &str) -> bool {
    use JobKind::{Analyze, Generate, Matrix, Simulate};
    match field {
        "env" | "span" | "seed" => kind == Generate,
        "input" | "profile" | "lenient" => matches!(kind, Simulate | Analyze),
        "scheduler" | "no_write_back" => kind == Simulate,
        "ids" | "quick" | "timescales" => kind == Matrix,
        _ => true, // kind, jobs, faults, metrics, trace, deadline_secs
    }
}

fn expect_str(field: &str, v: &Json) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| SpecError::new(field, "expected a string"))
}

fn expect_u64(field: &str, v: &Json) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| SpecError::new(field, "expected a non-negative integer"))
}

fn expect_bool(field: &str, v: &Json) -> Result<bool, SpecError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(SpecError::new(field, "expected true or false")),
    }
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` body.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the field (or the byte offset of
    /// JSON-level damage under the pseudo-field `"(body)"`).
    pub fn parse(body: &str) -> Result<JobSpec, SpecError> {
        let doc =
            spindle_obs::json::parse(body).map_err(|e| SpecError::new("(body)", format!("{e}")))?;
        JobSpec::from_json(&doc)
    }

    /// Validates an already-parsed JSON document as a job spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    #[allow(clippy::too_many_lines)]
    pub fn from_json(doc: &Json) -> Result<JobSpec, SpecError> {
        let Json::Obj(members) = doc else {
            return Err(SpecError::new("(body)", "job spec must be a JSON object"));
        };
        // Duplicate keys would make "last wins" silently drop data.
        for (i, (k, _)) in members.iter().enumerate() {
            if members.iter().skip(i + 1).any(|(other, _)| other == k) {
                return Err(SpecError::new(k, "duplicate field"));
            }
        }
        let field = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);

        let kind_value = field("kind").ok_or_else(|| {
            SpecError::new(
                "kind",
                "required; one of simulate, analyze, generate, matrix",
            )
        })?;
        let kind_str = expect_str("kind", kind_value)?;
        let kind = JobKind::parse(&kind_str).ok_or_else(|| {
            SpecError::new(
                "kind",
                format!("unknown kind `{kind_str}`; one of simulate, analyze, generate, matrix"),
            )
        })?;

        const KNOWN: &[&str] = &[
            "kind",
            "env",
            "span",
            "seed",
            "input",
            "profile",
            "scheduler",
            "no_write_back",
            "ids",
            "quick",
            "jobs",
            "lenient",
            "faults",
            "metrics",
            "trace",
            "timescales",
            "deadline_secs",
        ];
        for (k, _) in members {
            if !KNOWN.contains(&k.as_str()) {
                return Err(SpecError::new(k, "unknown field"));
            }
            if !applicable(kind, k) {
                return Err(SpecError::new(
                    k,
                    format!("not applicable to kind `{}`", kind.as_str()),
                ));
            }
        }

        let mut spec = JobSpec {
            kind,
            env: None,
            span: None,
            seed: None,
            input: None,
            profile: None,
            scheduler: None,
            no_write_back: false,
            ids: Vec::new(),
            quick: false,
            jobs: None,
            lenient: false,
            faults: None,
            metrics: false,
            trace: false,
            timescales: false,
            deadline_secs: None,
        };

        if let Some(v) = field("env") {
            let env = expect_str("env", v)?;
            if !matches!(env.as_str(), "mail" | "web" | "dev" | "archive") {
                return Err(SpecError::new(
                    "env",
                    format!("unknown environment `{env}`; one of mail, web, dev, archive"),
                ));
            }
            spec.env = Some(env);
        }
        if let Some(v) = field("span") {
            let span = expect_u64("span", v)?;
            if span == 0 || span > MAX_SPAN_SECS {
                return Err(SpecError::new(
                    "span",
                    format!("must be between 1 and {MAX_SPAN_SECS} seconds"),
                ));
            }
            spec.span = Some(span);
        }
        if let Some(v) = field("seed") {
            spec.seed = Some(expect_u64("seed", v)?);
        }
        if let Some(v) = field("input") {
            let input = expect_str("input", v)?;
            if input.is_empty() {
                return Err(SpecError::new("input", "must not be empty"));
            }
            spec.input = Some(input);
        }
        if let Some(v) = field("profile") {
            spec.profile = Some(expect_str("profile", v)?);
        }
        if let Some(v) = field("scheduler") {
            spec.scheduler = Some(expect_str("scheduler", v)?);
        }
        if let Some(v) = field("no_write_back") {
            spec.no_write_back = expect_bool("no_write_back", v)?;
        }
        if let Some(v) = field("ids") {
            let Json::Arr(items) = v else {
                return Err(SpecError::new("ids", "expected an array of experiment ids"));
            };
            for item in items {
                let id = expect_str("ids", item)?;
                let ok = !id.is_empty()
                    && id
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                if !ok {
                    return Err(SpecError::new(
                        "ids",
                        format!("invalid experiment id `{id}`"),
                    ));
                }
                spec.ids.push(id);
            }
        }
        if let Some(v) = field("quick") {
            spec.quick = expect_bool("quick", v)?;
        }
        if let Some(v) = field("jobs") {
            let jobs = expect_u64("jobs", v)?;
            if jobs == 0 || jobs > MAX_JOB_THREADS as u64 {
                return Err(SpecError::new(
                    "jobs",
                    format!("must be between 1 and {MAX_JOB_THREADS}"),
                ));
            }
            spec.jobs = Some(usize::try_from(jobs).expect("bounded above"));
        }
        if let Some(v) = field("lenient") {
            spec.lenient = expect_bool("lenient", v)?;
        }
        if let Some(v) = field("faults") {
            let faults = expect_str("faults", v)?;
            // Validate against the real harden grammar so a bad spec
            // fails at admission, not minutes later inside the child.
            let plan = spindle_harden::FaultPlan::parse(&faults)
                .map_err(|e| SpecError::new("faults", e))?;
            spec.faults = Some(plan.spec());
        }
        if let Some(v) = field("metrics") {
            spec.metrics = expect_bool("metrics", v)?;
        }
        if let Some(v) = field("trace") {
            spec.trace = expect_bool("trace", v)?;
        }
        if let Some(v) = field("timescales") {
            spec.timescales = expect_bool("timescales", v)?;
        }
        if let Some(v) = field("deadline_secs") {
            let deadline = expect_u64("deadline_secs", v)?;
            if deadline == 0 {
                return Err(SpecError::new("deadline_secs", "must be at least 1 second"));
            }
            spec.deadline_secs = Some(deadline);
        }

        // Cross-field requirements.
        match kind {
            JobKind::Generate => {
                if spec.env.is_none() {
                    return Err(SpecError::new("env", "required for kind `generate`"));
                }
            }
            JobKind::Simulate | JobKind::Analyze => {
                if spec.input.is_none() {
                    return Err(SpecError::new(
                        "input",
                        format!("required for kind `{}`", kind.as_str()),
                    ));
                }
            }
            JobKind::Matrix => {}
        }
        Ok(spec)
    }

    /// Whether the job runs on the `experiments` binary rather than
    /// the `spindle` CLI.
    #[must_use]
    pub fn uses_experiments(&self) -> bool {
        self.kind == JobKind::Matrix
    }

    /// The argv (after the program name) this spec maps onto, with
    /// artifact outputs rooted in `dir`. Deterministic: field order is
    /// fixed, so equal specs produce equal argv.
    #[must_use]
    pub fn argv(&self, dir: &Path) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        let artifact = |name: &str| dir.join(name).to_string_lossy().into_owned();
        match self.kind {
            JobKind::Generate => {
                args.push("generate".to_owned());
                args.push("--env".to_owned());
                args.push(self.env.clone().expect("validated"));
                if let Some(span) = self.span {
                    args.push("--span".to_owned());
                    args.push(span.to_string());
                }
                if let Some(seed) = self.seed {
                    args.push("--seed".to_owned());
                    args.push(seed.to_string());
                }
            }
            JobKind::Simulate | JobKind::Analyze => {
                args.push(self.kind.as_str().to_owned());
                args.push("--in".to_owned());
                args.push(self.input.clone().expect("validated"));
                if let Some(p) = &self.profile {
                    args.push("--profile".to_owned());
                    args.push(p.clone());
                }
                if let Some(s) = &self.scheduler {
                    args.push("--scheduler".to_owned());
                    args.push(s.clone());
                }
                if self.no_write_back {
                    args.push("--no-write-back".to_owned());
                }
            }
            JobKind::Matrix => {
                if self.quick {
                    args.push("--quick".to_owned());
                }
                args.extend(self.ids.iter().cloned());
                if self.timescales {
                    args.push("--timescales-out".to_owned());
                    args.push(artifact("timescales.json"));
                }
                // Always journal completions into the job dir: a
                // retried attempt resumes past already-finished
                // experiments instead of redoing (or re-dying on)
                // them, and stdout stays byte-identical to an
                // uninterrupted run.
                args.push("--resume".to_owned());
                args.push(artifact("resume.jsonl"));
            }
        }
        if let Some(jobs) = self.jobs {
            args.push("--jobs".to_owned());
            args.push(jobs.to_string());
        }
        if self.lenient {
            args.push("--lenient".to_owned());
        }
        if let Some(faults) = &self.faults {
            args.push("--faults".to_owned());
            args.push(faults.clone());
        }
        if self.metrics {
            args.push("--metrics=json".to_owned());
            args.push("--metrics-out".to_owned());
            args.push(artifact("metrics.json"));
        }
        if self.trace {
            args.push("--trace-out".to_owned());
            args.push(artifact("trace.json"));
        }
        args
    }

    /// The spec as JSON (the `spec.json` artifact and journal payload);
    /// round-trips through [`JobSpec::from_json`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("kind".to_owned(), Json::Str(self.kind.as_str().to_owned()))];
        let mut push_str = |name: &str, v: &Option<String>| {
            if let Some(s) = v {
                members.push((name.to_owned(), Json::Str(s.clone())));
            }
        };
        push_str("env", &self.env);
        push_str("input", &self.input);
        push_str("profile", &self.profile);
        push_str("scheduler", &self.scheduler);
        push_str("faults", &self.faults);
        if let Some(span) = self.span {
            members.push(("span".to_owned(), Json::Uint(span)));
        }
        if let Some(seed) = self.seed {
            members.push(("seed".to_owned(), Json::Uint(seed)));
        }
        if let Some(jobs) = self.jobs {
            members.push(("jobs".to_owned(), Json::Uint(jobs as u64)));
        }
        if let Some(deadline) = self.deadline_secs {
            members.push(("deadline_secs".to_owned(), Json::Uint(deadline)));
        }
        if !self.ids.is_empty() {
            members.push((
                "ids".to_owned(),
                Json::Arr(self.ids.iter().cloned().map(Json::Str).collect()),
            ));
        }
        for (name, on) in [
            ("no_write_back", self.no_write_back),
            ("quick", self.quick),
            ("lenient", self.lenient),
            ("metrics", self.metrics),
            ("trace", self.trace),
            ("timescales", self.timescales),
        ] {
            if on {
                members.push((name.to_owned(), Json::Bool(true)));
            }
        }
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn err(body: &str) -> SpecError {
        JobSpec::parse(body).expect_err("spec must be rejected")
    }

    #[test]
    fn minimal_generate_spec_round_trips() {
        let spec =
            JobSpec::parse(r#"{"kind":"generate","env":"mail","span":60,"seed":7}"#).unwrap();
        assert_eq!(spec.kind, JobKind::Generate);
        assert_eq!(spec.env.as_deref(), Some("mail"));
        assert_eq!((spec.span, spec.seed), (Some(60), Some(7)));
        let round = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
        let argv = spec.argv(&PathBuf::from("/tmp/j"));
        assert_eq!(
            argv,
            ["generate", "--env", "mail", "--span", "60", "--seed", "7"]
        );
    }

    #[test]
    fn simulate_spec_maps_flags_and_artifacts() {
        let spec = JobSpec::parse(
            r#"{"kind":"simulate","input":"t.bin","profile":"savvio-10k",
                "scheduler":"look","no_write_back":true,"jobs":2,"lenient":true,
                "metrics":true,"trace":true}"#,
        )
        .unwrap();
        let argv = spec.argv(&PathBuf::from("/d"));
        assert_eq!(
            argv,
            [
                "simulate",
                "--in",
                "t.bin",
                "--profile",
                "savvio-10k",
                "--scheduler",
                "look",
                "--no-write-back",
                "--jobs",
                "2",
                "--lenient",
                "--metrics=json",
                "--metrics-out",
                "/d/metrics.json",
                "--trace-out",
                "/d/trace.json",
            ]
        );
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn matrix_spec_maps_to_experiments_argv() {
        let spec =
            JobSpec::parse(r#"{"kind":"matrix","ids":["t2","f5"],"quick":true,"timescales":true}"#)
                .unwrap();
        assert!(spec.uses_experiments());
        let argv = spec.argv(&PathBuf::from("/d"));
        assert_eq!(
            argv,
            [
                "--quick",
                "t2",
                "f5",
                "--timescales-out",
                "/d/timescales.json",
                "--resume",
                "/d/resume.jsonl",
            ]
        );
    }

    #[test]
    fn deadline_round_trips_and_zero_is_rejected() {
        let spec = JobSpec::parse(
            r#"{"kind":"generate","env":"web","span":60,"seed":1,"deadline_secs":30}"#,
        )
        .unwrap();
        assert_eq!(spec.deadline_secs, Some(30));
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        // The deadline is supervision metadata, never child argv.
        let argv = spec.argv(&PathBuf::from("/d"));
        assert!(!argv.iter().any(|a| a.contains("deadline")), "{argv:?}");
        assert_eq!(
            err(r#"{"kind":"matrix","deadline_secs":0}"#).field,
            "deadline_secs"
        );
        assert_eq!(
            err(r#"{"kind":"matrix","deadline_secs":"soon"}"#).field,
            "deadline_secs"
        );
    }

    #[test]
    fn faults_are_validated_and_canonicalized() {
        let spec = JobSpec::parse(r#"{"kind":"matrix","quick":true,"faults":"panic@3"}"#).unwrap();
        assert_eq!(spec.faults.as_deref(), Some("panic@3"));
        let e = err(r#"{"kind":"matrix","faults":"frobnicate@1"}"#);
        assert_eq!(e.field, "faults");
    }

    #[test]
    fn json_level_damage_is_a_body_error_not_a_panic() {
        for body in [
            "",
            "{",
            "[1,2",
            "not json at all",
            r#"{"kind":"generate","env":}"#,
            "\u{0}\u{1}\u{2}",
            "{\"kind\": \"generate\", \"env\": \"mail\"",
        ] {
            let e = err(body);
            assert_eq!(e.field, "(body)", "body {body:?} -> {e}");
            assert!(!e.message.is_empty());
        }
        assert_eq!(err("[]").field, "(body)");
        assert_eq!(err("42").field, "(body)");
        assert_eq!(err("null").field, "(body)");
    }

    #[test]
    fn field_level_rejections_name_the_field() {
        for (body, field) in [
            (r#"{}"#, "kind"),
            (r#"{"kind":"frobnicate"}"#, "kind"),
            (r#"{"kind":7}"#, "kind"),
            (r#"{"kind":"generate"}"#, "env"),
            (r#"{"kind":"generate","env":"prod"}"#, "env"),
            (r#"{"kind":"generate","env":["mail"]}"#, "env"),
            (r#"{"kind":"generate","env":"mail","span":0}"#, "span"),
            (r#"{"kind":"generate","env":"mail","span":-3}"#, "span"),
            (
                r#"{"kind":"generate","env":"mail","span":9999999999}"#,
                "span",
            ),
            (r#"{"kind":"generate","env":"mail","seed":"x"}"#, "seed"),
            (r#"{"kind":"simulate"}"#, "input"),
            (r#"{"kind":"simulate","input":""}"#, "input"),
            (r#"{"kind":"simulate","input":"t.bin","jobs":0}"#, "jobs"),
            (r#"{"kind":"simulate","input":"t.bin","jobs":513}"#, "jobs"),
            (r#"{"kind":"simulate","input":"t.bin","jobs":2.5}"#, "jobs"),
            (r#"{"kind":"observe","input":"t"}"#, "kind"),
            (r#"{"kind":"simulate","input":"t","format":"md"}"#, "format"),
            (r#"{"kind":"matrix","ids":"t2"}"#, "ids"),
            (r#"{"kind":"matrix","ids":["../etc"]}"#, "ids"),
            (r#"{"kind":"matrix","ids":[""]}"#, "ids"),
            (r#"{"kind":"matrix","quick":"yes"}"#, "quick"),
            (r#"{"kind":"analyze","input":"t","lenient":1}"#, "lenient"),
            (r#"{"kind":"generate","env":"mail","bogus":1}"#, "bogus"),
        ] {
            let e = err(body);
            assert_eq!(e.field, field, "body {body} -> {e}");
        }
    }

    #[test]
    fn inapplicable_fields_are_rejected_per_kind() {
        for (body, field) in [
            (r#"{"kind":"simulate","input":"t","env":"mail"}"#, "env"),
            (r#"{"kind":"generate","env":"mail","input":"t"}"#, "input"),
            (r#"{"kind":"generate","env":"mail","quick":true}"#, "quick"),
            (r#"{"kind":"matrix","span":5}"#, "span"),
            (
                r#"{"kind":"analyze","input":"t","scheduler":"look"}"#,
                "scheduler",
            ),
            (
                r#"{"kind":"simulate","input":"t","timescales":true}"#,
                "timescales",
            ),
            (
                r#"{"kind":"analyze","input":"t","no_write_back":true}"#,
                "no_write_back",
            ),
        ] {
            let e = err(body);
            assert_eq!(e.field, field, "body {body} -> {e}");
        }
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let e = err(r#"{"kind":"generate","env":"mail","env":"web"}"#);
        assert_eq!(e.field, "env");
        assert_eq!(e.message, "duplicate field");
    }

    #[test]
    fn hostile_bodies_never_panic() {
        // Deterministic mutation corpus: seeds xor-shifted over valid
        // and broken prefixes; success or SpecError both fine, panic
        // is the only failure.
        let corpus = [
            r#"{"kind":"generate","env":"mail","span":60}"#,
            r#"{"kind":"matrix","ids":["t1"],"quick":true}"#,
            r#"{"kind":"simulate","input":"t.bin"}"#,
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        for base in corpus {
            let bytes = base.as_bytes();
            for round in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mut mutated = bytes.to_vec();
                let idx = (state as usize) % mutated.len();
                mutated[idx] = (state >> 24) as u8;
                let truncated = &mutated[..mutated.len() - (round % 7)];
                if let Ok(text) = std::str::from_utf8(truncated) {
                    let _ = JobSpec::parse(text);
                }
            }
        }
    }

    #[test]
    fn spec_error_renders_structured_json() {
        let e = err(r#"{"kind":"generate"}"#);
        let doc = e.to_json();
        assert_eq!(doc.get("field").and_then(Json::as_str), Some("env"));
        assert!(doc.get("error").and_then(Json::as_str).is_some());
    }
}
