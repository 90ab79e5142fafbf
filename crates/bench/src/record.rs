//! Machine-readable benchmark records.
//!
//! The experiments binary can serialize one run of the matrix into a
//! `BENCH_pr<N>.json` document — per-experiment wall-clock seconds,
//! overall throughput, a peak-RSS proxy, and the worker count — so the
//! repository's performance trajectory is a file diff rather than
//! archaeology over CI logs. The schema is versioned
//! (`spindle-bench-record/v2`; v1 files remain readable by
//! `spindle bench diff`) and emitted with the crate's own JSON value
//! type, keeping the harness dependency-free.
//!
//! v2 adds provenance — the `commit` the run was built from and the
//! `hostname` it ran on — so two record files can be compared with
//! their context attached. Fields whose value is unknown (a non-git
//! checkout, a platform without `/proc`) are *omitted*, never written
//! as a fake zero.

use spindle_obs::json::Json;

/// One finished experiment, as it lands in the record file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment id (`t1`, `f5`, ...).
    pub id: String,
    /// Wall-clock seconds the experiment took on its worker.
    pub secs: f64,
    /// Whether the experiment produced output (failures record `false`
    /// so a regression cannot masquerade as a speedup).
    pub ok: bool,
}

/// A whole matrix run, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Worker threads the matrix fanned out across.
    pub jobs: usize,
    /// Whether the reduced-scale (`--quick`) config was used.
    pub quick: bool,
    /// The config seed, for reproducing the run.
    pub seed: u64,
    /// End-to-end wall-clock seconds for the whole matrix.
    pub total_secs: f64,
    /// Per-experiment outcomes, in presentation order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// The record document as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let n = self.records.len();
        let throughput = if self.total_secs > 0.0 {
            n as f64 / self.total_secs
        } else {
            0.0
        };
        let results: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".to_owned(), Json::Str(r.id.clone())),
                    ("secs".to_owned(), Json::Num(r.secs)),
                    ("ok".to_owned(), Json::Bool(r.ok)),
                ])
            })
            .collect();
        let mut doc = vec![
            (
                "schema".to_owned(),
                Json::Str("spindle-bench-record/v2".to_owned()),
            ),
            (
                "config".to_owned(),
                Json::Obj(vec![
                    ("quick".to_owned(), Json::Bool(self.quick)),
                    ("jobs".to_owned(), Json::Uint(self.jobs as u64)),
                    ("seed".to_owned(), Json::Uint(self.seed)),
                ]),
            ),
            ("jobs".to_owned(), Json::Uint(self.jobs as u64)),
        ];
        if let Some(commit) = git_commit() {
            doc.push(("commit".to_owned(), Json::Str(commit)));
        }
        if let Some(host) = hostname() {
            doc.push(("hostname".to_owned(), Json::Str(host)));
        }
        doc.push(("experiments".to_owned(), Json::Uint(n as u64)));
        doc.push(("total_secs".to_owned(), Json::Num(self.total_secs)));
        doc.push(("experiments_per_sec".to_owned(), Json::Num(throughput)));
        // Omitted entirely (not null, not 0) when the platform cannot
        // report it; see the README's peak-RSS caveat.
        if let Some(rss) = peak_rss_bytes() {
            doc.push(("peak_rss_bytes".to_owned(), Json::Uint(rss)));
        }
        doc.push(("results".to_owned(), Json::Arr(results)));
        Json::Obj(doc)
    }

    /// The record document as pretty-enough JSON text (one line, final
    /// newline).
    #[must_use]
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json())
    }
}

/// The commit hash the working tree is checked out at, read straight
/// from `.git` (no `git` subprocess): `HEAD` directly for a detached
/// head, else the named ref file or `packed-refs`. `None` outside a
/// git checkout.
#[must_use]
pub fn git_commit() -> Option<String> {
    fn from_dir(git_dir: &std::path::Path) -> Option<String> {
        let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            return is_hex_hash(head).then(|| head.to_owned());
        };
        if let Ok(text) = std::fs::read_to_string(git_dir.join(refname)) {
            let hash = text.trim();
            if is_hex_hash(hash) {
                return Some(hash.to_owned());
            }
        }
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                let hash = hash.trim();
                if is_hex_hash(hash) {
                    return Some(hash.to_owned());
                }
            }
        }
        None
    }
    // Walk up from the current directory so the experiments binary
    // finds the repository no matter which subdirectory it runs from.
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            return from_dir(&candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_hex_hash(s: &str) -> bool {
    s.len() >= 40 && s.chars().all(|c| c.is_ascii_hexdigit())
}

/// The machine's hostname, from `/proc/sys/kernel/hostname` or the
/// `HOSTNAME` environment variable. `None` when neither is available.
#[must_use]
pub fn hostname() -> Option<String> {
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return Some(h.to_owned());
        }
    }
    match std::env::var("HOSTNAME") {
        Ok(h) if !h.is_empty() => Some(h),
        _ => None,
    }
}

/// Peak resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` where the proc filesystem is
/// unavailable — the record then omits the field rather than storing a
/// fake number.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            jobs: 4,
            quick: true,
            seed: 42,
            total_secs: 2.0,
            records: vec![
                BenchRecord {
                    id: "t1".to_owned(),
                    secs: 1.25,
                    ok: true,
                },
                BenchRecord {
                    id: "f5".to_owned(),
                    secs: 0.75,
                    ok: false,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let text = report().render();
        let doc = spindle_obs::json::parse(text.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("spindle-bench-record/v2")
        );
        assert_eq!(doc.get("experiments").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(4));
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("jobs"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            doc.get("experiments_per_sec").and_then(Json::as_f64),
            Some(1.0)
        );
        let Some(Json::Arr(results)) = doc.get("results") else {
            panic!("results is an array");
        };
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("id").and_then(Json::as_str), Some("t1"));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        let mut r = report();
        r.total_secs = 0.0;
        assert_eq!(
            r.to_json()
                .get("experiments_per_sec")
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn provenance_fields_are_present_or_absent_but_never_fake() {
        let doc = report().to_json();
        // In this repo's checkout the commit must resolve and look like
        // a hash; elsewhere the field is simply absent.
        match doc.get("commit") {
            Some(Json::Str(hash)) => {
                assert!(hash.len() >= 40, "commit {hash:?}");
                assert!(hash.chars().all(|c| c.is_ascii_hexdigit()));
            }
            Some(other) => panic!("commit must be a string, got {other:?}"),
            None => assert!(git_commit().is_none()),
        }
        match doc.get("hostname") {
            Some(Json::Str(h)) => assert!(!h.is_empty()),
            Some(other) => panic!("hostname must be a string, got {other:?}"),
            None => assert!(hostname().is_none()),
        }
        // peak_rss_bytes is omitted (not null) when unknown.
        match doc.get("peak_rss_bytes") {
            Some(Json::Uint(b)) => assert!(*b > 0),
            Some(other) => panic!("peak_rss_bytes must be omitted or a count, got {other:?}"),
            None => assert!(peak_rss_bytes().is_none()),
        }
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // A running test binary certainly holds more than a page
            // and less than a terabyte.
            assert!(bytes > 4096, "peak RSS {bytes} bytes");
            assert!(bytes < 1 << 40, "peak RSS {bytes} bytes");
        }
    }
}
