//! Checkpoint journal for the experiment matrix.
//!
//! The `experiments` binary can journal every finished experiment to a
//! JSON-lines file as the matrix drains (`--resume FILE`): a header
//! line fingerprints the run configuration, then one record per
//! experiment carries its id, outcome, timing, and rendered output.
//! Each record is flushed and fsynced before the next experiment's
//! result is accepted, so a killed process loses at most the record it
//! was writing.
//!
//! On restart with the same `--resume FILE`, completed experiments are
//! *replayed* from the journal instead of re-run — their journaled
//! output is printed verbatim — and only incomplete or failed
//! experiments execute. The concatenated stdout of a killed-then-
//! resumed run is therefore byte-identical to an uninterrupted run.
//!
//! The file is a [`spindle_obs::jsonl`] log, so it shares that
//! module's damage policy: a torn final line (what a kill leaves
//! behind) is ignored, damage before a good record is an error. On top
//! of that the header is strict: a mismatched fingerprint — different
//! seed or `--quick` flag — is an error, because replaying records
//! produced under a different configuration would silently mix
//! incompatible outputs.

use spindle_obs::json::Json;
use spindle_obs::jsonl::{self, AppendLog};
use std::path::Path;

/// Schema tag on the journal's header line.
pub const JOURNAL_SCHEMA: &str = "spindle-journal/v1";

/// One journaled experiment completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Experiment id (`t1`, `f5`, ...).
    pub id: String,
    /// Whether the experiment produced output.
    pub ok: bool,
    /// The experiment's own seconds when it ran
    /// ([`MatrixResult::secs`](crate::matrix::MatrixResult::secs)).
    /// Shared input building is not in it, so nothing prints it; the
    /// field stays so existing v1 journals still resume.
    pub secs: f64,
    /// Rendered output when `ok`, the failure message otherwise.
    pub output: String,
}

impl JournalEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            ("ok".to_owned(), Json::Bool(self.ok)),
            ("secs".to_owned(), Json::Num(self.secs)),
            ("output".to_owned(), Json::Str(self.output.clone())),
        ])
    }

    fn from_json(doc: &Json) -> Option<JournalEntry> {
        let ok = match doc.get("ok")? {
            Json::Bool(b) => *b,
            _ => return None,
        };
        Some(JournalEntry {
            id: doc.get("id")?.as_str()?.to_owned(),
            ok,
            secs: doc.get("secs")?.as_f64()?,
            output: doc.get("output")?.as_str()?.to_owned(),
        })
    }
}

/// An append-side journal handle.
///
/// Every [`Journal::append`] writes one JSON line and fsyncs it before
/// returning.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
    records: u64,
}

impl Journal {
    /// Opens `path` for journaling: an existing journal for the same
    /// configuration is continued (its entries are returned, last
    /// entry per id winning); a missing file is created with a fresh
    /// header.
    ///
    /// # Errors
    ///
    /// Fails when the file exists but carries no valid header, when
    /// its header was written by a different configuration, when it is
    /// damaged before its last record, or on I/O errors.
    pub fn open_resume(
        path: &str,
        quick: bool,
        seed: u64,
    ) -> Result<(Journal, Vec<JournalEntry>), String> {
        let path = Path::new(path);
        let entries = if path.exists() {
            load_entries(path, quick, seed)?
        } else {
            Vec::new()
        };
        let header = Json::Obj(vec![
            ("schema".to_owned(), Json::Str(JOURNAL_SCHEMA.to_owned())),
            ("quick".to_owned(), Json::Bool(quick)),
            ("seed".to_owned(), Json::Uint(seed)),
        ]);
        let log = AppendLog::open(path, &header)
            .map_err(|e| format!("cannot open journal `{}`: {e}", path.display()))?;
        let records = entries.len() as u64;
        Ok((Journal { log, records }, entries))
    }

    /// Appends one completion record and fsyncs it to disk.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), String> {
        self.log
            .append(&entry.to_json())
            .map_err(|e| format!("cannot journal `{}`: {e}", entry.id))?;
        self.records += 1;
        Ok(())
    }

    /// Records journaled so far, counting entries loaded at open time.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Loads a journal's entries after checking its header fingerprint;
/// the last entry per id wins.
fn load_entries(path: &Path, quick: bool, seed: u64) -> Result<Vec<JournalEntry>, String> {
    let log = jsonl::read(path, "journal", JOURNAL_SCHEMA, JournalEntry::from_json)?;
    let hdr_quick = matches!(log.header.get("quick"), Some(Json::Bool(true)));
    let hdr_seed = log.header.get("seed").and_then(Json::as_u64);
    if hdr_quick != quick || hdr_seed != Some(seed) {
        return Err(format!(
            "journal `{}` was written by a different run \
             (journal: quick={hdr_quick} seed={hdr_seed:?}; this run: quick={quick} seed={seed}) \
             — delete it or pass a different --resume file",
            path.display()
        ));
    }
    let mut entries: Vec<JournalEntry> = Vec::new();
    for (_, entry) in log.records {
        entries.retain(|e| e.id != entry.id);
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, ok: bool) -> JournalEntry {
        JournalEntry {
            id: id.to_owned(),
            ok,
            secs: 0.5,
            output: format!("| {id} |\noutput with \"quotes\"\n"),
        }
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("spindle-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_owned()
    }

    #[test]
    fn journal_round_trips_entries() {
        let path = temp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, loaded) = Journal::open_resume(&path, true, 42).unwrap();
        assert!(loaded.is_empty());
        j.append(&entry("t1", true)).unwrap();
        j.append(&entry("t2", false)).unwrap();
        assert_eq!(j.records(), 2);
        drop(j);

        let (j, loaded) = Journal::open_resume(&path, true, 42).unwrap();
        assert_eq!(loaded, vec![entry("t1", true), entry("t2", false)]);
        assert_eq!(j.records(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let path = temp_path("fingerprint.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open_resume(&path, true, 42).unwrap();
        j.append(&entry("t1", true)).unwrap();
        drop(j);
        let err = Journal::open_resume(&path, false, 42).unwrap_err();
        assert!(err.contains("different run"), "{err}");
        let err = Journal::open_resume(&path, true, 43).unwrap_err();
        assert!(err.contains("different run"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated_but_mid_file_damage_is_not() {
        let path = temp_path("tail.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open_resume(&path, false, 7).unwrap();
        j.append(&entry("t1", true)).unwrap();
        drop(j);
        // Simulate a kill mid-append: a half-written final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"t2\",\"ok\":tru");
        std::fs::write(&path, &text).unwrap();
        let (_, loaded) = Journal::open_resume(&path, false, 7).unwrap();
        assert_eq!(loaded, vec![entry("t1", true)]);

        // Damage *before* a valid record must refuse to load.
        let text = std::fs::read_to_string(&path).unwrap();
        let rebuilt = format!("{text}\n{}\n", entry("t3", true).to_json());
        std::fs::write(&path, rebuilt).unwrap();
        let err = Journal::open_resume(&path, false, 7).unwrap_err();
        assert!(err.contains("damaged"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_entries_for_an_id_win() {
        let path = temp_path("rewrite.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open_resume(&path, true, 1).unwrap();
        j.append(&entry("t1", false)).unwrap();
        j.append(&entry("t1", true)).unwrap();
        drop(j);
        let (_, loaded) = Journal::open_resume(&path, true, 1).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(loaded[0].ok);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_header_is_rejected() {
        let path = temp_path("headerless.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = Journal::open_resume(&path, true, 1).unwrap_err();
        assert!(err.contains("header"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
