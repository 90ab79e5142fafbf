//! Durable JSON-lines logs: the one format and damage policy behind the
//! experiment checkpoint journal, the serve job journal and the per-job
//! span file.
//!
//! The first line is a header object whose `schema` tag must match; an
//! empty file, an unparsable header or a foreign schema is refused.
//! Each later line is one record. A line that is not JSON, or that the
//! caller's decoder rejects, is damaged. A damaged *final* line is
//! ignored, because a kill mid-append leaves exactly that; a damaged
//! line followed by a good one is an error naming the line, because
//! dropping it would silently lose a record. Blank lines are skipped.

use crate::json::{parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Append handle on a durable JSON-lines log: every [`AppendLog::append`]
/// reaches the disk before it returns.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
}

impl AppendLog {
    /// Opens `path` for appending. A missing file is created with
    /// `header` as its first line; an existing one is continued as is.
    ///
    /// # Errors
    ///
    /// Propagates open, write and sync failures.
    pub fn open(path: &Path, header: &Json) -> io::Result<AppendLog> {
        let fresh = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut log = AppendLog { file };
        if fresh {
            log.append(header)?;
        }
        Ok(log)
    }

    /// Appends `record` as one line, in one `write_all` on the
    /// unbuffered file, and `sync_data`s it before returning.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures.
    pub fn append(&mut self, record: &Json) -> io::Result<()> {
        self.file.write_all(format!("{record}\n").as_bytes())?;
        self.file.sync_data()
    }
}

/// A log read back by [`read`].
#[derive(Debug)]
pub struct Log<T> {
    /// The header line, its `schema` already checked.
    pub header: Json,
    /// Each decoded record with its 1-based line number, in file order.
    pub records: Vec<(u64, T)>,
}

/// Reads the log at `path`: checks that its header carries `schema` and
/// decodes each record line with `decode` (`None` marks it damaged).
/// `what` names the file in messages (`journal`, `span file`).
///
/// # Errors
///
/// Fails on an unreadable or empty file, a bad header, and a damaged
/// line followed by a good one.
pub fn read<T>(
    path: &Path,
    what: &str,
    schema: &str,
    mut decode: impl FnMut(&Json) -> Option<T>,
) -> Result<Log<T>, String> {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {what} `{shown}`: {e}"))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| format!("{what} `{shown}` is empty (no header line)"))?;
    let header = parse(header).map_err(|e| format!("{what} `{shown}` header: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(format!(
            "{what} `{shown}` has an unrecognized schema (expected {schema})"
        ));
    }
    let mut records = Vec::new();
    let mut damaged: Option<u64> = None;
    for (line_no, line) in (2u64..).zip(lines).filter(|(_, l)| !l.trim().is_empty()) {
        match (parse(line).ok().as_ref().and_then(&mut decode), damaged) {
            (Some(_), Some(bad)) => {
                return Err(format!(
                    "{what} `{shown}` line {bad} is damaged but records follow it \
                     — refusing to silently drop a record"
                ))
            }
            (Some(record), None) => records.push((line_no, record)),
            (None, _) => damaged = Some(line_no),
        }
    }
    Ok(Log { header, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const SCHEMA: &str = "spindle-test-log/v1";

    fn header() -> Json {
        Json::Obj(vec![("schema".to_owned(), Json::Str(SCHEMA.to_owned()))])
    }

    fn record(n: u64) -> Json {
        Json::Obj(vec![("n".to_owned(), Json::Uint(n))])
    }

    fn decode(doc: &Json) -> Option<u64> {
        doc.get("n")?.as_u64()
    }

    /// A scratch path unique to this test process and tag. It sits in a
    /// directory of its own, which goes, with everything the test wrote
    /// next to the path, when the handle drops.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    impl std::ops::Deref for Scratch {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for Scratch {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    fn temp_path(name: &str) -> Scratch {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("spindle-jsonl-{pid}-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }

    fn load(path: &Path) -> Result<Vec<(u64, u64)>, String> {
        read(path, "log", SCHEMA, decode).map(|log| log.records)
    }

    #[test]
    fn appends_one_line_per_record_after_a_single_header() {
        let path = temp_path("append.jsonl");
        let mut log = AppendLog::open(&path, &header()).unwrap();
        log.append(&record(1)).unwrap();
        drop(log);
        // Reopening continues the file; the header is not written again.
        let mut log = AppendLog::open(&path, &header()).unwrap();
        log.append(&record(2)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"n\":1}}\n{{\"n\":2}}\n")
        );
        let log = read(&path, "log", SCHEMA, decode).unwrap();
        assert_eq!(log.header, header());
        assert_eq!(log.records, vec![(2, 1), (3, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_and_blank_lines_are_skipped() {
        let path = temp_path("torn.jsonl");
        std::fs::write(
            &path,
            format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"n\":1}}\n\n{{\"n\":2}}\n{{\"n\":"),
        )
        .unwrap();
        assert_eq!(load(&path).unwrap(), vec![(2, 1), (4, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damage_before_a_good_line_names_the_damaged_line() {
        let path = temp_path("middle.jsonl");
        std::fs::write(
            &path,
            format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"n\":1}}\n{{\"n\":\n{{\"n\":3}}\n"),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("line 3 is damaged"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_valid_json_line_the_decoder_rejects_is_damage() {
        let path = temp_path("rejected.jsonl");
        let body = format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"n\":1}}\n{{\"m\":2}}\n");
        std::fs::write(&path, &body).unwrap();
        // As the final line it is a tolerated tail...
        assert_eq!(load(&path).unwrap(), vec![(2, 1)]);
        // ...and before a good line it is an error.
        std::fs::write(&path, format!("{body}{{\"n\":4}}\n")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("line 3 is damaged"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_unparsable_header_and_foreign_schema_are_refused() {
        let path = temp_path("header.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(load(&path).unwrap_err().contains("empty"));
        std::fs::write(&path, "not json\n{\"n\":1}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("header"));
        std::fs::write(&path, "{\"schema\":\"other/v9\"}\n{\"n\":1}\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("unrecognized schema"), "{err}");
        std::fs::remove_file(&path).unwrap();
        assert!(load(&path).unwrap_err().contains("cannot read log"));
    }
}
