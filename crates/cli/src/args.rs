//! Subcommand option parsing: the front end's one `--key value` /
//! `--key=value` parser, shared with the global options and the
//! `experiments` binary.

pub(crate) use spindle_pulse::front::{parse, Options};

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_owned()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let o = parse(
            &argv(&["--env", "mail", "--binary", "--seed", "7"]),
            &["binary"],
        )
        .unwrap();
        assert_eq!(o.get("env"), Some("mail"));
        assert!(o.flag("binary"));
        assert!(!o.flag("quick"));
        assert_eq!(o.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(o.get_or("span", 60.0).unwrap(), 60.0);
    }

    #[test]
    fn parses_equals_form() {
        let o = parse(&argv(&["--env=web", "--seed=9", "--binary"]), &["binary"]).unwrap();
        assert_eq!(o.get("env"), Some("web"));
        assert_eq!(o.get_or("seed", 0u64).unwrap(), 9);
        assert!(o.flag("binary"));
        // Empty value and values containing '=' survive.
        let o = parse(&argv(&["--out=", "--expr=a=b"]), &[]).unwrap();
        assert_eq!(o.get("out"), Some(""));
        assert_eq!(o.get("expr"), Some("a=b"));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse(&argv(&["positional"]), &[]).is_err());
        assert!(parse(&argv(&["--seed"]), &[]).is_err());
        assert!(parse(&argv(&["--binary=yes"]), &["binary"]).is_err());
    }

    #[test]
    fn required_and_typed_errors() {
        let o = parse(&argv(&["--seed", "abc"]), &[]).unwrap();
        assert!(o.get_or("seed", 0u64).is_err());
        assert!(o.required("env").is_err());
        assert_eq!(o.required("seed").unwrap(), "abc");
    }
}
