//! Subcommand option parsing: the front end's one `--key value` /
//! `--key=value` parser, shared with the global options and the
//! `experiments` binary.

pub(crate) use spindle_pulse::front::{parse, Arity, Options};

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_owned()).collect()
    }

    const KNOWN: &[(&str, Arity)] = &[
        ("env", Arity::Value),
        ("seed", Arity::Value),
        ("span", Arity::Value),
        ("out", Arity::Value),
        ("expr", Arity::Value),
        ("binary", Arity::Flag),
    ];

    #[test]
    fn parses_pairs_and_flags() {
        let o = parse(
            "t",
            &argv(&["--env", "mail", "--binary", "--seed", "7"]),
            KNOWN,
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
        let o = parse("t", &argv(&["--env=web", "--seed=9", "--binary"]), KNOWN).unwrap();
        assert_eq!(o.get("env"), Some("web"));
        assert_eq!(o.get_or("seed", 0u64).unwrap(), 9);
        assert!(o.flag("binary"));
        // Empty value and values containing '=' survive.
        let o = parse("t", &argv(&["--out=", "--expr=a=b"]), KNOWN).unwrap();
        assert_eq!(o.get("out"), Some(""));
        assert_eq!(o.get("expr"), Some("a=b"));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse("t", &argv(&["positional"]), KNOWN).is_err());
        assert!(parse("t", &argv(&["--seed"]), KNOWN).is_err());
        assert!(parse("t", &argv(&["--binary=yes"]), KNOWN).is_err());
        // An option outside the table is named, with its command.
        for typo in [&["--sed", "7"][..], &["--sed=7"], &["--bogus"]] {
            let err = parse("generate", &argv(typo), KNOWN).unwrap_err();
            let key = typo[0].split('=').next().unwrap();
            assert_eq!(err, format!("unknown option `{key}` for `generate`"));
        }
    }

    #[test]
    fn required_and_typed_errors() {
        let o = parse("t", &argv(&["--seed", "abc"]), KNOWN).unwrap();
        assert!(o.get_or("seed", 0u64).is_err());
        assert!(o.required("env").is_err());
        assert_eq!(o.required("seed").unwrap(), "abc");
    }
}
