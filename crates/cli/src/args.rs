//! The declared command surface: one table of command forms, each listing
//! the flags it reads. Parsing, value checks, dispatch and the usage text
//! all come from that table (no external dependency).

use leaksig_faults::Taxonomy;
use std::net::SocketAddr;
use std::str::FromStr;

/// One usage line: a command, or one form of a command, with the flags it
/// reads. A command's first form in the table is its plain form; each
/// later form of the same command is picked by its first flag, as
/// `--disk` picks `chaos --disk`.
pub struct Form {
    pub command: &'static str,
    /// What the form does, as the usage text says it.
    pub about: &'static str,
    /// The command itself: `Ok` carries the exit status, `Err` a message
    /// printed with the usage lines (exit 1).
    pub run: fn(&Args) -> Result<i32, String>,
    pub flags: &'static [Flag],
}

/// One `--name value` flag of a form.
pub struct Flag {
    pub name: &'static str,
    /// What the usage text shows for the value; for [`Rule::Choice`] it
    /// is also the `|`-separated list of accepted values.
    pub value: &'static str,
    pub need: Need,
    pub rule: Rule,
}

/// Whether a flag must be given, and what it reads as when it is not.
pub enum Need {
    Required,
    Default(&'static str),
    Optional,
}

/// What a flag's value must be.
pub enum Rule {
    /// Any text: a path, a bind address.
    Text,
    /// An unsigned integer no smaller than the bound.
    Int(u64),
    /// A number in `(0, 1]` when `open`, else in `[0, 1]`.
    Unit { open: bool },
    /// One of the values the placeholder lists.
    Choice,
    /// A socket address, `IP:PORT`.
    Addr,
    /// A comma-separated fault-kind list, or `all` ([`kinds`]).
    Kinds(fn(&str) -> bool),
}

const fn flag(name: &'static str, value: &'static str, need: Need, rule: Rule) -> Flag {
    Flag {
        name,
        value,
        need,
        rule,
    }
}

/// A flag that must be given.
pub const fn req(name: &'static str, value: &'static str, rule: Rule) -> Flag {
    flag(name, value, Need::Required, rule)
}

/// A flag that reads as `d` when not given.
pub const fn def(name: &'static str, value: &'static str, d: &'static str, rule: Rule) -> Flag {
    flag(name, value, Need::Default(d), rule)
}

/// A flag that may be absent.
pub const fn opt(name: &'static str, value: &'static str, rule: Rule) -> Flag {
    flag(name, value, Need::Optional, rule)
}

/// [`Rule::Kinds`] for the fault taxonomy `K`.
pub fn kinds<K: Taxonomy>(list: &str) -> bool {
    K::parse_list(list).is_ok()
}

impl Flag {
    /// `Ok` when `raw` is a value this flag accepts, else the one error
    /// text every rule shares.
    pub fn check(&self, raw: &str) -> Result<(), String> {
        let (ok, expected) = match self.rule {
            Rule::Text => (true, String::new()),
            Rule::Int(min) => (
                raw.parse().is_ok_and(|v: u64| v >= min),
                format!("an integer >= {min}"),
            ),
            Rule::Unit { open } => (
                raw.parse()
                    .is_ok_and(|v: f64| v <= 1.0 && (v > 0.0 || (!open && v == 0.0))),
                format!("a number in {}0, 1]", if open { "(" } else { "[" }),
            ),
            Rule::Choice => (self.value.split('|').any(|c| c == raw), self.value.into()),
            Rule::Addr => (raw.parse::<SocketAddr>().is_ok(), "IP:PORT".into()),
            Rule::Kinds(parse) => (parse(raw), self.value.into()),
        };
        match ok {
            true => Ok(()),
            false => Err(format!("--{} must be {expected}, got {raw:?}", self.name)),
        }
    }

    fn usage(&self) -> String {
        match self.need {
            Need::Required => format!("--{} {}", self.name, self.value),
            Need::Default(d) => format!("[--{} {}={d}]", self.name, self.value),
            Need::Optional => format!("[--{} {}]", self.name, self.value),
        }
    }
}

/// A parsed command line: the form it picked, and the value given for
/// each of the form's flags.
pub struct Args {
    pub form: &'static Form,
    given: Vec<Option<String>>,
}

impl Args {
    /// Parse `argv[1..]`, the subcommand then `--key value` pairs. The
    /// command must exist; at most one flag that picks a form may appear;
    /// each flag must belong to the picked form, come once and pass its
    /// rule; and every required flag must be there.
    pub fn parse(forms: &'static [Form], argv: &[String]) -> Result<Args, String> {
        let (command, rest) = argv.split_first().ok_or("missing subcommand")?;
        let mut pairs: Vec<(&str, &String)> = Vec::new();
        for pair in rest.chunks(2) {
            let (tok, value) = (&pair[0], pair.get(1));
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {tok:?}"))?;
            let value = value.ok_or_else(|| format!("flag --{key} needs a value"))?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("flag --{key} given twice"));
            }
            pairs.push((key, value));
        }
        let ours: Vec<&'static Form> = forms.iter().filter(|f| f.command == command).collect();
        let (plain, variants) = ours
            .split_first()
            .ok_or_else(|| format!("unknown command {command:?}"))?;
        let picks = |f: &Form| pairs.iter().any(|(k, _)| *k == f.flags[0].name);
        let (form, label) = match variants.iter().filter(|f| picks(f)).collect::<Vec<_>>()[..] {
            [] => (*plain, command.to_string()),
            [one] => (*one, format!("{command} --{}", one.flags[0].name)),
            [a, b, ..] => {
                let (a, b) = (a.flags[0].name, b.flags[0].name);
                return Err(format!("--{a} and --{b} pick different forms of {command}"));
            }
        };
        let mut given = vec![None; form.flags.len()];
        for (key, value) in pairs {
            let i = form.flags.iter().position(|f| f.name == key);
            let i = i.ok_or_else(|| format!("{label} does not take --{key}"))?;
            form.flags[i].check(value)?;
            given[i] = Some(value.clone());
        }
        for (flag, value) in form.flags.iter().zip(&given) {
            if matches!(flag.need, Need::Required) && value.is_none() {
                return Err(format!("missing required flag --{}", flag.name));
            }
        }
        Ok(Args { form, given })
    }

    /// `--name` as given, else its default; `None` for an absent optional
    /// flag.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let i = self.form.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{} declares no --{name}", self.form.command));
        match (&self.given[i], &self.form.flags[i].need) {
            (Some(value), _) => Some(value),
            (None, Need::Default(d)) => Some(d),
            (None, _) => None,
        }
    }

    /// A required or defaulted flag's value.
    pub fn str(&self, name: &str) -> &str {
        self.opt(name).expect("a required or defaulted flag")
    }

    /// A required or defaulted flag's value, parsed.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.get_opt(name).expect("a required or defaulted flag")
    }

    /// An optional flag's value, parsed; its rule has already admitted it.
    pub fn get_opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let parse = |raw: &str| {
            raw.parse()
                .unwrap_or_else(|_| panic!("--{name} {raw:?}: rule and type disagree"))
        };
        self.opt(name).map(parse)
    }

    /// A [`Rule::Kinds`] flag's fault kinds.
    pub fn kinds<K: Taxonomy>(&self, name: &str) -> Option<Vec<K>> {
        self.opt(name).and_then(|raw| K::parse_list(raw).ok())
    }
}

/// The usage text: every form of `command`, or every form when `command`
/// names none.
pub fn usage(forms: &[Form], command: Option<&str>) -> String {
    let mut out = String::from("usage: leaksig-cli <command> [--flag value]...\n\ncommands:\n");
    let known = forms.iter().any(|f| Some(f.command) == command);
    let shown = |f: &&Form| !known || Some(f.command) == command;
    for form in forms.iter().filter(shown) {
        out += &format!("  {:<9} {}\n{:11}", form.command, form.about, "");
        for word in form.flags.iter().map(Flag::usage) {
            let width = out.len() - out.rfind('\n').unwrap_or(0);
            let gap = if width + word.len() > 96 {
                "\n            "
            } else {
                " "
            };
            out += &format!("{gap}{word}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FORMS;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(FORMS, &argv)
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["market", "--seed", "7", "--out", "x.lsc", "--device", "d"]).unwrap();
        assert_eq!(a.form.command, "market");
        assert_eq!(a.str("out"), "x.lsc");
        assert_eq!(a.get::<u64>("seed"), 7);
        assert_eq!(a.get::<f64>("scale"), 0.05, "the declared default");
        let a = parse(&["detect", "--capture", "c", "--sigs", "s"]).unwrap();
        assert_eq!(a.opt("device"), None);
        let a = parse(&["chaos", "--disk", "torn,crash", "--seed", "3"]).unwrap();
        assert_eq!(a.form.flags[0].name, "disk", "--disk picks its form");
        assert_eq!(a.get::<f64>("intensity"), 0.2, "that form's own default");
        let a = parse(&["analyze", "--diff", "a", "--new", "b"]).unwrap();
        assert_eq!((a.str("diff"), a.str("new")), ("a", "b"));
    }

    #[test]
    fn rejects_malformed_input() {
        let err = |tokens: &[&str]| parse(tokens).err().unwrap();
        assert_eq!(err(&[]), "missing subcommand");
        assert_eq!(err(&["wat"]), "unknown command \"wat\"");
        assert_eq!(err(&["inspect", "naked"]), "expected --flag, got \"naked\"");
        assert_eq!(err(&["inspect", "--sigs"]), "flag --sigs needs a value");
        assert_eq!(
            err(&["inspect", "--sigs", "a", "--sigs", "b"]),
            "flag --sigs given twice"
        );
        assert_eq!(err(&["inspect"]), "missing required flag --sigs");
        assert_eq!(
            err(&["lint", "--sigs", "s", "--formt", "json"]),
            "lint does not take --formt"
        );
        assert_eq!(
            err(&["chaos", "--disk", "all", "--rounds", "5"]),
            "chaos --disk does not take --rounds"
        );
        assert_eq!(
            err(&["chaos", "--net", "all", "--disk", "all"]),
            "--net and --disk pick different forms of chaos"
        );
        assert_eq!(
            err(&["analyze", "--sigs", "s", "--diff", "a", "--new", "b"]),
            "analyze --diff does not take --sigs"
        );
        let bad_values = [
            ("market", "--scale", "0", "a number in (0, 1]"),
            ("chaos", "--intensity", "1.5", "a number in [0, 1]"),
            ("chaos", "--intensity", "NaN", "a number in [0, 1]"),
            ("chaos", "--rounds", "0", "an integer >= 1"),
            ("chaos", "--seed", "-1", "an integer >= 0"),
            (
                "chaos",
                "--faults",
                "drop,chop",
                "drop,delay,duplicate,truncate,corrupt|all",
            ),
            ("lint", "--format", "yaml", "text|json"),
        ];
        for (command, flag, value, expected) in bad_values {
            let mut tokens = vec![command, flag, value];
            if command == "lint" {
                tokens.extend(["--sigs", "s"]);
            }
            if command == "market" {
                tokens.extend(["--out", "o", "--device", "d"]);
            }
            assert_eq!(
                err(&tokens),
                format!("{flag} must be {expected}, got {value:?}")
            );
        }
    }

    /// The table itself: every default and every listed choice passes its
    /// flag's rule, no form declares a flag twice, and each form that a
    /// flag picks is picked by a required flag no other form of the
    /// command declares.
    #[test]
    fn table_is_consistent() {
        for (i, form) in FORMS.iter().enumerate() {
            for (j, flag) in form.flags.iter().enumerate() {
                assert!(
                    form.flags[..j].iter().all(|f| f.name != flag.name),
                    "{}",
                    flag.name
                );
                if let Need::Default(d) = flag.need {
                    assert_eq!(flag.check(d), Ok(()), "{} default", form.command);
                }
                if matches!(flag.rule, Rule::Choice | Rule::Kinds(_)) {
                    for choice in flag.value.split('|') {
                        assert_eq!(flag.check(choice), Ok(()), "{} placeholder", flag.name);
                    }
                }
            }
            let siblings = || FORMS.iter().filter(|f| f.command == form.command);
            if siblings().position(|f| std::ptr::eq(f, form)).unwrap() > 0 {
                let picker = &form.flags[0];
                assert!(matches!(picker.need, Need::Required), "{}", picker.name);
                let others = siblings().filter(|f| !std::ptr::eq(*f, form));
                assert!(others.flat_map(|f| f.flags).all(|f| f.name != picker.name));
            }
            let usage = usage(FORMS, Some(form.command));
            assert!(
                usage.contains(form.about),
                "form {i} missing from its usage"
            );
        }
    }

    /// Every `leaksig-cli …`, `$CLI …` or `"$CLI" …` invocation in `text`,
    /// with `\`-continued lines joined, as argv tokens: quotes and `[ ]`
    /// brackets stripped, cut at an inline code span's end, a comment or a
    /// shell operator.
    fn invocations(text: &str) -> Vec<Vec<String>> {
        let mut found = Vec::new();
        for line in text.replace("\\\n", " ").lines() {
            for marker in ["leaksig-cli ", "$CLI ", "\"$CLI\" "] {
                for (at, _) in line.match_indices(marker) {
                    let rest = line[at + marker.len()..].split('`').next().unwrap();
                    let mut argv: Vec<String> = Vec::new();
                    for tok in rest.split_whitespace() {
                        if tok.starts_with(['#', '|', '&', ';', '>']) || tok.starts_with("2>") {
                            break;
                        }
                        let tok = tok.replace('"', "");
                        let tok = tok.trim_matches(['[', ']']);
                        let after_flag = argv.last().is_some_and(|t| t.starts_with("--"));
                        if !(tok == "..." && !after_flag || tok == "--" && argv.is_empty()) {
                            argv.push(tok.to_string());
                        }
                    }
                    if !argv.is_empty() {
                        found.push(argv);
                    }
                }
            }
        }
        found
    }

    /// A shell variable, an `UPPER` placeholder, `<…>` or `...`: a token
    /// documentation writes in place of a real value.
    fn literal(tok: &str) -> bool {
        let placeholder = tok.chars().all(|c| c.is_ascii_uppercase() || c == '_');
        !(tok.contains(['$', '<']) || tok == "..." || placeholder)
    }

    /// A value `flag` accepts, standing in for a documented placeholder.
    fn sample(flag: &Flag) -> String {
        match (&flag.need, &flag.rule) {
            (Need::Default(d), _) => d.to_string(),
            (_, Rule::Int(min)) => min.to_string(),
            (_, Rule::Unit { .. }) => "1".into(),
            (_, Rule::Addr) => "127.0.0.1:7341".into(),
            (_, Rule::Choice | Rule::Kinds(_)) => flag.value.rsplit('|').next().unwrap().into(),
            (_, Rule::Text) => "x".into(),
        }
    }

    /// Check one documented invocation against [`FORMS`]: literal values
    /// must pass (each `a|b` alternative on its own), placeholders stand
    /// for a valid value, and required flags a doc elides are filled in.
    fn check_invocation(argv: Vec<String>) -> Result<(), String> {
        if let Some(i) = argv
            .iter()
            .skip(1)
            .position(|t| t.contains('|') && literal(t))
        {
            for alt in argv[i + 1].split('|') {
                let mut one = argv.clone();
                one[i + 1] = alt.to_string();
                check_invocation(one)?;
            }
            return Ok(());
        }
        let command = &argv[0];
        if argv.len() == 1 && ["help", "--help"].contains(&command.as_str()) {
            return Ok(());
        }
        let ours = || {
            FORMS
                .iter()
                .filter(|f| f.command == command)
                .flat_map(|f| f.flags)
        };
        let flag = |key: &str| ours().find(|f| Some(f.name) == key.strip_prefix("--"));
        let mut fixed = vec![command.clone()];
        let mut pairs = argv[1..].chunks(2);
        while let Some([key, rest @ ..]) = pairs.next() {
            if !literal(key) {
                continue;
            }
            fixed.push(key.clone());
            match (rest.first(), flag(key)) {
                (Some(value), Some(f)) if !literal(value) => fixed.push(sample(f)),
                (Some(value), _) => fixed.push(value.clone()),
                (None, _) => {}
            }
        }
        loop {
            let err = match Args::parse(FORMS, &fixed) {
                Ok(_) => return Ok(()),
                Err(err) => err,
            };
            let missing = err.strip_prefix("missing required flag ");
            let Some(f) = missing.and_then(flag) else {
                return Err(err);
            };
            fixed.extend([format!("--{}", f.name), sample(f)]);
        }
    }

    #[test]
    fn documented_invocations_match_the_table() {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("CONTRIBUTING.md", include_str!("../../../CONTRIBUTING.md")),
            (
                "scripts/check.sh",
                include_str!("../../../scripts/check.sh"),
            ),
            (
                ".claude/skills/verify/SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut checked = 0;
        for (doc, text) in docs {
            for argv in invocations(text) {
                let shown = argv.join(" ");
                check_invocation(argv).unwrap_or_else(|e| panic!("{doc}: `{shown}`: {e}"));
                checked += 1;
            }
        }
        assert!(checked >= 30, "only {checked} invocations found");
    }

    #[test]
    fn the_doc_checker_rejects_what_the_parser_rejects() {
        let only = |text: &str| {
            let mut all = invocations(text);
            assert_eq!(all.len(), 1, "{text}");
            check_invocation(all.remove(0))
        };
        let misspelled = "Gate CI with `leaksig-cli lint --sigs sigs.txt --formt json`.";
        assert_eq!(only(misspelled), Err("lint does not take --formt".into()));
        let wrong_form = "$CLI chaos --seed 3 \\\n    --disk all --rounds 5   # soak\n";
        assert_eq!(
            only(wrong_form),
            Err("chaos --disk does not take --rounds".into())
        );
        let bad_choice = "$CLI lint --sigs FILE [--format text|yaml]";
        assert!(only(bad_choice)
            .unwrap_err()
            .starts_with("--format must be text|json"));
        let elided = "\"$CLI\" serve ... --batches 3 --state-dir \"$DIR\" &";
        assert_eq!(
            only(elided),
            Ok(()),
            "placeholders and elided required flags"
        );
        assert_eq!(
            only("leaksig-cli wat --x 1"),
            Err("unknown command \"wat\"".into())
        );
    }
}
