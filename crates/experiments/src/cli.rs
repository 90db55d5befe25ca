//! Command-line handling of the `paper` binary (and the `--size` value
//! `serve` shares with it).

use crate::artefacts::{Artefact, ARTEFACTS};
use corpus::CorpusSize;

/// The `--size` values: the spelling (also the `<size>` of
/// `results/<name>_<size>.txt`) and the corpus scale it selects.
const SIZES: [(&str, CorpusSize); 3] = [
    ("small", CorpusSize::Small),
    ("medium", CorpusSize::Medium),
    ("large", CorpusSize::Large),
];

/// Options of the `paper` binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Corpus scale.
    pub size: CorpusSize,
    /// Restrict to machines whose name contains one of these strings
    /// (empty = all eight).
    pub machines: Vec<String>,
    /// Lanes of the team every simulated ordering (the sweep's, fig1's,
    /// fig4's and fig6's) is computed and applied on
    /// (`--reorder-threads`, default 1 = inline). Table 5 and the
    /// frontier time theirs on one lane whatever this says; no table's
    /// bytes depend on it.
    pub reorder_threads: usize,
    /// The artefacts named on the command line, in the order named
    /// (empty = write the paper's artefacts to `results/`).
    pub artefacts: Vec<&'static Artefact>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            size: CorpusSize::Small,
            machines: Vec::new(),
            reorder_threads: 1,
            artefacts: Vec::new(),
        }
    }
}

/// The `--help` text; the artefact list is [`ARTEFACTS`] itself.
fn usage() -> String {
    let mut out = String::from(
        "usage: paper [--size small|medium|large] [--machine NAME]... \
         [--reorder-threads N] [ARTEFACT]...\n\n\
         Named artefacts print to stdout in the order named. With none named, the\n\
         paper's artefacts (*) are written to results/<name>_<size>.txt.\n\n\
         artefacts:\n",
    );
    for a in &ARTEFACTS {
        let mark = if a.in_paper { '*' } else { ' ' };
        out.push_str(&format!("  {mark} {:<16} {}\n", a.name, a.about));
    }
    out
}

/// Why [`parse`] returned no options.
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    /// `--help`: print the usage and exit 0.
    Help,
    /// An argument it cannot use: print the message and exit 2.
    Invalid(String),
}

/// The corpus scale a `--size` value spells.
fn size_named(v: &str) -> Result<CorpusSize, Stop> {
    SIZES
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, size)| size)
        .ok_or_else(|| Stop::Invalid(format!("unknown --size '{v}' (small|medium|large)")))
}

/// The corpus scale a `--size` value spells; anything else aborts with
/// exit status 2.
pub fn parse_size(v: &str) -> CorpusSize {
    size_named(v).unwrap_or_else(|stop| exit(stop))
}

/// Print what `stop` asks for and exit with its status.
fn exit(stop: Stop) -> ! {
    match stop {
        Stop::Help => {
            print!("{}", usage());
            std::process::exit(0);
        }
        Stop::Invalid(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// [`parse_from`] without the exit: the options, or why it stopped.
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, Stop> {
    let invalid = |message: String| Err(Stop::Invalid(message));
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => opts.size = size_named(&it.next().unwrap_or_default())?,
            "--machine" => {
                let v = it.next().unwrap_or_default();
                let all = archsim::machines();
                if v.is_empty() || !all.iter().any(|m| m.name.contains(v.as_str())) {
                    let names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
                    return invalid(format!(
                        "--machine '{v}' matches no machine ({})",
                        names.join("|")
                    ));
                }
                opts.machines.push(v);
            }
            "--reorder-threads" => {
                let v = it.next().unwrap_or_default();
                opts.reorder_threads = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return invalid(format!(
                            "--reorder-threads: cannot parse '{v}' (want an integer >= 1)"
                        ))
                    }
                };
            }
            "--help" | "-h" => return Err(Stop::Help),
            flag if flag.starts_with('-') => return invalid(format!("unknown argument '{flag}'")),
            name => match ARTEFACTS.iter().find(|a| a.name == name) {
                Some(a) => opts.artefacts.push(a),
                None => {
                    let valid: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
                    return invalid(format!("unknown artefact '{name}' ({})", valid.join("|")));
                }
            },
        }
    }
    Ok(opts)
}

/// Parse `--size small|medium|large`, `--machine <name>` (repeatable;
/// it must match part of some machine's name), `--reorder-threads N`
/// and positional artefact names. `--help` prints the usage and exits
/// 0; anything else it cannot use aborts with exit status 2.
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Options {
    parse(args).unwrap_or_else(|stop| exit(stop))
}

impl Options {
    /// The machines selected by the options.
    pub fn machines(&self) -> Vec<archsim::Machine> {
        let all = archsim::machines();
        if self.machines.is_empty() {
            return all;
        }
        all.into_iter()
            .filter(|m| self.machines.iter().any(|f| m.name.contains(f.as_str())))
            .collect()
    }

    /// The `--size` spelling of [`Options::size`].
    pub fn size_name(&self) -> &'static str {
        SIZES
            .iter()
            .find(|(_, size)| *size == self.size)
            .expect("SIZES lists every CorpusSize")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Options, Stop> {
        super::parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Options {
        try_parse(args).unwrap()
    }

    #[test]
    fn default_is_small_all_machines_no_names() {
        let o = parse(&[]);
        assert_eq!(o.size, CorpusSize::Small);
        assert_eq!(o.size_name(), "small");
        assert_eq!(o.machines().len(), 8);
        assert_eq!(o.reorder_threads, 1);
        assert!(o.artefacts.is_empty());
    }

    #[test]
    fn parses_reorder_threads() {
        let o = parse(&["--reorder-threads", "4"]);
        assert_eq!(o.reorder_threads, 4);
    }

    #[test]
    fn parses_size_and_machines() {
        let o = parse(&["--size", "medium", "--machine", "Milan", "--machine", "TX2"]);
        assert_eq!(o.size, CorpusSize::Medium);
        assert_eq!(o.size_name(), "medium");
        let ms = o.machines();
        let names: Vec<_> = ms.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["Milan A", "Milan B", "TX2"]);
    }

    #[test]
    fn artefact_names_are_positional_and_keep_their_order() {
        let o = parse(&["table4", "--size", "medium", "fig2", "table4"]);
        assert_eq!(o.size, CorpusSize::Medium);
        let names: Vec<_> = o.artefacts.iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["table4", "fig2", "table4"]);
    }

    #[test]
    fn a_machine_that_matches_none_is_refused_with_the_names() {
        for name in ["Nope", ""] {
            match try_parse(&["--machine", name, "table3"]) {
                Err(Stop::Invalid(message)) => {
                    for m in archsim::machines() {
                        assert!(message.contains(&m.name), "{message}");
                    }
                }
                other => panic!("--machine '{name}': {other:?}"),
            }
        }
        assert!(try_parse(&["--machine", "Milan"]).is_ok());
    }

    #[test]
    fn help_and_bad_arguments_stop_the_parse() {
        assert_eq!(try_parse(&["--help"]).unwrap_err(), Stop::Help);
        for args in [
            &["--size", "huge"][..],
            &["--reorder-threads", "0"],
            &["--bogus"],
            &["fig9"],
        ] {
            assert!(matches!(try_parse(args), Err(Stop::Invalid(_))), "{args:?}");
        }
    }
}
