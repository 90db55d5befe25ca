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
    /// Lanes of the engine's reordering team (`--reorder-threads`,
    /// default 1 = sequential orderings).
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

/// The corpus scale a `--size` value spells; anything else aborts with
/// exit status 2.
pub fn parse_size(v: &str) -> CorpusSize {
    match SIZES.iter().find(|(name, _)| *name == v) {
        Some(&(_, size)) => size,
        None => {
            eprintln!("unknown --size '{v}' (small|medium|large)");
            std::process::exit(2);
        }
    }
}

/// Parse `--size small|medium|large`, `--machine <name>` (repeatable),
/// `--reorder-threads N` and positional artefact names. Anything else
/// aborts with exit status 2.
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Options {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => opts.size = parse_size(&it.next().unwrap_or_default()),
            "--machine" => {
                let v = it.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--machine requires a name");
                    std::process::exit(2);
                }
                opts.machines.push(v);
            }
            "--reorder-threads" => {
                let v = it.next().unwrap_or_default();
                opts.reorder_threads = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--reorder-threads: cannot parse '{v}' (want an integer >= 1)");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument '{flag}'");
                std::process::exit(2);
            }
            name => match ARTEFACTS.iter().find(|a| a.name == name) {
                Some(a) => opts.artefacts.push(a),
                None => {
                    let valid: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
                    eprintln!("unknown artefact '{name}' ({})", valid.join("|"));
                    std::process::exit(2);
                }
            },
        }
    }
    opts
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

    fn parse(args: &[&str]) -> Options {
        parse_from(args.iter().map(|s| s.to_string()))
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
}
