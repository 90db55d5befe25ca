#![allow(clippy::needless_range_loop)]

//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! One binary, `paper`, produces all of them; each artefact is a
//! render function in [`artefacts`] returning the text, and
//! [`artefacts::ARTEFACTS`] is the list (`paper --help` prints it).
//!
//! `paper` accepts `--size small|medium|large` (default `small`) to
//! pick the corpus scale, so a full regeneration can run in seconds or
//! at a scale closer to the paper's. Named artefacts print to stdout;
//! with none named, the paper's eleven are written to
//! `results/<name>_<size>.txt`. Either way the standard corpus is
//! swept at most once per process ([`sweep`]), however many of the
//! artefacts read it.

pub mod artefacts;
pub mod cli;
pub mod fmt;
pub mod sweep;
