//! Hostile input: seeded byte mutants of what riot-lint parses — the
//! committed `lint-hotpaths.toml` and every `riot-lint:` comment in the
//! workspace — never panic the parsers. Every mutant comes back `Ok` or
//! `Err`, and both outcomes are reached in bulk.

use riot_lint::parse_directive;
use riot_lint::reach::parse_hotpaths;
use riot_sim::SimRng;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `text` with one to four edits: a byte replaced by one of `alphabet` or
/// by an arbitrary byte, a range deleted or duplicated, or a corpus entry
/// spliced in. Invalid UTF-8 is replaced lossily, as a file read would.
fn mutant(rng: &mut SimRng, text: &str, alphabet: &[u8], corpus: &[String]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.range_u64(1, 5) {
        let at = rng.range_u64(0, bytes.len() as u64 + 1) as usize;
        match rng.range_u64(0, 5) {
            0 if at < bytes.len() => {
                let pick = rng.range_u64(0, alphabet.len() as u64) as usize;
                bytes[at] = alphabet[pick];
            }
            1 if at < bytes.len() => bytes[at] = rng.range_u64(0, 256) as u8,
            2 if at < bytes.len() => {
                let end = (at + rng.range_u64(1, 4) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            3 if at < bytes.len() => {
                let end = (at + rng.range_u64(1, 9) as usize).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let source = rng.pick(corpus).map_or("", String::as_str);
                bytes.splice(at..at, source.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The `//…` comment that starts each `riot-lint:` directive attempt in
/// the workspace's Rust sources (fixtures included, build output not).
fn directive_comments() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("readable directory")
            .map(|e| e.expect("readable entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let name = name.unwrap_or_default();
            if path.is_dir() {
                if name != "target" && name != "results" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&workspace_root(), &mut files);
    let mut comments = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("readable source");
        for line in source.lines() {
            let Some(at) = line.find("riot-lint:") else {
                continue;
            };
            let Some(start) = line[..at].rfind("//") else {
                continue;
            };
            let comment = &line[start..];
            if parse_directive(comment).is_some() {
                comments.push(comment.to_string());
            }
        }
    }
    comments
}

#[test]
fn mutated_directives_parse_or_fail() {
    const ALPHABET: &[u8] = b"()=,\"/! DPAL0123-_reasonlowfi";
    let corpus = directive_comments();
    // The tree carries about eighty directives; a walker that found none
    // would make this test vacuous.
    assert!(corpus.len() > 50, "only {} directives", corpus.len());
    let (mut parsed, mut failed) = (0, 0);
    for seed in [1, 2, 3, 4] {
        let mut rng = SimRng::seed_from(0x11A7_0000 + seed);
        for (i, text) in corpus.iter().cycle().take(5_000).enumerate() {
            let text = mutant(&mut rng, text, ALPHABET, &corpus);
            let Ok(outcome) = std::panic::catch_unwind(|| parse_directive(&text)) else {
                panic!("seed {seed} mutant {i} panics parse_directive: {text:?}");
            };
            match outcome {
                None => {}
                Some(Ok(d)) => {
                    assert!(!d.reason.trim().is_empty(), "seed {seed} mutant {i}");
                    assert!(text.contains(&d.reason), "seed {seed} mutant {i}");
                    parsed += 1;
                }
                Some(Err(why)) => {
                    assert!(!why.is_empty(), "seed {seed} mutant {i}");
                    failed += 1;
                }
            }
        }
    }
    assert!(
        parsed > 2_000 && failed > 2_000,
        "{parsed} parsed, {failed} failed"
    );
}

#[test]
fn mutated_hotpaths_parse_or_fail() {
    const ALPHABET: &[u8] = b"[]=\"#:, \nhotentryrs_";
    let text = std::fs::read_to_string(workspace_root().join("lint-hotpaths.toml"))
        .expect("lint-hotpaths.toml is committed");
    let corpus: Vec<String> = text.lines().map(str::to_string).collect();
    let (mut parsed, mut failed) = (0, 0);
    for seed in [1, 2, 3, 4] {
        let mut rng = SimRng::seed_from(0x407F_0000 + seed);
        for i in 0..1_000 {
            let text = mutant(&mut rng, &text, ALPHABET, &corpus);
            let Ok(outcome) = std::panic::catch_unwind(|| parse_hotpaths(&text)) else {
                panic!("seed {seed} mutant {i} panics parse_hotpaths: {text:?}");
            };
            match outcome {
                Ok(hp) => {
                    let lines = text.lines().count();
                    for root in hp.hot.iter().chain(&hp.entry) {
                        assert!(root.pattern.contains("::"), "seed {seed} mutant {i}");
                        assert!((1..=lines).contains(&root.line), "seed {seed} mutant {i}");
                    }
                    parsed += 1;
                }
                Err(why) => {
                    assert!(!why.is_empty(), "seed {seed} mutant {i}");
                    failed += 1;
                }
            }
        }
    }
    assert!(
        parsed > 500 && failed > 500,
        "{parsed} parsed, {failed} failed"
    );
}
