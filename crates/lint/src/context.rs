//! Test-context detection over scrubbed source.
//!
//! Rule `P1` (panic-safety) applies to library code only: `#[cfg(test)]`
//! modules and `#[test]` functions may panic freely — a failing assertion
//! *is* the mechanism. This module walks the scrubbed lines once, tracking
//! brace depth, and marks every line that falls inside an item introduced
//! by a `#[cfg(test)]` or `#[test]` attribute (including the attribute and
//! signature lines themselves). A file that opens with the inner attribute
//! `#![cfg(test)]` — an out-of-line test module — is test code throughout.

/// Returns, per line, whether that line is inside test-only code.
pub fn test_lines(lines: &[String]) -> Vec<bool> {
    let mut header = lines.iter().take_while(|code| !code.contains('{'));
    if header.any(|code| code.trim() == "#![cfg(test)]") {
        return vec![true; lines.len()];
    }
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0i64;
    // Depth at which a pending test attribute was seen, plus the line it
    // started on, so the attribute/signature lines get marked too.
    let mut pending: Option<(i64, usize)> = None;
    // Stack of depths at which a test item's body opened.
    let mut regions: Vec<i64> = Vec::new();

    for (lineno, code) in lines.iter().enumerate() {
        if !regions.is_empty() {
            if let Some(flag) = in_test.get_mut(lineno) {
                *flag = true;
            }
        }
        if is_test_attribute(code) && pending.is_none() && regions.is_empty() {
            pending = Some((depth, lineno));
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some((d, start)) = pending {
                        if d == depth {
                            regions.push(depth);
                            for flag in in_test.iter_mut().take(lineno + 1).skip(start) {
                                *flag = true;
                            }
                            pending = None;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                ';' => {
                    // An attribute on a brace-less item (e.g. a `use`)
                    // covers nothing beyond its own statement.
                    if let Some((d, _)) = pending {
                        if d == depth {
                            pending = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// Does this scrubbed line carry a test attribute?
fn is_test_attribute(code: &str) -> bool {
    code.contains("#[cfg(test)")
        || code.contains("#[cfg(all(test")
        || code.contains("#[cfg(any(test")
        || code.contains("#[test]")
        || code.contains("#[cfg_attr(test")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(src: &str) -> Vec<bool> {
        let lines: Vec<String> = crate::lexer::scrub(src)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect();
        test_lines(&lines)
    }

    #[test]
    fn cfg_test_module_is_marked_to_closing_brace() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn lib2() {}\n";
        assert_eq!(mark(src), vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_fn_is_marked() {
        let src = "#[test]\nfn checks() {\n  assert!(true);\n}\nfn lib() {}\n";
        assert_eq!(mark(src), vec![true, true, true, true, false]);
    }

    #[test]
    fn nested_braces_do_not_end_region_early() {
        let src = "#[cfg(test)]\nmod t {\n  fn f() { if x { y() } }\n  fn g() {}\n}\nfn l() {}\n";
        assert_eq!(mark(src), vec![true, true, true, true, true, false]);
    }

    #[test]
    fn inner_cfg_test_marks_the_whole_file() {
        let src = "//! An out-of-line test module.\n#![cfg(test)]\nuse super::*;\nfn helper() { x.unwrap() }\n";
        assert_eq!(mark(src), vec![true, true, true, true]);
    }

    #[test]
    fn attribute_on_braceless_item_covers_nothing() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn lib() { body() }\n";
        assert_eq!(mark(src), vec![false, false, false]);
    }
}
