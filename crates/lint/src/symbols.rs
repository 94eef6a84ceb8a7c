//! Pass two, stage one: a workspace symbol table extracted from scrubbed
//! source (see DESIGN.md §10).
//!
//! The scrubbing lexer leaves per-line code with literals and comments
//! removed; this module walks those lines once per file, tracking brace
//! depth and a scope stack (`mod` / `impl` / `trait` blocks), and records
//! every `fn` item with its **crate-qualified path** — e.g.
//! `sim::kernel::Kernel::emit` for a method, `harness::pool::run_cells`
//! for a free function. Function bodies are attributed line-by-line to the
//! innermost enclosing `fn` so the call-graph stage can assign call sites
//! to their caller.
//!
//! Deliberate limits (the pass is lexical, not a parser):
//!
//! - test code is excluded entirely ([`crate::context::file_test_lines`]):
//!   `#[cfg(test)]` regions and integration-test files alike;
//! - `macro_rules!` bodies are opaque — `fn` fragments inside them are
//!   not symbols and their lines own no calls;
//! - bodiless trait method declarations are not symbols (the impls are);
//! - one item head per line is assumed, which `rustfmt` guarantees.

use crate::context;

/// One `fn` item: where it is and what its qualified path is.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Crate the function lives in (`sim`, `core`, … or `root` for the
    /// workspace-level `examples/` tree).
    pub crate_name: String,
    /// Full path segments: crate, file modules, inline modules, the
    /// `impl`/`trait` type (for methods), then the function name.
    pub path: Vec<String>,
    /// The bare function name (last path segment).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `true` when defined inside an `impl` or `trait` block.
    pub is_method: bool,
    /// The `impl`/`trait` type name, for methods.
    pub self_type: Option<String>,
}

impl FnDef {
    /// The display form used in diagnostic chains: `sim::Kernel::emit`.
    pub fn display_path(&self) -> String {
        self.path.join("::")
    }
}

/// The symbols of one file plus the per-line body attribution.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Every non-test `fn` item, in source order.
    pub fns: Vec<FnDef>,
    /// `owner[i]` is the index (into `fns`) of the innermost function whose
    /// body covers 0-based line `i`, if any.
    pub owner: Vec<Option<usize>>,
}

/// What a pending item head will introduce once its `{` opens.
#[derive(Debug, Clone)]
enum Pending {
    Mod(String),
    Type(String),
    Fn(String, usize),
    /// `macro_rules!` — its block is opaque.
    Macro,
    /// An `impl`/`trait` head whose type name spans lines; the accumulated
    /// head text is reparsed when the body opens.
    TypeHead(String),
}

#[derive(Debug)]
enum Scope {
    Mod(String),
    Type(String),
    /// Index into `FileSymbols::fns`.
    Fn(usize),
    Macro,
    Block,
}

/// Derives the crate name from a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Module segments implied by the file's location: `crates/sim/src/kernel.rs`
/// contributes `["kernel"]`, `src/lib.rs` and `src/main.rs` contribute
/// nothing, `examples/quickstart.rs` contributes `["quickstart"]`.
fn file_modules(rel: &str) -> Vec<String> {
    let tail = rel
        .split("/src/")
        .nth(1)
        .or_else(|| rel.strip_prefix("examples/"))
        .unwrap_or(rel);
    tail.split('/')
        .filter(|seg| !seg.is_empty())
        .filter_map(|seg| {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            match stem {
                "lib" | "main" | "mod" => None,
                _ => Some(stem.to_string()),
            }
        })
        .collect()
}

/// Extracts the symbol table of one file from its scrubbed lines.
pub fn extract(rel: &str, codes: &[String]) -> FileSymbols {
    let in_test = context::file_test_lines(rel, codes);
    let crate_name = crate_of(rel);
    let base_mods = file_modules(rel);

    let mut out = FileSymbols {
        fns: Vec::new(),
        owner: vec![None; codes.len()],
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Bracket nesting inside a pending signature: a `;` only cancels the
    // pending item at nesting zero (`fn f(x: [u8; 4])` must survive).
    let mut pending_brackets = 0i64;

    for (lineno, code) in codes.iter().enumerate() {
        let opaque = scopes.iter().any(|s| matches!(s, Scope::Macro));
        let test = in_test.get(lineno).copied().unwrap_or(false);

        if pending.is_none() && !opaque {
            pending = detect_item(code);
            if let Some(Pending::Fn(_, start)) = &mut pending {
                *start = lineno;
            }
            pending_brackets = 0;
        } else if let Some(Pending::TypeHead(head)) = &mut pending {
            // Multi-line `impl`/`trait` head: accumulate until `{`.
            head.push(' ');
            head.push_str(code);
        }

        // Innermost fn active at any point on this line owns the line.
        let mut line_fn: Option<usize> = innermost_fn(&scopes);

        for c in code.chars() {
            match c {
                '(' | '[' if pending.is_some() => pending_brackets += 1,
                ')' | ']' if pending.is_some() => pending_brackets -= 1,
                '{' => {
                    let scope = match pending.take() {
                        Some(Pending::Mod(name)) => Scope::Mod(name),
                        Some(Pending::Type(name)) => Scope::Type(name),
                        Some(Pending::TypeHead(head)) => match parse_type_head(&head) {
                            Some(name) => Scope::Type(name),
                            None => Scope::Block,
                        },
                        Some(Pending::Macro) => Scope::Macro,
                        Some(Pending::Fn(name, start)) if !test && !opaque => {
                            let idx = out.fns.len();
                            let mut path = vec![crate_name.clone()];
                            path.extend(base_mods.iter().cloned());
                            let mut self_type = None;
                            for s in &scopes {
                                match s {
                                    Scope::Mod(m) => path.push(m.clone()),
                                    Scope::Type(t) => {
                                        path.push(t.clone());
                                        self_type = Some(t.clone());
                                    }
                                    _ => {}
                                }
                            }
                            path.push(name.clone());
                            out.fns.push(FnDef {
                                crate_name: crate_name.clone(),
                                name,
                                path,
                                file: rel.to_string(),
                                line: start + 1,
                                is_method: self_type.is_some(),
                                self_type,
                            });
                            line_fn = Some(idx);
                            Scope::Fn(idx)
                        }
                        Some(Pending::Fn(..)) => Scope::Block,
                        None => Scope::Block,
                    };
                    scopes.push(scope);
                }
                '}' => {
                    scopes.pop();
                }
                ';' if pending.is_some() && pending_brackets == 0 => {
                    // Brace-less item: `mod x;`, a trait method declaration,
                    // a `fn` pointer type in a statement.
                    pending = None;
                }
                _ => {}
            }
        }
        if let (Some(idx), Some(slot)) = (line_fn, out.owner.get_mut(lineno)) {
            *slot = Some(idx);
        }
    }
    out
}

fn innermost_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn(i) => Some(*i),
        _ => None,
    })
}

/// Scans one line for an item head. The earliest keyword wins; `rustfmt`
/// never puts two item heads on a line.
fn detect_item(code: &str) -> Option<Pending> {
    let hits = [
        (token_pos(code, "fn"), 0u8),
        (token_pos(code, "mod"), 1),
        (token_pos(code, "impl"), 2),
        (token_pos(code, "trait"), 3),
        (token_pos(code, "macro_rules"), 4),
    ];
    let (pos, kind) = hits.iter().filter_map(|(p, k)| p.map(|p| (p, *k))).min()?;
    match kind {
        0 => {
            let name = ident_after(code, pos + 2)?;
            // `fn(u32)` pointer types have no name and are not items.
            Some(Pending::Fn(name, 0))
        }
        1 => ident_after(code, pos + 3).map(Pending::Mod),
        2 => Some(Pending::TypeHead(
            code.get(pos + 4..).unwrap_or("").to_string(),
        )),
        3 => ident_after(code, pos + 5).map(Pending::Type),
        4 => Some(Pending::Macro),
        _ => None,
    }
}

/// Position of `tok` as a whole identifier-bounded token.
fn token_pos(code: &str, tok: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    code.match_indices(tok).find_map(|(pos, _)| {
        let left_ok = pos == 0 || !bytes.get(pos - 1).copied().is_some_and(ident);
        let right_ok = !bytes.get(pos + tok.len()).copied().is_some_and(ident);
        (left_ok && right_ok).then_some(pos)
    })
}

/// The identifier starting at the first non-space character at/after `from`.
fn ident_after(code: &str, from: usize) -> Option<String> {
    let rest = code.get(from..)?.trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    // Raw identifiers (`r#fn`) do not occur in this workspace; a leading
    // digit means this was not an identifier at all.
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// Extracts the type name an `impl`/`trait` head introduces, from the text
/// after the `impl` keyword: generics are skipped, `A for B` picks `B`,
/// references and path prefixes are stripped. `None` for heads this
/// lexical pass cannot name (tuple impls etc.).
fn parse_type_head(head: &str) -> Option<String> {
    let flat = strip_angle_spans(head);
    let flat = flat.split('{').next().unwrap_or("");
    let target = match split_on_token(flat, "for") {
        Some((_, after)) => after,
        None => flat.to_string(),
    };
    let target = target.trim().trim_start_matches(['&', '*']);
    let target = target.strip_prefix("mut ").unwrap_or(target).trim();
    let target = target.strip_prefix("dyn ").unwrap_or(target).trim();
    // `crate::x::Type` → `Type`; drop anything after the type name.
    let last = target.split("::").last().unwrap_or(target);
    let name: String = last
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Removes balanced `<…>` spans (generic parameter lists).
fn strip_angle_spans(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0i64;
    let mut prev = '\0';
    for c in s.chars() {
        match c {
            '<' if prev != '-' => depth += 1,
            '>' if depth > 0 => depth -= 1,
            _ if depth == 0 => out.push(c),
            _ => {}
        }
        prev = c;
    }
    out
}

/// Splits on a whole-word token, returning (before, after).
fn split_on_token(s: &str, tok: &str) -> Option<(String, String)> {
    let pos = token_pos(s, tok)?;
    Some((
        s.get(..pos).unwrap_or("").to_string(),
        s.get(pos + tok.len()..).unwrap_or("").to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols(rel: &str, src: &str) -> FileSymbols {
        let codes: Vec<String> = crate::lexer::scrub(src)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect();
        extract(rel, &codes)
    }

    fn paths(s: &FileSymbols) -> Vec<String> {
        s.fns.iter().map(|f| f.display_path()).collect()
    }

    #[test]
    fn free_fn_and_method_paths() {
        let s = symbols(
            "crates/sim/src/kernel.rs",
            "pub fn free() {}\n\
             pub struct Kernel;\n\
             impl Kernel {\n\
                 pub fn step(&mut self) {\n\
                     helper();\n\
                 }\n\
             }\n",
        );
        assert_eq!(
            paths(&s),
            vec!["sim::kernel::free", "sim::kernel::Kernel::step"]
        );
        assert!(!s.fns[0].is_method);
        assert!(s.fns[1].is_method);
        assert_eq!(s.fns[1].self_type.as_deref(), Some("Kernel"));
        assert_eq!(s.owner[4], Some(1), "body line belongs to step");
    }

    #[test]
    fn trait_impl_for_names_the_implementing_type() {
        let s = symbols(
            "crates/model/src/lib.rs",
            "impl<T: Clone> Telemetry for BTreeMap<T, f64> {\n\
                 fn value(&self) -> f64 {\n\
                     0.0\n\
                 }\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["model::BTreeMap::value"]);
    }

    #[test]
    fn inline_modules_nest_and_tests_are_excluded() {
        let s = symbols(
            "crates/core/src/lib.rs",
            "mod inner {\n\
                 pub fn deep() {}\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["core::inner::deep"]);
    }

    #[test]
    fn trait_declarations_without_bodies_are_not_symbols() {
        let s = symbols(
            "crates/sim/src/lib.rs",
            "pub trait Medium {\n\
                 fn route(&mut self, at: u64) -> bool;\n\
                 fn label(&self) -> u32 {\n\
                     7\n\
                 }\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["sim::Medium::label"]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let s = symbols(
            "crates/sim/src/lib.rs",
            "macro_rules! mk {\n\
                 ($n:ident) => {\n\
                     pub fn $n() {}\n\
                 };\n\
             }\n\
             pub fn real() {}\n",
        );
        assert_eq!(paths(&s), vec!["sim::real"]);
    }

    #[test]
    fn array_types_in_signatures_do_not_cancel_the_item() {
        let s = symbols(
            "crates/sim/src/lib.rs",
            "pub fn digest(block: [u8; 64]) -> u32 {\n\
                 0\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["sim::digest"]);
    }

    #[test]
    fn multi_line_signatures_attach_to_the_fn_line() {
        let s = symbols(
            "crates/sim/src/lib.rs",
            "pub fn wide(\n\
                 a: u32,\n\
                 f: impl Fn(u32) -> u32,\n\
             ) -> u32 {\n\
                 f(a)\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["sim::wide"]);
        assert_eq!(s.fns[0].line, 1);
        assert_eq!(s.owner[4], Some(0));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let s = symbols(
            "crates/sim/src/lib.rs",
            "pub fn real(cb: fn(u32) -> u32) -> u32 {\n\
                 cb(1)\n\
             }\n",
        );
        assert_eq!(paths(&s), vec!["sim::real"]);
    }
}
