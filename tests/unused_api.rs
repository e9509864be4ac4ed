//! Public API that no other file names, and the number of settable
//! fields, in one scan.
//!
//! * Every `pub fn` and `pub const` under `crates/*/src`, and every `pub
//!   struct`/`enum`/`trait` there that no `pub` signature in its own file
//!   takes or returns, must be named as a whole word by some other file
//!   under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src` (the
//!   benchmark calls the API, so it counts as a caller). Only code names
//!   it: a mention in a comment, a doc comment or a `use`/`pub use`
//!   declaration calls nothing, a method (a `pub fn` in an `impl`) is
//!   called only as `.name(`, `::name(` or either with a turbofish, and a
//!   free `pub fn` only by a mention not preceded by `.`: a field read, a
//!   module path or a local of the same name, or a call of a same-named
//!   method, calls nothing either. A name that only its own file uses is
//!   dead code or need not be `pub`. The exceptions are in `ALLOWED`,
//!   each with its reason.
//! * The settable fields — pub fields of pub `*Config`/`*Network`/`*Policy`
//!   structs under `crates/*/src` — may not grow past `SETTABLE_FIELDS`: a
//!   setting that every caller sets the same way is a constant beside its
//!   one use. A change that lowers the count lowers the number.

use std::fs;
use std::path::{Path, PathBuf};

/// The kinds of reason that keep an unused name `pub`.
const REASONS: [&str; 3] = ["doc example", "test hook kept by Decisions", "format constant"];

/// `(name, reason)`: names only their own file uses that stay `pub`. Each
/// reason starts with one of `REASONS`.
const ALLOWED: [(&str, &str); 1] =
    [("link_count", "doc example: `Simulator::new`'s doc test counts the links it built")];

/// Settable fields in `crates/*/src` (93 after the retired config fields
/// became constants, `FleetConfig` took one `SimServeConfig` and the
/// served adversary took the red-team recipe's `AuditConfig` instead of a
/// `ServedConfig` of its own).
const SETTABLE_FIELDS: usize = 93;

/// Directories whose files count as callers.
const SEARCHED: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file's path from the repository root, and its text.
type Source = (PathBuf, String);

/// Every `crates/*/src` file, then every other searched file.
fn workspace() -> (Vec<Source>, Vec<Source>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |paths: Vec<PathBuf>| -> Vec<Source> {
        paths
            .into_iter()
            .map(|p| {
                let text = fs::read_to_string(&p).expect("readable source");
                (p.strip_prefix(root).expect("under the root").to_path_buf(), text)
            })
            .collect()
    };
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut sources);
        }
    }
    let mut others = Vec::new();
    for dir in SEARCHED {
        rust_files(&root.join(dir), &mut others);
    }
    // This file names every allowed name; it is no caller.
    others.retain(|p| !sources.contains(p) && *p != root.join(file!()));
    (read(sources), read(others))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` holds `word` with no identifier character on either side.
fn names(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + word.len()..].starts_with(is_ident)
    })
}

/// Whether `text` names the free function `name`: as a whole word not
/// preceded by `.`, which would make it a call of a same-named method.
fn calls_free(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        !text[..at].ends_with(|c| is_ident(c) || c == '.')
            && !text[at + name.len()..].starts_with(is_ident)
    })
}

/// `text` without its comments and its `use` declarations (multi-line
/// `{ … }` blocks included): what is left is what calls a name. String
/// literals stay, so a `//` inside one is no comment.
fn calling_code(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        if rest.starts_with(&['/', '/']) {
            i += rest.iter().position(|&c| c == '\n').unwrap_or(rest.len());
        } else if rest.starts_with(&['/', '*']) {
            let end = rest.windows(2).position(|w| w == ['*', '/']).map_or(rest.len(), |e| e + 2);
            i += end;
        } else if rest.starts_with(&['\'', '"', '\'']) || rest.starts_with(&['\'', '\\', '"', '\''])
        {
            // A char literal holding a quote opens no string.
            let len = if rest[1] == '"' { 3 } else { 4 };
            code.extend(&rest[..len]);
            i += len;
        } else if rest[0] == '"' {
            let mut end = 1;
            while end < rest.len() && rest[end] != '"' {
                end += if rest[end] == '\\' { 2 } else { 1 };
            }
            let end = (end + 1).min(rest.len());
            code.extend(&rest[..end]);
            i += end;
        } else {
            code.push(rest[0]);
            i += 1;
        }
    }
    let mut out = String::with_capacity(code.len());
    let mut in_use = false;
    for line in code.lines() {
        let item = line.trim_start();
        let item = match item.strip_prefix("pub") {
            Some(r) if r.starts_with('(') => r.find(')').map_or(item, |e| r[e + 1..].trim_start()),
            Some(r) if r.starts_with(' ') => r.trim_start(),
            _ => item,
        };
        in_use = in_use || item.starts_with("use ");
        if in_use {
            in_use = !line.contains(';');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `(kind, name)` of a line declaring a `pub` item (not `pub(crate)`).
fn declared(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const fn ").map(|r| ("fn", r)).or_else(|| {
        ["fn", "const", "struct", "enum", "trait"]
            .into_iter()
            .find_map(|kind| rest.strip_prefix(kind)?.strip_prefix(' ').map(|r| (kind, r)))
    });
    let (kind, rest) = rest?;
    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some((kind, name))
}

/// The text of every `pub` item in `code` but the one at line `skip`: a
/// field, an alias, or a fn's signature up to its body or `;`.
fn pub_signatures(code: &[(usize, &str)], skip: usize) -> String {
    let mut out = String::new();
    let mut open = false;
    for &(i, line) in code {
        let trimmed = line.trim_start();
        if i != skip && (open || trimmed.starts_with("pub ")) {
            out.push_str(line);
            out.push('\n');
            let is_fn = declared(line).is_some_and(|(kind, _)| kind == "fn");
            open = (open || is_fn) && !line.contains('{') && !line.trim_end().ends_with(';');
        }
    }
    out
}

/// Whether `text` calls the method `name`: `.name(`, `::name(` or either
/// with a turbofish, not the bare word or `.name`, which a local or a
/// field read of that name would be.
fn calls_method(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let after = &text[at + name.len()..];
        (text[..at].ends_with('.') || text[..at].ends_with("::"))
            && (after.starts_with('(') || after.starts_with("::<"))
    })
}

/// Whether `line` sits in an `impl` block, `above` being the code above
/// it: the sources are rustfmt'd, so the nearest line above that is
/// indented less — past a `where` clause and its `{` — opens the block.
fn in_impl(above: &[(usize, &str)], line: &str) -> bool {
    let indent = |line: &str| line.len() - line.trim_start().len();
    above
        .iter()
        .rev()
        .map(|&(_, l)| l)
        .find(|l| {
            let item = l.trim_start();
            indent(l) < indent(line)
                && !item.is_empty()
                && item != "{"
                && !item.starts_with("where")
        })
        .is_some_and(|l| l.trim_start().starts_with("impl"))
}

/// `path:line: pub kind name` for each name `sources` declare that no
/// other file of `sources` or `others` names in code; a method (a `pub
/// fn` in an `impl`) must be called there as `.name(` or `::name(` (a
/// turbofish may come between), a free `pub fn` named not after a `.`.
fn unused(sources: &[Source], others: &[Source]) -> Vec<String> {
    let callers: Vec<(&PathBuf, String)> =
        sources.iter().chain(others).map(|(p, t)| (p, calling_code(t))).collect();
    let mut found = Vec::new();
    for (path, text) in sources {
        let code: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim_start().starts_with("//"))
            .collect();
        for (pos, &(i, line)) in code.iter().enumerate() {
            let Some((kind, name)) = declared(line) else { continue };
            if matches!(kind, "struct" | "enum" | "trait") && names(&pub_signatures(&code, i), name)
            {
                continue;
            }
            let method = kind == "fn" && in_impl(&code[..pos], line);
            let called = |t: &str| match kind {
                "fn" if method => calls_method(t, name),
                "fn" => calls_free(t, name),
                _ => names(t, name),
            };
            let elsewhere = callers.iter().any(|(p, t)| *p != path && called(t));
            if !elsewhere {
                found.push(format!("{}:{}: pub {kind} {name}", path.display(), i + 1));
            }
        }
    }
    found
}

/// Pub fields of the pub `*Config`/`*Network`/`*Policy` structs in `text`.
fn settable_fields(text: &str) -> usize {
    let mut count = 0;
    let mut body: Option<String> = None;
    for line in text.lines() {
        if let Some(close) = &body {
            if line.starts_with(close.as_str()) {
                body = None;
            } else if line.trim_start().strip_prefix("pub ").is_some_and(|r| {
                r.split_once(':').is_some_and(|(field, _)| field.chars().all(is_ident))
            }) {
                count += 1;
            }
        } else if let Some(("struct", name)) = declared(line) {
            let settable = ["Config", "Network", "Policy"].iter().any(|s| name.ends_with(s));
            if settable && line.trim_end().ends_with('{') {
                let indent = &line[..line.len() - line.trim_start().len()];
                body = Some(format!("{indent}}}"));
            }
        }
    }
    count
}

#[test]
fn every_pub_name_is_named_outside_its_own_file() {
    let (sources, others) = workspace();
    assert!(
        sources.len() > 50,
        "only {} source files: the scan is not reading crates/",
        sources.len()
    );
    assert!(
        others.iter().any(|(p, _)| p.starts_with("benchmark/src")),
        "the scan is not reading benchmark/src"
    );
    let found = unused(&sources, &others);
    let allowed =
        |line: &String| ALLOWED.iter().any(|(name, _)| line.ends_with(&format!(" {name}")));
    let unexplained: Vec<&String> = found.iter().filter(|l| !allowed(l)).collect();
    assert!(
        unexplained.is_empty(),
        "pub names no other file names (delete them, drop `pub`, or give a reason in ALLOWED):\n{}",
        unexplained.iter().map(|l| l.as_str()).collect::<Vec<_>>().join("\n")
    );
    for (name, reason) in ALLOWED {
        assert!(
            REASONS.iter().any(|kind| reason.starts_with(kind)),
            "ALLOWED entry {name}: the reason must start with one of {REASONS:?}"
        );
        assert!(
            found.iter().any(|l| l.ends_with(&format!(" {name}"))),
            "ALLOWED entry {name} is stale: another file names it, or it is gone"
        );
    }
}

#[test]
fn settable_fields_do_not_grow() {
    let (sources, _) = workspace();
    let count: usize = sources.iter().map(|(_, text)| settable_fields(text)).sum();
    assert!(
        count <= SETTABLE_FIELDS,
        "{count} settable fields, above the recorded {SETTABLE_FIELDS}: a setting every caller \
         sets the same way is a constant beside its one use"
    );
    assert_eq!(count, SETTABLE_FIELDS, "the count fell to {count}: lower SETTABLE_FIELDS to match");
}

#[test]
fn the_scan_flags_a_planted_name() {
    let file = |path: &str, text: &str| -> Source { (PathBuf::from(path), text.to_string()) };
    let planted = file(
        "a.rs",
        "pub fn planted_name() {}\n\
         pub(crate) fn crate_only() {}\n\
         /// pub fn in_a_doc_comment() {}\n\
         pub struct Taken;\n\
         pub struct Returned;\n\
         pub struct Loose;\n\
         pub const LIMIT: u32 = 3;\n\
         pub fn take(\n    t: Taken,\n) -> Returned {\n    todo!()\n}\n",
    );
    let caller = file("b.rs", "a::take(a::Taken); let limit = a::LIMIT; // planted_names\n");
    assert_eq!(
        unused(std::slice::from_ref(&planted), &[caller]),
        ["a.rs:1: pub fn planted_name", "a.rs:6: pub struct Loose"]
    );
    let caller = file("b.rs", "planted_name(); Loose; take; LIMIT");
    assert!(unused(&[planted], &[caller]).is_empty());
}

#[test]
fn a_field_or_local_of_a_methods_name_is_no_call() {
    let file = |path: &str, text: &str| -> Source { (PathBuf::from(path), text.to_string()) };
    let planted = file(
        "a.rs",
        "pub struct Store {\n    pub backend: u8,\n}\n\n\
         impl<T> Wrap<T>\nwhere\n    T: Copy,\n{\n    pub fn backend(&self) -> u8 {\n        0\n    }\n}\n\n\
         pub fn root() {}\n",
    );
    let caller = file("b.rs", "let backend = 1; let s = Store { backend }; root();\n");
    assert_eq!(unused(std::slice::from_ref(&planted), &[caller]), ["a.rs:9: pub fn backend"]);
    for read in ["s.backend", "let b = s.backend + 1", "a::backend::Kind", "Wrap::<u8>::backend"] {
        let caller = file("b.rs", &format!("let s = Store {{ backend: 1 }}; root(); {read};\n"));
        let found = unused(std::slice::from_ref(&planted), &[caller]);
        assert_eq!(found, ["a.rs:9: pub fn backend"], "counted as a call: {read}");
    }
    for call in ["w.backend()", "Wrap::backend(&w)", "w.backend::<u8>()", "Wrap::backend::<u8>(&w)"]
    {
        let caller = file("b.rs", &format!("let s = Store {{ backend: 1 }}; root(); {call};\n"));
        assert!(unused(std::slice::from_ref(&planted), &[caller]).is_empty(), "{call}");
    }
    // A free function is no method: `x.root()` calls some other `root`.
    let caller = file("b.rs", "Store; w.backend(); space.root(); x.root;\n");
    assert_eq!(unused(std::slice::from_ref(&planted), &[caller]), ["a.rs:14: pub fn root"]);
    let caller = file("b.rs", "Store; w.backend(); a::root(); xs.map(root);\n");
    assert!(unused(&[planted], &[caller]).is_empty());
}

#[test]
fn a_comment_or_a_use_declaration_is_no_caller() {
    let file = |path: &str, text: &str| -> Source { (PathBuf::from(path), text.to_string()) };
    let planted =
        file("a.rs", "pub fn planted() {}\npub const SPARE: u8 = 0;\npub fn called() {}\n");
    let mentions = [
        "// planted() and SPARE, in a comment\n",
        "/// [`planted`], [`SPARE`]\n",
        "/* planted, SPARE */\n",
        "use a::planted;\npub use a::SPARE;\n",
        "pub(crate) use a::{\n    planted,\n    SPARE,\n};\n",
    ];
    for text in mentions {
        let caller = file("b.rs", &format!("{text}fn f() {{ called(); }}\n"));
        assert_eq!(
            unused(std::slice::from_ref(&planted), &[caller]),
            ["a.rs:1: pub fn planted", "a.rs:2: pub const SPARE"],
            "counted as a caller: {text:?}"
        );
    }
    // Code after a `//` inside a string, or after a `use` block, calls.
    let caller =
        file("b.rs", "use a::{\n    x,\n};\nlet url = \"http://\"; planted(); SPARE; called();\n");
    assert!(unused(&[planted], &[caller]).is_empty());
}

#[test]
fn the_field_count_reads_pub_fields_of_settable_structs_only() {
    let text = [
        "pub struct ThingConfig {",
        "    pub a: u32,",
        "    /// doc: b",
        "    pub b: Vec<u8>,",
        "    c: u8,",
        "    pub(crate) d: u8,",
        "}",
        "pub struct Thing {",
        "    pub e: u32,",
        "}",
        "pub struct RetryPolicy {",
        "    pub f: u32,",
        "}",
    ]
    .join("\n");
    assert_eq!(settable_fields(&text), 3);
}
