//! The six lint rules.
//!
//! Each rule is a pure function from the scanned [`Workspace`] to a list of
//! [`Diagnostic`]s. All rules operate on scrubbed, position-preserving text
//! (see [`crate::scanner`]), so patterns inside comments and string
//! literals never fire and every span points into the original file.
//!
//! | rule | waiver key | scope |
//! |------|-----------|-------|
//! | `determinism` | `ordered` | all crates except `bench`, non-test lines |
//! | `wall-clock` | `wall-clock` | all crates except `bench` and [`MEASUREMENT_PATHS`], non-test lines |
//! | `unsafe-hygiene` | — | every crate root |
//! | `panic-hygiene` | — (ratcheted via `lint-baseline.json`) | all crates except `bench`, non-test lines |
//! | `doc-integrity` | — | `docs/PAPER_MAP.md`, `DESIGN.md`, `README.md` |
//! | `scoped-threads` | `scoped-threads` | all crates, non-test lines |

use std::collections::{BTreeMap, BTreeSet};

use crate::scanner::ScrubbedFile;
use crate::workspace::{SourceFile, Workspace};

/// One finding with a clickable span and a fix-it suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (stable identifier, used in reports and tests).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset into the line + 1).
    pub col: usize,
    /// What is wrong at the span.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

/// Sorts diagnostics into the canonical report order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The identifier ending right before byte offset `end` (skipping one `.`
/// is the caller's job). Returns `(start_offset, ident)`.
fn ident_before(line: &str, end: usize) -> Option<(usize, &str)> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some((start, &line[start..end]))
    }
}

/// The identifier starting at byte offset `start`.
fn ident_at(line: &str, start: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut end = start;
    while end < bytes.len() && is_ident_char(bytes[end]) {
        end += 1;
    }
    if end == start {
        None
    } else {
        Some(&line[start..end])
    }
}

/// Finds `needle` in `line` at a word boundary (no identifier characters
/// adjacent on either side), starting at byte `from`.
fn find_word(line: &str, needle: &str, from: usize) -> Option<usize> {
    let mut search = from;
    while let Some(p) = line.get(search..).and_then(|s| s.find(needle)) {
        let abs = search + p;
        let bytes = line.as_bytes();
        let left_ok = abs == 0 || !is_ident_char(bytes[abs - 1]);
        let end = abs + needle.len();
        let right_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if left_ok && right_ok {
            return Some(abs);
        }
        search = abs + 1;
    }
    None
}

fn contains_word(text: &str, needle: &str) -> bool {
    text.lines().any(|l| find_word(l, needle, 0).is_some())
}

// ---------------------------------------------------------------------------
// Rule 1: determinism — no iteration over HashMap/HashSet outside bench.
// ---------------------------------------------------------------------------

/// Iteration methods whose order is nondeterministic on hash containers.
const ITER_METHODS: [&str; 9] = [
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
];

/// The map type names in scope in `file`: `HashMap`/`HashSet` plus any
/// local `type` alias whose right-hand side mentions one.
fn map_types(file: &ScrubbedFile) -> BTreeSet<String> {
    let mut types: BTreeSet<String> = ["HashMap", "HashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Local aliases: `type LabelMemo = HashMap<ViewId, u64>;`
    for line in &file.lines {
        let Some(kw) = find_word(line, "type", 0) else {
            continue;
        };
        let rest = &line[kw + "type".len()..];
        let Some((name_part, rhs)) = rest.split_once('=') else {
            continue;
        };
        if find_word(rhs, "HashMap", 0).is_some() || find_word(rhs, "HashSet", 0).is_some() {
            let name = name_part.trim().split('<').next().unwrap_or("").trim();
            if !name.is_empty() {
                types.insert(name.to_string());
            }
        }
    }
    types
}

/// Whether `line` mentions any of the map type names.
fn has_map_type(line: &str, types: &BTreeSet<String>) -> bool {
    types.iter().any(|t| find_word(line, t, 0).is_some())
}

/// Collects the identifiers `line` binds to a map type: `ident: Ty`
/// (bindings, fields, parameters) and `let [mut] ident = Ty::new()`.
fn map_bindings_on(line: &str, types: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    for ty in types {
        let mut from = 0;
        while let Some(abs) = find_word(line, ty, from) {
            from = abs + ty.len();
            // `ident: Ty` (binding, field or parameter type position).
            let prefix = line[..abs]
                .trim_end()
                .trim_end_matches('&')
                .trim_end()
                .trim_end_matches("mut")
                .trim_end()
                .trim_end_matches('&')
                .trim_end();
            if let Some(before_colon) = prefix.strip_suffix(':') {
                if let Some((_, name)) =
                    ident_before(before_colon.trim_end(), before_colon.trim_end().len())
                {
                    out.insert(name.to_string());
                    continue;
                }
            }
            // `let [mut] ident = Ty::new()` (type on the RHS only).
            for name in let_idents(line) {
                out.insert(name.to_string());
            }
        }
    }
}

/// The identifiers introduced by `let [mut] ident` on `line`.
fn let_idents(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(let_pos) = find_word(line, "let", from) {
        from = let_pos + "let".len();
        let mut p = from;
        if let Some(m) = find_word(line, "mut", p) {
            if line[p..m].trim().is_empty() {
                p = m + "mut".len();
            }
        }
        let after = line[p..].trim_start();
        let off = p + (line[p..].len() - after.len());
        if let Some(name) = ident_at(line, off) {
            out.push(name);
        }
    }
    out
}

/// The map-bound identifiers live at each line of `file`.
///
/// Starts from every map binding in the file (so struct fields declared
/// after their uses are still seen), then walks the lines in order
/// tracking `let` shadowing: rebinding a name without a map type on the
/// line removes it, so `let bins: Vec<_> = ...` in one function does not
/// inherit map-ness from a `let bins: HashMap<_, _>` in another.
fn live_map_idents(file: &ScrubbedFile, types: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
    let mut live = BTreeSet::new();
    for line in &file.lines {
        map_bindings_on(line, types, &mut live);
    }
    let mut per_line = Vec::with_capacity(file.lines.len());
    for line in &file.lines {
        if has_map_type(line, types) {
            map_bindings_on(line, types, &mut live);
        } else {
            for name in let_idents(line) {
                live.remove(name);
            }
        }
        per_line.push(live.clone());
    }
    per_line
}

/// Rule 1: every iteration over a hash container outside `bench` must
/// carry a `// lint: ordered(reason)` waiver.
pub fn determinism(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in ws.files.iter().filter(|f| f.crate_name != "bench") {
        let types = map_types(&file.scrubbed);
        let live = live_map_idents(&file.scrubbed, &types);
        for (i, line) in file.scrubbed.lines.iter().enumerate() {
            let lineno = i + 1;
            if file.scrubbed.test_lines[i] || file.scrubbed.is_waived("ordered", lineno) {
                continue;
            }
            let maps = &live[i];
            for method in ITER_METHODS {
                let mut from = 0;
                while let Some(p) = line.get(from..).and_then(|s| s.find(method)) {
                    let abs = from + p;
                    from = abs + method.len();
                    let Some((_, recv)) = ident_before(line, abs) else {
                        continue;
                    };
                    if maps.contains(recv) {
                        diags.push(iteration_diag(file, lineno, abs + 1, recv, method));
                    }
                }
            }
            // `for x in &ident` / `for x in ident` (method forms are
            // caught above; a following `.` means it is not this form).
            if find_word(line, "for", 0).is_some() {
                if let Some(p) = find_word(line, "in", 0) {
                    let after = line[p + 2..].trim_start();
                    let off = p + 2 + (line[p + 2..].len() - after.len());
                    let off = off + (after.len() - after.trim_start_matches('&').len());
                    if let Some(name) = ident_at(line, off) {
                        let next = line.as_bytes().get(off + name.len()).copied();
                        if maps.contains(name) && next != Some(b'.') {
                            diags.push(iteration_diag(file, lineno, off + 1, name, "for .. in"));
                        }
                    }
                }
            }
        }
    }
    diags
}

fn iteration_diag(file: &SourceFile, line: usize, col: usize, recv: &str, via: &str) -> Diagnostic {
    Diagnostic {
        rule: "determinism",
        path: file.rel.clone(),
        line,
        col,
        message: format!(
            "iteration over hash container `{recv}` (via `{}`) has nondeterministic order",
            via.trim_start_matches('.').trim_end_matches('(')
        ),
        help: "collect and sort the items, switch to BTreeMap/BTreeSet, or — if every \
               consumer is provably order-insensitive — waive the site with \
               `// lint: ordered(<why>)`"
            .to_string(),
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no wall-clock outside bench.
// ---------------------------------------------------------------------------

/// Measurement-path files outside `crates/bench` where wall-clock is the
/// entire point of the file: the service load generator, whose output *is*
/// latency and throughput. Same standing as the bench-crate exemption —
/// timing here is what the file measures, never something a certified
/// response or report depends on (service responses carry no wall-clock
/// fields; the byte-identity e2e tests pin that).
pub const MEASUREMENT_PATHS: [&str; 1] = ["crates/service/src/loadgen.rs"];

/// Whether `rel` is on the wall-clock measurement path.
fn is_measurement_path(rel: &str) -> bool {
    MEASUREMENT_PATHS.contains(&rel)
}

/// Rule 2: `Instant::now` / `SystemTime` are forbidden outside
/// `crates/bench` and the [`MEASUREMENT_PATHS`] — certified reports must
/// not depend on wall-clock.
pub fn wall_clock(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in ws
        .files
        .iter()
        .filter(|f| f.crate_name != "bench" && !is_measurement_path(&f.rel))
    {
        for (i, line) in file.scrubbed.lines.iter().enumerate() {
            let lineno = i + 1;
            if file.scrubbed.test_lines[i] || file.scrubbed.is_waived("wall-clock", lineno) {
                continue;
            }
            for pat in ["Instant::now", "SystemTime"] {
                if let Some(p) = find_word(line, pat, 0) {
                    diags.push(Diagnostic {
                        rule: "wall-clock",
                        path: file.rel.clone(),
                        line: lineno,
                        col: p + 1,
                        message: format!("`{pat}` leaks wall-clock time outside crates/bench"),
                        help: "derive timing from simulator round counts, move the \
                               measurement into crates/bench, or — for a genuine \
                               measurement path like the service load generator — add the \
                               file to rules::MEASUREMENT_PATHS"
                            .to_string(),
                    });
                }
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule 3: unsafe hygiene — crate roots must forbid unsafe_code.
// ---------------------------------------------------------------------------

/// Rule 3: every crate root must retain `#![forbid(unsafe_code)]`.
pub fn unsafe_hygiene(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in ws.files.iter().filter(|f| f.is_crate_root) {
        let has = file
            .scrubbed
            .lines
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has {
            diags.push(Diagnostic {
                rule: "unsafe-hygiene",
                path: file.rel.clone(),
                line: 1,
                col: 1,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
                help: "add `#![forbid(unsafe_code)]` at the top of the crate root; the \
                       workspace's safety story (and the Miri CI job) assume it"
                    .to_string(),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule 4: panic-hygiene ratchet (counting half; baseline logic in lib.rs).
// ---------------------------------------------------------------------------

/// The exact panic tokens the ratchet counts.
pub const PANIC_TOKENS: [&str; 3] = [".expect(", ".unwrap()", "panic!("];

/// A file's panic count and the span of its first offending site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicCount {
    /// Number of panic tokens in non-test lines of the file.
    pub count: usize,
    /// 1-based line of the first token (anchor for the diagnostic).
    pub line: usize,
    /// 1-based column of the first token.
    pub col: usize,
}

/// Rule 4 (counting half): per-file counts of `.unwrap()` / `.expect(` /
/// `panic!(` in non-test library code (all crates except `bench`).
/// Files with zero tokens are omitted.
pub fn panic_counts(ws: &Workspace) -> BTreeMap<String, PanicCount> {
    let mut counts = BTreeMap::new();
    for file in ws.files.iter().filter(|f| f.crate_name != "bench") {
        let mut pc = PanicCount {
            count: 0,
            line: 0,
            col: 0,
        };
        for (i, line) in file.scrubbed.lines.iter().enumerate() {
            if file.scrubbed.test_lines[i] {
                continue;
            }
            for tok in PANIC_TOKENS {
                let mut from = 0;
                while let Some(p) = line.get(from..).and_then(|s| s.find(tok)) {
                    let abs = from + p;
                    from = abs + tok.len();
                    if pc.count == 0 {
                        pc.line = i + 1;
                        pc.col = abs + 1;
                    }
                    pc.count += 1;
                }
            }
        }
        if pc.count > 0 {
            counts.insert(file.rel.clone(), pc);
        }
    }
    counts
}

// ---------------------------------------------------------------------------
// Rule 5: doc integrity — `path::symbol` references must resolve.
// ---------------------------------------------------------------------------

/// Path segments that are always considered resolved.
const SEGMENT_WHITELIST: [&str; 6] = ["alloc", "core", "crate", "self", "std", "super"];

/// Declaration keywords whose following identifier names an item.
const DECL_KEYWORDS: [&str; 9] = [
    "const", "enum", "fn", "mod", "static", "struct", "trait", "type", "union",
];

/// Builds the global index of declared item names: everything a doc path
/// segment is allowed to be.
fn item_index(ws: &Workspace) -> BTreeSet<String> {
    let mut index = BTreeSet::new();
    for file in &ws.files {
        let mut enum_depth: isize = -1; // brace depth inside an enum body
        for line in &file.scrubbed.lines {
            for kw in DECL_KEYWORDS {
                let mut from = 0;
                while let Some(p) = find_word(line, kw, from) {
                    from = p + kw.len();
                    let rest = line[from..].trim_start();
                    let off = from + (line[from..].len() - rest.len());
                    if let Some(name) = ident_at(line, off) {
                        index.insert(name.to_string());
                    }
                }
            }
            if let Some(p) = line.find("macro_rules!") {
                let rest = line[p + "macro_rules!".len()..].trim_start();
                if let Some(name) = ident_at(rest, 0) {
                    index.insert(name.to_string());
                }
            }
            // Enum variants: capitalized first token of lines inside an
            // enum body.
            if enum_depth >= 0 {
                let first = line.trim_start();
                if let Some(name) = ident_at(first, 0) {
                    if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                        index.insert(name.to_string());
                    }
                }
            }
            if find_word(line, "enum", 0).is_some() {
                enum_depth = 0;
            }
            if enum_depth >= 0 {
                for c in line.chars() {
                    match c {
                        '{' => enum_depth += 1,
                        '}' => {
                            enum_depth -= 1;
                            if enum_depth <= 0 {
                                enum_depth = -1;
                            }
                        }
                        _ => {}
                    }
                    if enum_depth < 0 {
                        break;
                    }
                }
            }
        }
        // File stems are module names (`refine::Refiner`).
        if let Some(stem) = file
            .rel
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
        {
            if stem != "lib" && stem != "main" && stem != "mod" {
                index.insert(stem.to_string());
            }
        }
    }
    // Crate names, in underscore form (`anet_graph::Graph`); doc tokens
    // normalize hyphens before lookup.
    for name in ws.crate_names() {
        if name == "." {
            index.insert("anonymous_election".to_string());
        } else {
            index.insert(format!("anet_{name}"));
        }
    }
    index
}

/// Extracts inline-code spans from one markdown line as
/// `(1-based col of content, content)`.
fn backtick_tokens(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    let mut base = 0;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else {
            break;
        };
        out.push((base + open + 2, &after[..close]));
        let advance = open + 1 + close + 1;
        base += advance;
        rest = &rest[advance..];
    }
    out
}

/// Whether a backticked token looks like a Rust item path worth checking.
fn is_path_token(token: &str) -> bool {
    token.contains("::") && !token.contains(' ') && !token.contains('"') && !token.contains('=')
}

/// Strips generic arguments (`<...>` spans) out of a token.
fn strip_generics(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    let mut depth = 0usize;
    for c in token.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Rule 5: every `` `path::symbol` `` in the tracked docs must resolve,
/// and every `AdviceScheme` offered by `scheme_suite` must appear in
/// docs/PAPER_MAP.md.
pub fn doc_integrity(ws: &Workspace) -> Vec<Diagnostic> {
    let index = item_index(ws);
    let mut diags = Vec::new();
    for (rel, content) in &ws.docs {
        for (i, line) in content.lines().enumerate() {
            for (col, token) in backtick_tokens(line) {
                if !is_path_token(token) {
                    continue;
                }
                let cleaned = strip_generics(token);
                let segments: Vec<&str> = cleaned
                    .trim_start_matches('&')
                    .trim_end_matches(';')
                    .trim_end_matches("()")
                    .trim_end_matches('!')
                    .split("::")
                    .collect();
                if segments
                    .first()
                    .is_some_and(|s| SEGMENT_WHITELIST.contains(s))
                {
                    continue;
                }
                for seg in segments {
                    let seg = seg.replace('-', "_");
                    if seg.is_empty() || SEGMENT_WHITELIST.contains(&seg.as_str()) {
                        continue;
                    }
                    if !index.contains(&seg) {
                        diags.push(Diagnostic {
                            rule: "doc-integrity",
                            path: rel.clone(),
                            line: i + 1,
                            col,
                            message: format!(
                                "`{token}` does not resolve: no item named `{seg}` in the \
                                 source tree"
                            ),
                            help: "fix the path to match the code (segments resolve against \
                                   declared item names, file stems and crate names), or \
                                   rename the item back"
                                .to_string(),
                        });
                        break;
                    }
                }
            }
        }
    }
    diags.extend(scheme_coverage(ws));
    diags.extend(readme_subcommand_coverage(ws));
    diags
}

/// The README half of rule 5: every subcommand the `report` bin dispatches
/// (a `Some("name") =>` arm in its `main`) must be mentioned in README.md,
/// so the README's synopsis cannot silently drift behind the CLI. Reads the
/// **raw** source lines — the names live inside string literals, which the
/// scrubbed model blanks.
fn readme_subcommand_coverage(ws: &Workspace) -> Vec<Diagnostic> {
    let Some((_, readme)) = ws.docs.iter().find(|(rel, _)| rel == "README.md") else {
        return Vec::new();
    };
    let mut diags = Vec::new();
    for file in &ws.files {
        if !file.rel.ends_with("bin/report.rs") {
            continue;
        }
        for (i, raw) in file.scrubbed.raw_lines.iter().enumerate() {
            // Dispatch arms look like `Some("serve") => {`.
            let Some(p) = raw.find("Some(\"") else {
                continue;
            };
            let rest = &raw[p + "Some(\"".len()..];
            let Some(end) = rest.find('"') else {
                continue;
            };
            let name = &rest[..end];
            let is_arm = rest[end + 1..].trim_start().starts_with(")")
                && rest[end + 1..]
                    .trim_start()
                    .trim_start_matches(')')
                    .trim_start()
                    .starts_with("=>");
            if !is_arm
                || name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                continue;
            }
            if !contains_word(readme, name) {
                diags.push(Diagnostic {
                    rule: "doc-integrity",
                    path: file.rel.clone(),
                    line: i + 1,
                    col: p + 1,
                    message: format!(
                        "`report {name}` is dispatched by the CLI but never mentioned in \
                         README.md"
                    ),
                    help: "document the subcommand in the README synopsis (and its \
                           exit-code behaviour if it can fail), or remove the dispatch arm"
                        .to_string(),
                });
            }
        }
    }
    diags
}

/// The `scheme_suite` half of rule 5: schemes offered by the suite must be
/// documented in PAPER_MAP.
fn scheme_coverage(ws: &Workspace) -> Vec<Diagnostic> {
    let Some((_, paper_map)) = ws
        .docs
        .iter()
        .find(|(rel, _)| rel.ends_with("PAPER_MAP.md"))
    else {
        return Vec::new();
    };
    let Some(suite) = scheme_suite_body(ws) else {
        return Vec::new();
    };
    let mut diags = Vec::new();
    for file in &ws.files {
        for (i, line) in file.scrubbed.lines.iter().enumerate() {
            let Some(p) = line.find("impl AdviceScheme for ") else {
                continue;
            };
            let off = p + "impl AdviceScheme for ".len();
            let Some(name) = ident_at(line, off) else {
                continue;
            };
            if contains_word(&suite, name) && !contains_word(paper_map, name) {
                diags.push(Diagnostic {
                    rule: "doc-integrity",
                    path: file.rel.clone(),
                    line: i + 1,
                    col: off + 1,
                    message: format!(
                        "`{name}` is offered by `scheme_suite` but never mentioned in \
                         docs/PAPER_MAP.md"
                    ),
                    help: "add a PAPER_MAP row mapping the scheme to the paper result it \
                           implements"
                        .to_string(),
                });
            }
        }
    }
    diags
}

/// Extracts the brace-matched body of `fn scheme_suite`, wherever it lives.
fn scheme_suite_body(ws: &Workspace) -> Option<String> {
    for file in &ws.files {
        let Some(start) = file
            .scrubbed
            .lines
            .iter()
            .position(|l| l.contains("fn scheme_suite"))
        else {
            continue;
        };
        let mut body = String::new();
        let mut depth = 0isize;
        let mut opened = false;
        for line in &file.scrubbed.lines[start..] {
            body.push_str(line);
            body.push('\n');
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                return Some(body);
            }
        }
        return Some(body);
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 6: scoped threads only.
// ---------------------------------------------------------------------------

/// Rule 6: bare `std::thread::spawn` is forbidden — `thread::scope`
/// enforces joining and propagates panics.
pub fn scoped_threads(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        for (i, line) in file.scrubbed.lines.iter().enumerate() {
            let lineno = i + 1;
            if file.scrubbed.test_lines[i] || file.scrubbed.is_waived("scoped-threads", lineno) {
                continue;
            }
            if let Some(p) = line.find("thread::spawn") {
                diags.push(Diagnostic {
                    rule: "scoped-threads",
                    path: file.rel.clone(),
                    line: lineno,
                    col: p + 1,
                    message: "bare `thread::spawn` detaches the thread and swallows panics"
                        .to_string(),
                    help: "restructure around `std::thread::scope` (see anet-graph::refine or anet-sim::adv) \
                           so every worker is joined and panics propagate"
                        .to_string(),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_idents_see_let_colon_field_and_alias_bindings() {
        let src = "type Memo = HashMap<u32, u64>;\n\
                   struct S { cache: Memo, seen: HashSet<u32> }\n\
                   fn f(memo: &mut Memo) {\n\
                       let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();\n\
                       let direct = HashSet::new;\n\
                   }\n";
        let f = ScrubbedFile::new("x.rs".into(), src, false);
        let live = live_map_idents(&f, &map_types(&f));
        let last = live.last().expect("nonempty");
        for name in ["cache", "seen", "memo", "groups", "direct"] {
            assert!(last.contains(name), "missing {name}: {last:?}");
        }
    }

    #[test]
    fn let_rebinding_without_map_type_shadows_map_ness() {
        let src = "fn a() {\n\
                       let bins: HashMap<u32, u32> = HashMap::new();\n\
                       bins.insert(1, 2);\n\
                   }\n\
                   fn b() {\n\
                       let bins: Vec<u32> = Vec::new();\n\
                       bins.iter();\n\
                   }\n";
        let f = ScrubbedFile::new("x.rs".into(), src, false);
        let live = live_map_idents(&f, &map_types(&f));
        assert!(live[2].contains("bins"), "map-bound in fn a: {:?}", live[2]);
        assert!(!live[6].contains("bins"), "shadowed in fn b: {:?}", live[6]);
    }

    #[test]
    fn backtick_tokens_report_content_and_col() {
        let toks = backtick_tokens("see `a::b` and `c::d()` here");
        assert_eq!(toks, vec![(6, "a::b"), (17, "c::d()")]);
    }

    #[test]
    fn path_token_filter() {
        assert!(is_path_token("Instance::advice"));
        assert!(!is_path_token("no_path_here"));
        assert!(!is_path_token("let x = y::z"));
    }

    #[test]
    fn generics_are_stripped() {
        assert_eq!(
            strip_generics("HashMap<ViewId, Vec<u32>>::new"),
            "HashMap::new"
        );
    }
}
