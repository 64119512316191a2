//! The per-line rule matchers and the suppression grammar.

use std::path::Path;

use crate::mask::MaskedSource;
use crate::{Diagnostic, Rule, ScanScope};

/// Scan one source file. `crate_name` selects rule scopes; `rel_path` is the
/// workspace-relative path recorded in diagnostics.
///
/// Standalone entry point (masks the text itself, applies suppressions).
/// The workspace pass instead uses [`raw_findings`] over cached
/// [`MaskedSource`]s and filters suppressions centrally, so the semantic
/// rules honor `rhlint:allow` too.
pub fn scan_source(
    crate_name: &str,
    rel_path: &Path,
    text: &str,
    scope: ScanScope,
) -> Vec<Diagnostic> {
    let masked = MaskedSource::new(text);
    let mut diagnostics = raw_findings(crate_name, rel_path, &masked, scope);
    diagnostics.retain(|d| !allowed_rules_at(&masked, d.line).contains(&d.rule));
    diagnostics.extend(bad_suppressions(rel_path, &masked));
    diagnostics
}

/// All line-rule findings, BEFORE suppression filtering. Test regions are
/// skipped.
pub(crate) fn raw_findings(
    crate_name: &str,
    rel_path: &Path,
    masked: &MaskedSource,
    scope: ScanScope,
) -> Vec<Diagnostic> {
    let sanctioned_spawn = spawn_sanctioned(crate_name, rel_path);
    let sanctioned_socket = socket_sanctioned(crate_name);
    let mut diagnostics = Vec::new();
    for (idx, masked_line) in masked.masked_lines.iter().enumerate() {
        if masked.in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for (rule, message) in line_findings(
            masked_line,
            scope,
            crate_name,
            sanctioned_spawn,
            sanctioned_socket,
        ) {
            diagnostics.push(Diagnostic {
                file: rel_path.to_path_buf(),
                line: idx + 1,
                rule,
                message,
            });
        }
    }
    diagnostics
}

/// Rules allowed at 1-based `line_no` by a justified `rhlint:allow` on the
/// flagged line or the line above it.
pub(crate) fn allowed_rules_at(masked: &MaskedSource, line_no: usize) -> Vec<Rule> {
    let idx = line_no.saturating_sub(1);
    let candidates = [
        idx.checked_sub(1).and_then(|p| masked.raw_lines.get(p)),
        masked.raw_lines.get(idx),
    ];
    let mut allowed = Vec::new();
    for raw in candidates.into_iter().flatten() {
        if let Suppression::Allow(rules) = parse_suppression(raw) {
            allowed.extend(rules);
        }
    }
    allowed
}

/// Every well-formed, justified `rhlint:allow` in the file as
/// `(1-based line, allowed rules)` — the input to the RH025 staleness check.
pub(crate) fn well_formed_allows(masked: &MaskedSource) -> Vec<(usize, Vec<Rule>)> {
    masked
        .raw_lines
        .iter()
        .enumerate()
        .filter_map(|(idx, raw)| match parse_suppression(raw) {
            Suppression::Allow(rules) => Some((idx + 1, rules)),
            _ => None,
        })
        .collect()
}

/// Malformed suppressions are diagnostics wherever they appear (including
/// test code: a broken audit trail is a problem everywhere).
pub(crate) fn bad_suppressions(rel_path: &Path, masked: &MaskedSource) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for (idx, raw) in masked.raw_lines.iter().enumerate() {
        if let Suppression::Malformed(why) = parse_suppression(raw) {
            diagnostics.push(Diagnostic {
                file: rel_path.to_path_buf(),
                line: idx + 1,
                rule: Rule::BadSuppression,
                message: why,
            });
        }
    }
    diagnostics
}

/// The sites allowed to call `thread::spawn` directly: `rockpool`, the
/// `pipeline::service` backend worker, and `rockserve`'s acceptor and
/// connection threads, each joined by its handle on shutdown. Everything
/// else must fan out through `rockpool::Pool`.
fn spawn_sanctioned(crate_name: &str, rel_path: &Path) -> bool {
    crate_name == "rockpool"
        || crate_name == "rockserve"
        || rel_path
            .to_string_lossy()
            .replace('\\', "/")
            .ends_with("pipeline/src/service.rs")
}

/// The one crate allowed to construct raw sockets: the `rockserve` serving
/// layer. Every other crate reaches the network through `ServeClient`, whose
/// framing, error replies, and drain behavior are covered by tests.
fn socket_sanctioned(crate_name: &str) -> bool {
    crate_name == "rockserve"
}

/// All rule hits on one masked line, before suppression filtering.
fn line_findings(
    line: &str,
    scope: ScanScope,
    crate_name: &str,
    sanctioned_spawn: bool,
    sanctioned_socket: bool,
) -> Vec<(Rule, String)> {
    let mut findings = Vec::new();

    if scope.float_safety {
        let has_partial_cmp = has_token(line, "partial_cmp");
        if has_partial_cmp && (line.contains(".unwrap()") || line.contains(".expect(")) {
            findings.push((
                Rule::PartialCmpUnwrap,
                "partial_cmp(..).unwrap() panics on NaN; use ml::stats::total_cmp_f64".into(),
            ));
        } else if has_partial_cmp && contains_any_sort_adapter(line) {
            findings.push((
                Rule::FloatSort,
                "float ordering via partial_cmp; use total_cmp (ml::stats helpers)".into(),
            ));
        }
        for nan in ["f64::NAN", "f32::NAN"] {
            if line.contains(nan) {
                findings.push((
                    Rule::NanLiteral,
                    format!(
                        "bare {nan} literal; return Option/Result instead of poisoning results"
                    ),
                ));
            }
        }
    }

    if scope.panic_freedom {
        // partial-cmp-unwrap already covers its own unwrap/expect.
        let covered_by_float = findings.iter().any(|(r, _)| *r == Rule::PartialCmpUnwrap);
        if !covered_by_float {
            if line.contains(".unwrap()") {
                findings.push((
                    Rule::Unwrap,
                    "unwrap() in library code; return a typed error instead".into(),
                ));
            }
            if line.contains(".expect(") {
                findings.push((
                    Rule::Expect,
                    "expect() in library code; return a typed error instead".into(),
                ));
            }
        }
        for mac in ["panic!", "todo!", "unimplemented!", "unreachable!"] {
            if has_token(line, mac) {
                findings.push((
                    Rule::Panic,
                    format!("{mac} in library code; return a typed error instead"),
                ));
            }
        }
        if let Some(snippet) = literal_index(line) {
            findings.push((
                Rule::SliceIndex,
                format!("literal index `{snippet}` can panic; use .get()/.first() or prove bounds"),
            ));
        }
    }

    if scope.determinism {
        for pat in ["SystemTime::now", "Instant::now"] {
            if line.contains(pat) {
                findings.push((
                    Rule::WallClock,
                    format!("{pat} in deterministic crate `{crate_name}`; thread a clock through instead"),
                ));
            }
        }
        for pat in [
            "thread_rng",
            "rand::rng()",
            "from_os_rng",
            "from_entropy",
            "OsRng",
        ] {
            if line.contains(pat) {
                findings.push((
                    Rule::AmbientRng,
                    format!("ambient RNG ({pat}); all randomness must flow through seeded StdRng"),
                ));
            }
        }
        for pat in ["HashMap", "HashSet"] {
            if has_token(line, pat) {
                findings.push((
                    Rule::HashIter,
                    format!("{pat} in deterministic crate `{crate_name}`; iteration order varies — use BTreeMap/BTreeSet/Vec"),
                ));
            }
        }
    }

    // Thread discipline applies to every scoped crate: a raw spawn escapes
    // both the panic story (a detached thread's panic is invisible) and the
    // determinism story (no seed splitting, no ordered reduction).
    if (scope.panic_freedom || scope.determinism)
        && !sanctioned_spawn
        && line.contains("thread::spawn")
    {
        findings.push((
            Rule::ThreadSpawn,
            "raw thread::spawn outside rockpool/pipeline::service; fan out through rockpool::Pool"
                .into(),
        ));
    }

    // Socket discipline mirrors thread discipline: networking outside the
    // serving layer is an untested I/O path with no admission control and no
    // drain story. Only `rockserve` may construct sockets.
    if (scope.panic_freedom || scope.determinism) && !sanctioned_socket {
        for ty in [
            "TcpListener",
            "TcpStream",
            "UdpSocket",
            "UnixListener",
            "UnixStream",
        ] {
            if has_token(line, ty) {
                findings.push((
                    Rule::RawSocket,
                    format!(
                        "raw {ty} in crate `{crate_name}`; all networking goes through rockserve (ServeClient / Server)"
                    ),
                ));
            }
        }
    }

    findings
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `needle` present with identifier boundaries on both sides.
fn has_token(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + needle.len()..].chars().next();
        let after_ok = !after.map(is_ident_char).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

fn contains_any_sort_adapter(line: &str) -> bool {
    [
        ".sort_by(",
        ".sort_unstable_by(",
        ".min_by(",
        ".max_by(",
        ".binary_search_by(",
    ]
    .iter()
    .any(|p| line.contains(p))
}

/// Find `expr[<integer literal>]` indexing; returns the matched snippet.
/// Heuristic: a `[` directly preceded by an identifier char, `)`, or `]`,
/// whose bracketed content is a non-empty digit string (underscores allowed).
fn literal_index(line: &str) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        let close = chars[i + 1..].iter().position(|&c| c == ']')?;
        let inner: String = chars[i + 1..i + 1 + close].iter().collect();
        let trimmed = inner.trim();
        if !trimmed.is_empty() && trimmed.chars().all(|c| c.is_ascii_digit() || c == '_') {
            // reconstruct a short snippet: the identifier + index
            let start = line[..byte_offset(line, i)]
                .rfind(|c: char| !is_ident_char(c) && c != '.' && c != ')' && c != ']')
                .map(|p| p + 1)
                .unwrap_or(0);
            let end = byte_offset(line, i + close + 2);
            return Some(line[start..end].trim().to_string());
        }
    }
    None
}

/// Translate a char index into a byte offset (lines can hold non-ASCII).
fn byte_offset(line: &str, char_idx: usize) -> usize {
    line.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(line.len())
}

enum Suppression {
    None,
    Allow(Vec<Rule>),
    Malformed(String),
}

/// Grammar: `rhlint:allow(rule[, rule...]): justification`
/// The justification is mandatory — suppressions are audit entries.
fn parse_suppression(raw_line: &str) -> Suppression {
    let Some(tag) = raw_line.find("rhlint:allow") else {
        return Suppression::None;
    };
    let rest = &raw_line[tag + "rhlint:allow".len()..];
    let Some(open) = rest.find('(') else {
        return Suppression::Malformed("rhlint:allow missing rule list `( ... )`".into());
    };
    let Some(close) = rest.find(')') else {
        return Suppression::Malformed("rhlint:allow missing closing `)`".into());
    };
    if open != 0 || close < open {
        return Suppression::Malformed("rhlint:allow malformed rule list".into());
    }
    let mut rules = Vec::new();
    for id in rest[open + 1..close].split(',') {
        let id = id.trim();
        match Rule::from_id(id) {
            Some(rule) => rules.push(rule),
            None => {
                return Suppression::Malformed(format!("rhlint:allow names unknown rule `{id}`"))
            }
        }
    }
    if rules.is_empty() {
        return Suppression::Malformed("rhlint:allow with empty rule list".into());
    }
    let after = rest[close + 1..].trim_start();
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Suppression::Malformed(
            "rhlint:allow requires a justification: `rhlint:allow(rule): why this is safe`".into(),
        );
    }
    Suppression::Allow(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        scan_source(
            crate_name,
            &PathBuf::from("crates/x/src/lib.rs"),
            src,
            ScanScope::for_crate(crate_name),
        )
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- panic-freedom ----

    #[test]
    fn flags_unwrap_expect_panic_in_lib_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"set\");\n    panic!(\"boom\");\n}\n";
        let diags = scan("pipeline", src);
        assert_eq!(
            rules_of(&diags),
            vec![Rule::Unwrap, Rule::Expect, Rule::Panic]
        );
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
        assert_eq!(diags[2].line, 4);
    }

    #[test]
    fn unwrap_or_and_unwrap_or_else_are_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_else(|| 1)) }\n";
        assert!(scan("pipeline", src).is_empty());
    }

    #[test]
    fn flags_literal_slice_index_but_not_variables_or_types() {
        let flagged = scan("rockhopper", "fn f(v: &[u32]) -> u32 { v[0] }\n");
        assert_eq!(rules_of(&flagged), vec![Rule::SliceIndex]);
        assert!(scan("rockhopper", "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n").is_empty());
        assert!(scan("rockhopper", "fn f() -> [f64; 3] { [0.0; 3] }\n").is_empty());
        assert!(scan("rockhopper", "const XS: [u8; 2] = [1, 2];\n").is_empty());
    }

    #[test]
    fn test_modules_and_exempt_crates_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(scan("pipeline", src).is_empty());
        // `experiments` is not in any scope: even raw panics pass.
        assert!(scan("experiments", "fn f() { panic!(); }\n").is_empty());
    }

    #[test]
    fn strings_and_comments_never_flag() {
        let src = "fn f() -> &'static str { \"call .unwrap() and panic!\" } // .unwrap() here\n";
        assert!(scan("pipeline", src).is_empty());
    }

    // ---- determinism ----

    #[test]
    fn flags_wall_clock_ambient_rng_and_hash_collections_in_scope() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let t = std::time::Instant::now();\n    let mut r = rand::rng();\n}\n";
        let diags = scan("sparksim", src);
        assert_eq!(
            rules_of(&diags),
            vec![Rule::HashIter, Rule::WallClock, Rule::AmbientRng]
        );
    }

    #[test]
    fn determinism_rules_do_not_apply_outside_scope() {
        // pipeline is panic-scoped but not determinism-scoped (its monitor
        // timestamps real wall-clock events by design).
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(scan("pipeline", src).is_empty());
    }

    // ---- thread discipline ----

    #[test]
    fn flags_raw_thread_spawn_in_scoped_crates() {
        let src = "fn f() { let h = std::thread::spawn(|| 1); let _ = h.join(); }\n";
        assert_eq!(rules_of(&scan("optimizers", src)), vec![Rule::ThreadSpawn]);
        // Panic-scoped but determinism-exempt crates are still thread-scoped.
        assert_eq!(rules_of(&scan("ml", src)), vec![Rule::ThreadSpawn]);
    }

    #[test]
    fn sanctioned_spawn_sites_are_exempt() {
        let src = "fn f() { let h = std::thread::spawn(|| 1); let _ = h.join(); }\n";
        // The pipeline service worker is the sanctioned long-lived thread.
        let diags = scan_source(
            "pipeline",
            &PathBuf::from("crates/pipeline/src/service.rs"),
            src,
            ScanScope::for_crate("pipeline"),
        );
        assert!(rules_of(&diags).is_empty(), "got {diags:?}");
        // rockpool and the unscoped harness crates never flag.
        assert!(scan("rockpool", src).is_empty());
        assert!(scan("experiments", src).is_empty());
    }

    // ---- socket discipline ----

    #[test]
    fn flags_raw_sockets_in_scoped_crates() {
        let listen = "fn f() { let l = std::net::TcpListener::bind(\"127.0.0.1:0\"); }\n";
        assert_eq!(rules_of(&scan("pipeline", listen)), vec![Rule::RawSocket]);
        let connect = "fn f() { let s = std::net::TcpStream::connect(\"127.0.0.1:1\"); }\n";
        assert_eq!(
            rules_of(&scan("optimizers", connect)),
            vec![Rule::RawSocket]
        );
        let udp = "fn f() { let u = std::net::UdpSocket::bind(\"127.0.0.1:0\"); }\n";
        assert_eq!(rules_of(&scan("ml", udp)), vec![Rule::RawSocket]);
    }

    #[test]
    fn rockserve_is_the_sanctioned_socket_home() {
        let src = "fn f() { let l = std::net::TcpListener::bind(\"127.0.0.1:0\"); let s = std::net::TcpStream::connect(\"127.0.0.1:1\"); }\n";
        assert!(scan("rockserve", src).is_empty());
        // Unscoped harness crates never flag either.
        assert!(scan("experiments", src).is_empty());
    }

    #[test]
    fn socket_tokens_in_strings_and_identifiers_do_not_flag() {
        let src = "fn f() -> &'static str { \"TcpListener goes through rockserve\" }\nfn g(my_tcp_stream_count: usize) -> usize { my_tcp_stream_count }\n";
        assert!(scan("pipeline", src).is_empty());
    }

    #[test]
    fn scoped_spawn_through_the_pool_is_clean() {
        let src =
            "fn f(xs: &[u64]) -> Vec<u64> { rockpool::Pool::from_env().map(xs, |_, x| x + 1) }\n";
        assert!(scan("optimizers", src).is_empty());
    }

    // ---- float-safety ----

    #[test]
    fn flags_partial_cmp_unwrap_once_not_twice() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let diags = scan("ml", src);
        assert_eq!(rules_of(&diags), vec![Rule::PartialCmpUnwrap]);
    }

    #[test]
    fn flags_float_sort_via_partial_cmp_without_unwrap() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n";
        let diags = scan("ml", src);
        assert_eq!(rules_of(&diags), vec![Rule::FloatSort]);
    }

    #[test]
    fn total_cmp_is_clean() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(scan("ml", src).is_empty());
    }

    #[test]
    fn flags_nan_literals() {
        let src = "fn f() -> f64 { f64::NAN }\n";
        assert_eq!(rules_of(&scan("optimizers", src)), vec![Rule::NanLiteral]);
    }

    // ---- suppressions ----

    #[test]
    fn justified_allow_suppresses_same_line_and_next_line() {
        let same = "fn f(v: &[u32]) -> u32 { v[0] } // rhlint:allow(slice-index): len asserted by caller\n";
        assert!(scan("rockhopper", same).is_empty());
        let above = "// rhlint:allow(unwrap): infallible — the mutex cannot be poisoned here\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(scan("pipeline", above).is_empty());
    }

    #[test]
    fn allow_without_justification_is_itself_a_violation() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // rhlint:allow(unwrap)\n";
        let diags = scan("pipeline", src);
        assert_eq!(rules_of(&diags), vec![Rule::Unwrap, Rule::BadSuppression]);
    }

    #[test]
    fn allow_of_wrong_rule_does_not_suppress() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // rhlint:allow(expect): wrong rule\n";
        let diags = scan("pipeline", src);
        assert_eq!(rules_of(&diags), vec![Rule::Unwrap]);
    }

    #[test]
    fn unknown_rule_in_allow_is_malformed() {
        let src = "// rhlint:allow(no-such-rule): whatever\nfn f() {}\n";
        let diags = scan("pipeline", src);
        assert_eq!(rules_of(&diags), vec![Rule::BadSuppression]);
    }

    #[test]
    fn multi_rule_allow_covers_both() {
        let src =
            "fn f(v: &[Option<u32>]) -> u32 { v[0].unwrap() } // rhlint:allow(slice-index, unwrap): fixture guarantees one element\n";
        assert!(scan("pipeline", src).is_empty());
    }
}
