//! `annot-lint` — the workspace's repo-invariant lint pass.
//!
//! Rustc and clippy enforce language-level rules; this binary enforces the
//! *project* rules that no off-the-shelf lint knows about, by line-level
//! text analysis over the workspace sources:
//!
//! 1. **Facade bypass** — `annot-service` (the concurrent decision server)
//!    must reach `std::sync` / `std::thread` only through its private
//!    `sync` facade (`crates/service/src/sync.rs`), so one file decides
//!    which primitives the `annot_loom` feature swaps onto the vendored
//!    model checker that the cache's loom models run on (the mutex and
//!    thread scopes; the atomics stay `std`'s).  A direct `std::sync` /
//!    `std::thread` mention anywhere else in `crates/service/src` is a
//!    violation, and so is one anywhere in `crates/core/src`: `annot-core`
//!    runs on one thread and has no facade.
//! 2. **Undocumented `Relaxed`** — every `Ordering::Relaxed` in non-test
//!    code must carry a `// relaxed:` justification on the same line or the
//!    few lines above, stating why the weakest ordering suffices.
//! 3. **Undocumented panic** — `.unwrap()` / `.expect(` / `panic!(` in
//!    non-test library code must carry a `// invariant:` comment (same
//!    line or the few lines above) documenting the invariant that makes the
//!    panic unreachable, or the contract that documents it.  Binary targets
//!    (`src/bin/`) are exempt: CLI tools may panic on bad input.
//! 4. **Wall clock in deterministic code** — `Instant::now` / `SystemTime`
//!    must not appear in the deterministic search crates (`core`, `query`,
//!    `hom`); timing belongs in the bench harness.
//! 5. **Full-sample oracle walk** — the oracle search space is quotiented
//!    through `Semiring::decisive_samples()` (PR 9); a direct
//!    `sample_elements()` call in `crates/core` non-test code must carry a
//!    `// full-samples:` justification (same line or the few lines above)
//!    saying why the complete set is deliberate — e.g. the naive
//!    differential reference, or an exact enumeration over a finite
//!    carrier.
//!
//! Test code (everything from the first `#[cfg(test)]`-style attribute to
//! the end of the file — test modules idiomatically sit last) is exempt
//! from rules 2–5.  Comment-only mentions never count: the scan strips
//! line comments before matching, so prose may name `std::thread` freely.
//!
//! Exit status is non-zero when any violation is found, which is how CI
//! gates on it: `cargo run -p annot-lint`.

use std::fmt;
use std::path::{Path, PathBuf};

/// How many lines above an occurrence a justification comment may sit —
/// enough for a multi-line justification whose marker opens the comment.
const JUSTIFICATION_WINDOW: usize = 4;

/// Which project rule a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    FacadeBypass,
    UndocumentedRelaxed,
    UndocumentedPanic,
    WallClock,
    FullSampleOracle,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, hint) = match self {
            Rule::FacadeBypass => (
                "facade-bypass",
                "annot-service goes through its sync facade, not std::sync/std::thread; \
                 annot-core runs on one thread",
            ),
            Rule::UndocumentedRelaxed => (
                "undocumented-relaxed",
                "add a `// relaxed:` comment justifying the ordering",
            ),
            Rule::UndocumentedPanic => (
                "undocumented-panic",
                "add a `// invariant:` comment documenting why this cannot panic",
            ),
            Rule::WallClock => (
                "wall-clock",
                "no Instant::now/SystemTime in deterministic search code",
            ),
            Rule::FullSampleOracle => (
                "full-sample-oracle",
                "oracle code searches decisive_samples(); add a `// full-samples:` \
                 justification for a deliberate full-set enumeration",
            ),
        };
        write!(f, "{name}: {hint}")
    }
}

/// One finding: where and what.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    rule: Rule,
    line: usize,
    excerpt: String,
}

/// The path-derived facts that decide which rules apply to a file.
#[derive(Clone, Copy, Debug, Default)]
struct FileClass {
    /// Inside `crates/core/src`, or inside `crates/service/src` but not
    /// its facade `sync.rs` (rule 1).
    facade_scoped: bool,
    /// Inside a deterministic search crate: `core`, `query`, `hom` (rule 4).
    deterministic: bool,
    /// A `src/bin/` target (exempt from rule 3).
    binary: bool,
    /// Inside `crates/core/src` — home of the oracle search paths (rule 5).
    oracle_scoped: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path with `/` separators.
    fn of(path: &str) -> FileClass {
        FileClass {
            facade_scoped: path.starts_with("crates/core/src/")
                || (path.starts_with("crates/service/src/")
                    && path != "crates/service/src/sync.rs"),
            deterministic: ["crates/core/src/", "crates/query/src/", "crates/hom/src/"]
                .iter()
                .any(|p| path.starts_with(p)),
            binary: path.contains("/src/bin/"),
            oracle_scoped: path.starts_with("crates/core/src/"),
        }
    }
}

/// The code part of a line: everything before the first `//`.  Text-level
/// (a `//` inside a string literal truncates early), which can only make
/// the lint lenient, never noisy.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Whether a justification `marker` appears on `line` or within the
/// [`JUSTIFICATION_WINDOW`] lines above it.
fn justified(lines: &[&str], line: usize, marker: &str) -> bool {
    lines[line.saturating_sub(JUSTIFICATION_WINDOW)..=line]
        .iter()
        .any(|l| l.contains(marker))
}

/// Lints one file's `content` under the rules selected by `class`.
/// Pure — the unit tests drive it with synthetic fixtures.
fn lint_source(class: FileClass, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let mut violations = Vec::new();
    let mut in_tests = false;
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
            in_tests = true;
        }
        let code = code_part(line);
        let mut flag = |rule: Rule| {
            violations.push(Violation {
                rule,
                line: i + 1,
                excerpt: line.trim().to_string(),
            });
        };
        if class.facade_scoped && (code.contains("std::sync") || code.contains("std::thread")) {
            flag(Rule::FacadeBypass);
        }
        if in_tests {
            continue;
        }
        if code.contains("Ordering::Relaxed") && !justified(&lines, i, "// relaxed:") {
            flag(Rule::UndocumentedRelaxed);
        }
        if !class.binary
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!("))
            && !justified(&lines, i, "// invariant:")
        {
            flag(Rule::UndocumentedPanic);
        }
        if class.deterministic && (code.contains("Instant::now") || code.contains("SystemTime")) {
            flag(Rule::WallClock);
        }
        if class.oracle_scoped
            && code.contains("sample_elements")
            && !justified(&lines, i, "// full-samples:")
        {
            flag(Rule::FullSampleOracle);
        }
    }
    violations
}

/// Collects the workspace `.rs` files the lint covers: `src/` of the root
/// package and of every `crates/*` member except `annot-lint` itself.
/// `vendor/` (offline shims with their own conventions), `tests/` and
/// `benches/` are out of scope.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.file_name() != "lint" {
                roots.push(entry.path().join("src"));
            }
        }
    }
    while let Some(dir) = roots.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                roots.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn main() {
    // The workspace root: an explicit argument, or two levels above this
    // crate's manifest (crates/lint → crates → root), so the binary works
    // from any cwd.
    let root = match std::env::args_os().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .ancestors()
                .nth(2)
                .unwrap_or(Path::new("."))
                .to_path_buf()
        }
    };
    let mut total = 0usize;
    let mut scanned = 0usize;
    for path in collect_files(&root) {
        let Ok(content) = std::fs::read_to_string(&path) else {
            eprintln!("annot-lint: cannot read {}", path.display());
            total += 1;
            continue;
        };
        scanned += 1;
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        for v in lint_source(FileClass::of(&rel), &content) {
            println!("{rel}:{}: [{}]\n    {}", v.line, v.rule, v.excerpt);
            total += 1;
        }
    }
    if total > 0 {
        eprintln!("annot-lint: {total} violation(s) in {scanned} file(s)");
        std::process::exit(1);
    }
    println!("annot-lint: {scanned} files clean");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(class: FileClass, content: &str) -> Vec<Rule> {
        lint_source(class, content)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    const CORE: &str = "crates/core/src/brute_force.rs";
    const QUERY: &str = "crates/query/src/eval.rs";

    #[test]
    fn facade_bypass_fires_in_every_core_file() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(rules(FileClass::of(CORE), src), vec![Rule::FacadeBypass]);
        // annot-core runs on one thread: no file of it is a facade.
        assert_eq!(
            rules(FileClass::of("crates/core/src/sync.rs"), src),
            vec![Rule::FacadeBypass]
        );
        assert_eq!(rules(FileClass::of(QUERY), src), vec![]);
        let thread = "let n = std::thread::available_parallelism();\n";
        assert_eq!(rules(FileClass::of(CORE), thread), vec![Rule::FacadeBypass]);
    }

    #[test]
    fn service_sources_are_facade_scoped() {
        let src = "use std::sync::Mutex;\n";
        for path in [
            "crates/service/src/server.rs",
            "crates/service/src/cache.rs",
            "crates/service/src/bin/annot_serve.rs",
        ] {
            assert_eq!(
                rules(FileClass::of(path), src),
                vec![Rule::FacadeBypass],
                "{path}"
            );
        }
        // The facade itself is where the primitives come from …
        assert_eq!(
            rules(FileClass::of("crates/service/src/sync.rs"), src),
            vec![]
        );
        // … the service is not wall-clock scoped (a server may measure
        // time), and other crates stay unaffected.
        let clock = "let t = std::time::Instant::now();\n";
        assert_eq!(
            rules(FileClass::of("crates/service/src/server.rs"), clock),
            vec![]
        );
        assert_eq!(
            rules(FileClass::of("crates/semiring/src/lib.rs"), src),
            vec![]
        );
    }

    #[test]
    fn facade_mentions_in_comments_are_ignored() {
        let src = "//! Uses `std::thread::scope` under the hood.\nfn f() {} // std::sync\n";
        assert_eq!(rules(FileClass::of(CORE), src), vec![]);
    }

    #[test]
    fn relaxed_requires_a_nearby_justification() {
        let bare = "x.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules(FileClass::of(QUERY), bare),
            vec![Rule::UndocumentedRelaxed]
        );
        let same_line = "x.load(Ordering::Relaxed); // relaxed: counter only\n";
        assert_eq!(rules(FileClass::of(QUERY), same_line), vec![]);
        let above = "// relaxed: counter only\n// (spans two lines)\nx.load(Ordering::Relaxed);\n";
        assert_eq!(rules(FileClass::of(QUERY), above), vec![]);
        let too_far = "// relaxed: counter only\n\n\n\n\n\nx.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules(FileClass::of(QUERY), too_far),
            vec![Rule::UndocumentedRelaxed]
        );
    }

    #[test]
    fn panics_require_an_invariant_note_outside_tests_and_bins() {
        for bare in [
            "v.unwrap();\n",
            "v.expect(\"set\");\n",
            "panic!(\"boom\");\n",
        ] {
            assert_eq!(
                rules(FileClass::of(QUERY), bare),
                vec![Rule::UndocumentedPanic],
                "{bare:?}"
            );
        }
        let documented = "// invariant: seeded above\nv.unwrap();\n";
        assert_eq!(rules(FileClass::of(QUERY), documented), vec![]);
        let bin = FileClass::of("crates/bench/src/bin/bench_gate.rs");
        assert_eq!(rules(bin, "v.unwrap();\n"), vec![]);
    }

    #[test]
    fn fallible_combinators_do_not_trip_the_panic_rule() {
        let src = "v.unwrap_or_else(|| 3);\nv.unwrap_or(3);\nv.expect_err(\"want failure\");\n";
        assert_eq!(rules(FileClass::of(QUERY), src), vec![]);
    }

    #[test]
    fn test_code_is_exempt_from_all_but_the_facade_rule() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { v.unwrap(); }\n    \
                   fn g() { x.load(Ordering::Relaxed); }\n    use std::sync::Mutex;\n}\n";
        assert_eq!(rules(FileClass::of(CORE), src), vec![Rule::FacadeBypass]);
        assert_eq!(rules(FileClass::of(QUERY), src), vec![]);
        let gated =
            "#[cfg(all(test, feature = \"annot_loom\"))]\nmod m { fn f() { v.unwrap(); } }\n";
        assert_eq!(rules(FileClass::of(QUERY), gated), vec![]);
    }

    #[test]
    fn wall_clock_is_rejected_in_deterministic_crates_only() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules(FileClass::of(QUERY), src), vec![Rule::WallClock]);
        assert_eq!(
            rules(FileClass::of("crates/hom/src/search.rs"), src),
            vec![Rule::WallClock]
        );
        assert_eq!(rules(FileClass::of("crates/bench/src/lib.rs"), src), vec![]);
        let sys = "let t = SystemTime::now();\n";
        assert_eq!(rules(FileClass::of(CORE), sys), vec![Rule::WallClock]);
    }

    #[test]
    fn full_sample_calls_in_core_require_a_justification() {
        let bare = "let samples = K::sample_elements();\n";
        assert_eq!(
            rules(FileClass::of(CORE), bare),
            vec![Rule::FullSampleOracle]
        );
        // A justification on the same line or within the window passes.
        let same_line = "let samples = K::sample_elements(); // full-samples: exact carrier\n";
        assert_eq!(rules(FileClass::of(CORE), same_line), vec![]);
        let above = "// full-samples: the naive reference deliberately keeps\n\
                     // the complete set.\nlet samples = K::sample_elements();\n";
        assert_eq!(rules(FileClass::of(CORE), above), vec![]);
        let too_far =
            "// full-samples: exact carrier\n\n\n\n\n\nlet samples = K::sample_elements();\n";
        assert_eq!(
            rules(FileClass::of(CORE), too_far),
            vec![Rule::FullSampleOracle]
        );
        // The quotiented accessor is what oracle code should call.
        let decisive = "let samples = K::decisive_samples();\n";
        assert_eq!(rules(FileClass::of(CORE), decisive), vec![]);
        // Outside crates/core the rule does not apply (the semiring crate
        // *defines* sample_elements, tests drive it freely).
        assert_eq!(rules(FileClass::of(QUERY), bare), vec![]);
        assert_eq!(
            rules(FileClass::of("crates/semiring/src/ops.rs"), bare),
            vec![]
        );
        // Test modules in core are exempt, comment mentions never count.
        let in_tests = "#[cfg(test)]\nmod tests {\n    let s = K::sample_elements();\n}\n";
        assert_eq!(rules(FileClass::of(CORE), in_tests), vec![]);
        let comment = "/// Draws from `K::sample_elements()`.\nfn f() {}\n";
        assert_eq!(rules(FileClass::of(CORE), comment), vec![]);
    }

    #[test]
    fn violations_carry_line_numbers_and_excerpts() {
        let src = "fn f() {}\nv.unwrap();\n";
        let found = lint_source(FileClass::of(QUERY), src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].excerpt, "v.unwrap();");
    }

    /// The real tree must stay clean — the same scan CI runs via
    /// `cargo run -p annot-lint`, applied to the workspace this test ran in.
    #[test]
    fn workspace_tree_is_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint sits two levels below the workspace root")
            .to_path_buf();
        let mut dirty = Vec::new();
        for path in collect_files(&root) {
            let content = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let rel = path
                .strip_prefix(&root)
                .expect("collected under root")
                .to_string_lossy()
                .replace('\\', "/");
            for v in lint_source(FileClass::of(&rel), &content) {
                dirty.push(format!("{rel}:{}: {:?}", v.line, v.rule));
            }
        }
        assert!(dirty.is_empty(), "lint violations:\n{}", dirty.join("\n"));
    }
}
