//! Incremental-cache soundness: editing a *callee* must invalidate the
//! transitive *callers'* deep results, even though the callers' own files
//! are byte-identical and their shallow facts are served from the cache.
//!
//! The regression scenario: `root.rs` adds `leaf_cycles() + base_cycles`
//! where `leaf_cycles` lives in `leaf.rs`. With the leaf returning 3 the
//! sum has headroom and L010 stays silent. We warm the cache, then edit
//! only `leaf.rs` to return u64::MAX and re-run *with the same cache* —
//! the root-file L010 finding must appear (the call-graph dependency
//! hash caught the callee edit) while the unchanged `root.rs` still
//! counts as a cache hit (the cache was consulted, not bypassed).

use std::path::{Path, PathBuf};

use aurora_lint::cache::Cache;
use aurora_lint::config::LintConfig;
use aurora_lint::{analyze_with, cache_key};

const LINT_TOML: &str = r#"exclude = []

[[hot]]
file = "root.rs"
roots = ["tally_root"]
"#;

const ROOT_RS: &str = r#"pub fn tally_root(base_cycles: u64) -> u64 {
    bridge_cycles(base_cycles)
}

fn bridge_cycles(base_cycles: u64) -> u64 {
    leaf_cycles() + base_cycles
}
"#;

const LEAF_BENIGN: &str = "pub fn leaf_cycles() -> u64 {\n    3\n}\n";

const LEAF_SENTINEL: &str = "pub fn leaf_cycles() -> u64 {\n    18_446_744_073_709_551_615\n}\n";

fn write_workspace(dir: &Path, leaf_body: &str) {
    std::fs::create_dir_all(dir).expect("create workspace dir");
    std::fs::write(dir.join("lint.toml"), LINT_TOML).expect("write lint.toml");
    std::fs::write(dir.join("root.rs"), ROOT_RS).expect("write root.rs");
    std::fs::write(dir.join("leaf.rs"), leaf_body).expect("write leaf.rs");
}

fn run_cached(dir: &Path, cache_path: &Path, key: u64) -> (aurora_lint::Report, Cache) {
    let cfg = LintConfig::load(&dir.join("lint.toml")).expect("parse lint.toml");
    let mut cache = Cache::load(cache_path, key);
    let report = analyze_with(dir, &cfg, Some(&mut cache)).expect("analysis succeeds");
    (report, cache)
}

#[test]
fn callee_edit_invalidates_transitive_caller() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_workspace(&dir, LEAF_BENIGN);
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(LINT_TOML);

    // Warm run: leaf returns 3, the sum has headroom, nothing fires.
    let (warm, cache) = run_cached(&dir, &cache_path, key);
    assert!(
        warm.findings.is_empty(),
        "benign workspace must be clean, got:\n{}",
        warm.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    cache.save(&cache_path);
    assert!(cache_path.exists(), "warm cache must persist");

    // Edit ONLY the leaf: root.rs stays byte-identical.
    std::fs::write(dir.join("leaf.rs"), LEAF_SENTINEL).expect("edit leaf.rs");

    // Re-run with the warm cache — no --no-cache escape hatch.
    let (cold, _) = run_cached(&dir, &cache_path, key);
    assert!(
        cold.cache_hits > 0,
        "unchanged root.rs must be served from the cache (got 0 hits)"
    );
    let fired = cold
        .findings
        .iter()
        .any(|f| f.file == "root.rs" && f.rule == "L010");
    assert!(
        fired,
        "callee edit must resurface the caller's L010 finding, got:\n{}",
        cold.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The inverse property: with *no* edits, a second run over the warm
/// cache reproduces the identical report — the dep-hash must not spuriously
/// invalidate, and cached deep facts must round-trip findings faithfully.
#[test]
fn warm_rerun_is_stable_and_fully_cached() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-stable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Seed with the sentinel so the report is non-trivial.
    write_workspace(&dir, LEAF_SENTINEL);
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(LINT_TOML);

    let (first, cache) = run_cached(&dir, &cache_path, key);
    assert!(
        first
            .findings
            .iter()
            .any(|f| f.file == "root.rs" && f.rule == "L010"),
        "sentinel workspace must fire L010 in root.rs"
    );
    cache.save(&cache_path);

    let (second, _) = run_cached(&dir, &cache_path, key);
    assert_eq!(second.cache_hits, 2, "both .rs files must hit the cache");
    let render = |r: &aurora_lint::Report| {
        r.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render(&first),
        render(&second),
        "cached re-run must reproduce the report verbatim"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Number of spoke files in the many-file workspace: enough that a
/// parallel scan finishes files out of submission order.
const SPOKES: usize = 16;

/// Writes a hub whose hot root calls one function in each of [`SPOKES`]
/// spoke files. Spoke `i` opens with a different amount of padding, so
/// files differ in size (and parse time) and each spoke's allocation
/// sits on its own line.
fn write_many_file_workspace(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create workspace dir");
    std::fs::write(
        dir.join("lint.toml"),
        "exclude = []\n\n[[hot]]\nfile = \"hub.rs\"\nroots = [\"hub_root\"]\n",
    )
    .expect("write lint.toml");
    let calls: String = (0..SPOKES)
        .map(|i| format!("    total += spoke_{i:02}();\n"))
        .collect();
    std::fs::write(
        dir.join("hub.rs"),
        format!("pub fn hub_root() -> usize {{\n    let mut total = 0;\n{calls}    total\n}}\n"),
    )
    .expect("write hub.rs");
    for i in 0..SPOKES {
        let pads = (i * 7) % SPOKES * 12;
        let mut src: String = (0..pads)
            .map(|k| format!("fn pad_{i:02}_{k}(x: u64) -> u64 {{\n    x ^ {k}\n}}\n\n"))
            .collect();
        src.push_str(&format!(
            "pub fn spoke_{i:02}() -> usize {{\n    let v: Vec<u64> = Vec::new();\n    v.len()\n}}\n"
        ));
        std::fs::write(dir.join(format!("spoke_{i:02}.rs")), src).expect("write spoke");
    }
}

/// A cold run (empty cache) and a warm run (every file served from the
/// cache) over a many-file tree report the same findings. The parallel
/// scan returns analyses in completion order, so filling the cache by
/// position would store one file's facts under another file's path and
/// the warm run would report findings at the wrong files and lines.
#[test]
fn cold_and_warm_runs_agree_on_many_files() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aurora-lint-cache-many-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_many_file_workspace(&dir);
    let cache_path = dir.join("aurora-lint.cache");
    let key = cache_key(&std::fs::read_to_string(dir.join("lint.toml")).expect("read toml"));
    let render = |r: &aurora_lint::Report| {
        r.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };

    let (cold, cache) = run_cached(&dir, &cache_path, key);
    assert_eq!(cold.cache_hits, 0, "first run must be cold");
    let cold_findings = render(&cold);
    for i in 0..SPOKES {
        let file = format!("spoke_{i:02}.rs");
        assert!(
            cold.findings
                .iter()
                .any(|f| f.file == file && f.rule == "L001"),
            "{file} must report its allocation, got:\n{}",
            cold_findings.join("\n")
        );
    }
    cache.save(&cache_path);

    let (warm, _) = run_cached(&dir, &cache_path, key);
    assert_eq!(
        warm.cache_hits,
        SPOKES + 1,
        "every file must be served from the cache"
    );
    assert_eq!(
        render(&warm),
        cold_findings,
        "warm run must reproduce the cold findings"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
