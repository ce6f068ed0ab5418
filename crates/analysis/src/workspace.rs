//! Workspace discovery and the end-to-end lint run.
//!
//! Walks the repository the same way `cargo` sees it — `crates/*/src`,
//! `crates/*/tests`, `crates/*/benches`, plus the root facade crate's
//! `src/`, `tests/` and `examples/` — classifies every `.rs` file
//! ([`crate::lints::FileClass`]), and runs the lint pass with the checked-in
//! allowlist applied. Directories named `fixtures` are skipped: they hold
//! deliberately-violating sources for the linter's own golden tests.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allowlist::Allowlist;
use crate::lints::{lint_source, FileClass, Finding, SourceFile};
use crate::report::Report;

/// Name of the checked-in allowlist at the workspace root.
pub const ALLOWLIST_FILE: &str = "analysis-allow.list";

/// One discovered file: lint metadata plus its on-disk location.
#[derive(Clone, Debug)]
pub struct DiscoveredFile {
    pub meta: SourceFile,
    pub abs_path: PathBuf,
}

/// Discovers every lintable `.rs` file under `root`, deterministically
/// ordered by workspace-relative path.
pub fn discover(root: &Path) -> io::Result<Vec<DiscoveredFile>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for krate in sorted_dir(&crates)? {
            if !krate.is_dir() {
                continue;
            }
            let name = file_name(&krate);
            for sub in ["src", "tests", "benches"] {
                collect(&krate.join(sub), root, &name, &mut files)?;
            }
        }
    }
    // The root facade crate (`dynplat`) and its test/example targets.
    for sub in ["src", "tests", "examples"] {
        collect(&root.join(sub), root, "dynplat", &mut files)?;
    }
    files.sort_by(|a, b| a.meta.path.cmp(&b.meta.path));
    Ok(files)
}

/// Runs the full lint pass over `files`, applying the allowlist text (if
/// any) and reporting scan statistics.
pub fn run(files: &[DiscoveredFile], allowlist_text: Option<&str>) -> io::Result<Report> {
    let mut findings: Vec<Finding> = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file.abs_path)?;
        findings.extend(lint_source(&file.meta, &source));
    }
    let (active, suppressed) = match allowlist_text {
        Some(text) => {
            let (allow, mut errs) = Allowlist::parse(text, ALLOWLIST_FILE);
            let (mut active, suppressed) = allow.apply(findings, ALLOWLIST_FILE);
            errs.append(&mut active);
            (errs, suppressed)
        }
        None => (findings, Vec::new()),
    };
    Ok(Report {
        active,
        suppressed,
        files_scanned: files.len(),
    })
}

/// Discover + read allowlist + lint, rooted at a workspace checkout.
pub fn run_root(root: &Path) -> io::Result<Report> {
    let files = discover(root)?;
    let allow_path = root.join(ALLOWLIST_FILE);
    let allow_text = match fs::read_to_string(&allow_path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    run(&files, allow_text.as_deref())
}

/// Classifies one path (workspace-relative, `/`-separated) the way the
/// lint scopes expect. Exposed for the CLI's explicit-file mode and the
/// fixture tests.
pub fn classify(rel_path: &str, crate_name: &str) -> SourceFile {
    let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs");
    let test_like = ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|d| rel_path.contains(d));
    let class = if test_like {
        FileClass::TestLike
    } else if is_bin {
        FileClass::Bin
    } else {
        FileClass::Lib
    };
    // Crate roots that must carry `#![forbid(unsafe_code)]`: every
    // library root and every binary root — `src/main.rs`,
    // `src/bin/<name>.rs` and `src/bin/<name>/main.rs`. Other files under
    // `src/bin/<name>/` are modules of that binary, not roots.
    let is_root = rel_path.ends_with("/src/lib.rs")
        || rel_path.ends_with("/src/main.rs")
        || rel_path
            .split_once("/src/bin/")
            .is_some_and(|(_, rest)| matches!(rest.split_once('/'), None | Some((_, "main.rs"))));
    SourceFile {
        path: rel_path.to_owned(),
        crate_name: crate_name.to_owned(),
        class,
        is_root,
    }
}

fn collect(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<DiscoveredFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_dir(dir)? {
        if entry.is_dir() {
            if file_name(&entry) == "fixtures" {
                continue; // deliberately-violating lint-test inputs
            }
            collect(&entry, root, crate_name, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            // `classify` keys off `/`-separated interior markers; ensure a
            // leading component so root-level `src/lib.rs` still matches.
            let keyed = format!("/{rel}");
            let mut meta = classify(&keyed, crate_name);
            meta.path = rel;
            out.push(DiscoveredFile {
                meta,
                abs_path: entry,
            });
        }
    }
    Ok(())
}

fn sorted_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_target_kind() {
        let lib = classify("/crates/comm/src/ring.rs", "comm");
        assert_eq!(lib.class, FileClass::Lib);
        assert!(!lib.is_root);

        let root = classify("/crates/comm/src/lib.rs", "comm");
        assert!(root.is_root);
        assert_eq!(root.class, FileClass::Lib);

        let bin = classify("/crates/bench/src/bin/bench.rs", "bench");
        assert_eq!(bin.class, FileClass::Bin);
        assert!(bin.is_root);

        let bin_dir_root = classify("/crates/bench/src/bin/dynplat-bench/main.rs", "bench");
        assert_eq!(bin_dir_root.class, FileClass::Bin);
        assert!(bin_dir_root.is_root);

        let bin_module = classify(
            "/crates/bench/src/bin/dynplat-bench/e15_fleet_campaign.rs",
            "bench",
        );
        assert_eq!(bin_module.class, FileClass::Bin);
        assert!(!bin_module.is_root);

        let test = classify("/crates/obs/tests/concurrency.rs", "obs");
        assert_eq!(test.class, FileClass::TestLike);
        assert!(!test.is_root);

        let example = classify("/examples/platoon.rs", "dynplat");
        assert_eq!(example.class, FileClass::TestLike);

        let facade = classify("/src/lib.rs", "dynplat");
        assert!(facade.is_root);
        assert_eq!(facade.class, FileClass::Lib);
    }
}
