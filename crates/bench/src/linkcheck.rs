//! Offline Markdown link checker for the repository's docs.
//!
//! CI runs the `linkcheck` binary over `README.md` and `docs/*.md` so a
//! moved file or renamed heading breaks the build instead of the reader.
//! The checker is deliberately small and dependency-free:
//!
//! * **Inline links** `[text](target)` are extracted outside fenced code
//!   blocks (the repo's Markdown does not use reference-style links).
//! * `http(s)://` and `mailto:` targets are skipped — the build
//!   environment has no network, and external rot is not this gate's job.
//! * Relative targets must resolve to an existing file or directory, and a
//!   `#fragment` must match a heading anchor in the target file, using
//!   GitHub's slug rules (lowercase, punctuation stripped, spaces to
//!   dashes).

use std::fmt;
use std::path::{Path, PathBuf};

/// One broken link: where it was found and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenLink {
    /// File containing the link.
    pub source: PathBuf,
    /// The link target as written.
    pub target: String,
    /// Why it does not resolve.
    pub reason: String,
}

impl fmt::Display for BrokenLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.source.display(), self.target, self.reason)
    }
}

/// Extracts inline-link targets from Markdown, skipping fenced code blocks
/// and inline code spans.
fn extract_links(markdown: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut in_code = false;
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b'[' if !in_code => {
                    // Find the matching "](" then the closing ")".
                    if let Some(close) = line[i..].find("](") {
                        let start = i + close + 2;
                        if let Some(end) = line[start..].find(')') {
                            let target = &line[start..start + end];
                            if !target.is_empty() {
                                links.push(target.to_string());
                            }
                            i = start + end;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    links
}

/// GitHub-style heading slug: lowercase, alphanumerics, dashes and
/// underscores kept, spaces become dashes, everything else dropped.
fn heading_slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors of a Markdown document (ATX `#` headings only,
/// outside fenced code blocks).
fn heading_anchors(markdown: &str) -> Vec<String> {
    let mut anchors = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            fenced = !fenced;
            continue;
        }
        if !fenced && trimmed.starts_with('#') {
            let title = trimmed.trim_start_matches('#');
            anchors.push(heading_slug(title));
        }
    }
    anchors
}

/// Whether a target is external (not this gate's job to verify).
fn is_external(target: &str) -> bool {
    target.starts_with("http://") || target.starts_with("https://") || target.starts_with("mailto:")
}

/// Checks every relative link in `file` against the filesystem, appending
/// failures to `broken`.
///
/// # Errors
///
/// Returns an I/O error when `file` itself cannot be read — a missing
/// input is a caller mistake, not a broken link.
fn check_file(file: &Path, broken: &mut Vec<BrokenLink>) -> std::io::Result<()> {
    let text = std::fs::read_to_string(file)?;
    let dir = file.parent().unwrap_or_else(|| Path::new("."));
    for target in extract_links(&text) {
        if is_external(&target) {
            continue;
        }
        let (path_part, fragment) = match target.split_once('#') {
            Some((p, f)) => (p, Some(f)),
            None => (target.as_str(), None),
        };
        // Resolve the target document: a bare "#fragment" points into the
        // current file.
        let resolved = if path_part.is_empty() { file.to_path_buf() } else { dir.join(path_part) };
        if !resolved.exists() {
            broken.push(BrokenLink {
                source: file.to_path_buf(),
                target: target.clone(),
                reason: format!("missing file {}", resolved.display()),
            });
            continue;
        }
        if let Some(frag) = fragment {
            if resolved.is_dir() {
                broken.push(BrokenLink {
                    source: file.to_path_buf(),
                    target: target.clone(),
                    reason: "fragment on a directory link".into(),
                });
                continue;
            }
            let doc = std::fs::read_to_string(&resolved)?;
            if !heading_anchors(&doc).iter().any(|a| a == frag) {
                broken.push(BrokenLink {
                    source: file.to_path_buf(),
                    target: target.clone(),
                    reason: format!("no heading #{frag} in {}", resolved.display()),
                });
            }
        }
    }
    Ok(())
}

/// Checks a set of files and directories (directories are scanned,
/// non-recursively, for `*.md`), returning every broken link found.
///
/// # Errors
///
/// Propagates I/O errors reading the inputs.
pub fn check_paths(paths: &[PathBuf]) -> std::io::Result<Vec<BrokenLink>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|e| e.extension().is_some_and(|x| x == "md"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(p.clone());
        }
    }
    let mut broken = Vec::new();
    for f in files {
        check_file(&f, &mut broken)?;
    }
    Ok(broken)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_inline_links_outside_code() {
        let md = "\
See [the docs](docs/ARCH.md) and [section](#setup).
```
[not a link](ignored.md)
```
Inline `[also ignored](x.md)` code, then [real](README.md#top).
";
        assert_eq!(extract_links(md), vec!["docs/ARCH.md", "#setup", "README.md#top"]);
    }

    #[test]
    fn slugs_match_github_rules() {
        assert_eq!(heading_slug("Paged KV-cache allocation"), "paged-kv-cache-allocation");
        assert_eq!(heading_slug("perfbench and the BENCH JSON"), "perfbench-and-the-bench-json");
        assert_eq!(heading_slug("  What's new?  "), "whats-new");
        // GitHub keeps underscores (e.g. symbol-named headings).
        assert_eq!(heading_slug("The serve_paged artifact"), "the-serve_paged-artifact");
    }

    #[test]
    fn anchors_skip_fenced_blocks() {
        let md = "# Title\n```sh\n# a comment, not a heading\n```\n## Sub section\n";
        assert_eq!(heading_anchors(md), vec!["title", "sub-section"]);
    }

    #[test]
    fn check_file_flags_missing_targets_and_anchors() {
        let dir = std::env::temp_dir().join(format!("linkcheck_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.md");
        let b = dir.join("b.md");
        std::fs::write(&b, "# Real Heading\n").unwrap();
        std::fs::write(
            &a,
            "[ok](b.md) [ok2](b.md#real-heading) [bad](c.md) [badfrag](b.md#nope) \
             [self](#here)\n# Here\n[ext](https://example.com/x)\n",
        )
        .unwrap();
        let mut broken = Vec::new();
        check_file(&a, &mut broken).unwrap();
        let targets: Vec<&str> = broken.iter().map(|b| b.target.as_str()).collect();
        assert_eq!(targets, vec!["c.md", "b.md#nope"]);
        let all = check_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(all.len(), 2, "directory scan finds the same breaks: {all:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repo_docs_have_no_broken_links() {
        // The gate CI runs, executed as a unit test too: README plus every
        // docs/*.md must link-check clean from the repo root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let broken = check_paths(&[root.join("README.md"), root.join("docs")]).unwrap();
        assert!(broken.is_empty(), "broken links: {broken:?}");
    }
}
