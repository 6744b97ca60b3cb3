//! Records the commit this crate is built from as `ULP_GIT_SHA`, which
//! `report::host_block` prints as `host.git_sha`: `git rev-parse HEAD`, with
//! `-dirty` appended when a tracked file differs from that commit, and
//! `unknown` when the source is not a git checkout. Taken at build time, it
//! names the code the binary holds wherever the binary runs.

use std::process::Command;

/// `git <args>`'s trimmed output, if it ran and succeeded.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

fn main() {
    let sha = git(&["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |sha| {
            // No optional locks: a status that refreshed the index would
            // write it, and nothing here should change the checkout.
            let changed = git(&["--no-optional-locks", "status", "--porcelain", "-uno"]);
            match changed {
                Some(files) if files.is_empty() => sha,
                _ => format!("{sha}-dirty"),
            }
        },
    );
    println!("cargo:rustc-env=ULP_GIT_SHA={sha}");
    // Built again when HEAD moves (a checkout, or a commit on its branch) or
    // a crate's source changes.
    println!("cargo:rerun-if-changed=../../crates");
    if let Some(dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        println!("cargo:rerun-if-changed={dir}/HEAD");
        if let Some(branch) = git(&["symbolic-ref", "-q", "HEAD"]) {
            let loose = format!("{dir}/{branch}");
            if std::path::Path::new(&loose).exists() {
                println!("cargo:rerun-if-changed={loose}");
            }
        }
    }
}
