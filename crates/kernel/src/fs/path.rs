//! Minimal absolute-path handling for the mounted filesystems.
//!
//! Paths are handled as **borrowed component slices** (`&[&str]`): a
//! normalized path points into the `cwd` and `path` strings it was built
//! from, so resolving one allocates nothing unless it is unusually deep.

/// Components held inline before [`Components`] spills to the heap.
const INLINE: usize = 16;

/// A normalized path: its components from the root, borrowed from the
/// strings given to [`normalize`]. Dereferences to `[&str]`.
pub struct Components<'a> {
    /// The first `len` entries are the path — unless `spill` is non-empty,
    /// which then holds the whole path (and `len` is 0).
    inline: [&'a str; INLINE],
    len: usize,
    spill: Vec<&'a str>,
}

impl<'a> Components<'a> {
    fn new() -> Components<'a> {
        Components {
            inline: [""; INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, comp: &'a str) {
        if !self.spill.is_empty() {
            self.spill.push(comp);
        } else if self.len < INLINE {
            self.inline[self.len] = comp;
            self.len += 1;
        } else {
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(comp);
            self.len = 0;
        }
    }

    fn pop(&mut self) {
        if self.spill.pop().is_none() {
            self.len = self.len.saturating_sub(1);
        }
    }
}

impl<'a> std::ops::Deref for Components<'a> {
    type Target = [&'a str];

    fn deref(&self) -> &[&'a str] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::fmt::Debug for Components<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Components<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Normalize a path against a current working directory: resolves `.`/`..`,
/// collapses duplicate slashes, and returns the component list from the
/// root. Relative paths are interpreted against `cwd` (itself expected to be
/// normalized and absolute); an absolute `path` never looks at `cwd`.
pub fn normalize<'a>(cwd: &'a str, path: &'a str) -> Components<'a> {
    let mut out = Components::new();
    let base: &str = if path.starts_with('/') { "" } else { cwd };
    for comp in base.split('/').chain(path.split('/')) {
        match comp {
            "" | "." => {}
            ".." => out.pop(),
            c => out.push(c),
        }
    }
    out
}

/// Split a normalized component list into (parent components, final name).
/// Returns `None` for the root itself.
pub fn split_parent<'c, 'a>(comps: &'c [&'a str]) -> Option<(&'c [&'a str], &'a str)> {
    let (last, parent) = comps.split_last()?;
    Some((parent, last))
}

/// If `comps` lies under `prefix`, return the remainder (the mount-relative
/// components). This is the longest-prefix dispatch primitive of the mount
/// table: `/proc/self/stat` against the prefix `["proc"]` yields
/// `["self", "stat"]`; the empty prefix (the root mount) matches everything.
pub fn strip_prefix<'c, 'a>(comps: &'c [&'a str], prefix: &[String]) -> Option<&'c [&'a str]> {
    if comps.len() < prefix.len() {
        return None;
    }
    if comps.iter().zip(prefix).any(|(c, p)| c != p) {
        return None;
    }
    Some(&comps[prefix.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n<'a>(cwd: &'a str, p: &'a str) -> Components<'a> {
        normalize(cwd, p)
    }

    #[test]
    fn absolute_paths_ignore_cwd() {
        assert_eq!(*n("/home", "/tmp/x"), ["tmp", "x"]);
    }

    #[test]
    fn relative_paths_use_cwd() {
        assert_eq!(*n("/home/user", "file"), ["home", "user", "file"]);
    }

    #[test]
    fn dot_and_dotdot_resolve() {
        assert_eq!(*n("/", "/a/./b/../c"), ["a", "c"]);
        assert_eq!(*n("/a/b", ".."), ["a"]);
        assert!(n("/", "/../..").is_empty());
    }

    #[test]
    fn duplicate_slashes_collapse() {
        assert_eq!(*n("/", "//x///y"), ["x", "y"]);
    }

    #[test]
    fn deep_paths_spill_and_come_back() {
        // One component past the inline buffer, then `..` all the way up
        // and down again: the spilled and inline forms must agree.
        let deep: String = (0..=INLINE).map(|i| format!("/d{i}")).collect();
        let comps = n("/", &deep);
        assert_eq!(comps.len(), INLINE + 1);
        assert_eq!(comps[0], "d0");
        assert_eq!(comps[INLINE], format!("d{INLINE}"));
        let up_and_down = format!("{deep}{}/x/y", "/..".repeat(INLINE + 1));
        assert_eq!(*n("/", &up_and_down), ["x", "y"]);
        let one_up = format!("{deep}/..");
        assert_eq!(n("/", &one_up).len(), INLINE);
        assert_eq!(n("/", &one_up), n("/", &deep[..deep.rfind('/').unwrap()]));
    }

    #[test]
    fn strip_prefix_dispatches_mounts() {
        let comps = n("/", "/proc/self/stat");
        let proc_prefix = vec!["proc".to_string()];
        assert_eq!(
            strip_prefix(&comps, &proc_prefix),
            Some(&["self", "stat"][..])
        );
        // The empty (root) prefix matches everything.
        assert_eq!(strip_prefix(&comps, &[]), Some(&comps[..]));
        // The mount point itself strips to the empty remainder.
        assert_eq!(strip_prefix(&["proc"], &proc_prefix), Some(&[][..]));
        // Non-prefixes and sibling paths do not match.
        assert_eq!(strip_prefix(&n("/", "/prox/x"), &proc_prefix), None);
        assert_eq!(strip_prefix(&[], &proc_prefix), None);
    }

    #[test]
    fn split_parent_works() {
        let comps = n("/", "/a/b/c");
        let (parent, name) = split_parent(&comps).unwrap();
        assert_eq!(parent, ["a", "b"]);
        assert_eq!(name, "c");
        assert!(split_parent(&[]).is_none());
    }
}
