//! A read-only procfs: the simulated kernel's runtime state as files.
//!
//! Mounted at `/proc` by [`crate::Kernel::new`], this filesystem turns the
//! observability stack into an in-simulation API — a ULP can `open` and
//! `read` its own scheduler telemetry through the ordinary syscall path
//! instead of an out-of-band HTTP scrape:
//!
//! - `/proc/<pid>/stat`, `/proc/self/stat` — one line of kernel-side
//!   process state (name, R/Z state, ppid, open fds, cwd, completed
//!   syscalls), extended with the runtime's ULP view (BLT id, Table-I
//!   couple state, kernel-context id, spawn time) when a runtime is
//!   attached.
//! - `/proc/ulp/metrics` — the exact Prometheus exposition the external
//!   `/metrics` endpoint serves.
//! - `/proc/ulp/profile` — the collapsed-stack profile fold.
//! - `/proc/ulp/stat` — runtime-wide scheduler counters, one per line.
//!
//! ## Content is frozen at `open()`
//!
//! File bodies are generated **lazily at `open()`** and handed to the open
//! file description as its [`FileLike`] handle — the procfs keeps no record
//! of what is open. Reads then serve immutable bytes, so partial
//! reads, seeks, `dup2`'d descriptors and injected `EINTR`/short reads can
//! never observe a torn in-between state — the same snapshot semantics
//! Linux procfs gives within a single open file description. The snapshot
//! is taken *before* the opening syscall itself is counted (syscall
//! counters commit at exit), which is what makes a ULP `cat`ing
//! `/proc/ulp/metrics` agree byte-for-byte with an external scrape taken
//! under quiesce.
//!
//! ## The provider hook
//!
//! The kernel crate sits below `ulp-core` and knows nothing about BLTs,
//! couple state or Prometheus rendering. Runtime-sourced content arrives
//! through the `proc` entry of the one [`crate::KernelHooks`]
//! table `ulp-core` installs at runtime construction. The provider routes
//! per OS thread, so multiple runtimes coexist; with no table installed
//! (kernel used standalone) the `ulp` files degrade to a placeholder and
//! `stat` serves only the kernel-side fields.

use super::tmpfs::{DirEntry, FileStat, Ino};
use super::vfs::read_slice_at;
use super::{FileLike, FileSystem, OpenFlags};
use crate::errno::{Errno, KResult};
use crate::kernel::Kernel;
use crate::process::{Pid, ProcState};
use crate::trace::proc_provide as provide;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Which runtime-sourced document the procfs is asking the provider for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcSource {
    /// The Prometheus text exposition (`/proc/ulp/metrics`).
    Metrics,
    /// The collapsed-stack profile fold (`/proc/ulp/profile`).
    Profile,
    /// Runtime-wide scheduler counters (`/proc/ulp/stat`).
    RuntimeStat,
    /// Extra per-process fields appended to `/proc/<pid>/stat` (BLT id,
    /// couple state, kernel context, spawn time).
    PidExtra(Pid),
}

/// Placeholder body for `ulp` files when no runtime is attached.
const NO_RUNTIME: &str = "# ulp runtime not attached\n";

// Stable inode numbers for the synthetic tree.
const INO_ROOT: Ino = Ino(0);
const INO_ULP_DIR: Ino = Ino(1);
const INO_ULP_METRICS: Ino = Ino(2);
const INO_ULP_PROFILE: Ino = Ino(3);
const INO_ULP_STAT: Ino = Ino(4);
const PID_DIR_BASE: u64 = 0x1_0000;
const PID_STAT_BASE: u64 = 0x2_0000;

/// What a normalized mount-relative path names inside the procfs tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// `/proc` itself.
    Root,
    /// `/proc/<pid>` (also what `/proc/self` resolves to).
    PidDir(Pid),
    /// `/proc/<pid>/stat` (and `/proc/self/stat`).
    PidStat(Pid),
    /// `/proc/ulp`.
    UlpDir,
    /// One of the three `/proc/ulp/*` files.
    UlpFile(ProcSource),
}

impl Node {
    fn is_dir(self) -> bool {
        matches!(self, Node::Root | Node::PidDir(_) | Node::UlpDir)
    }

    fn ino(self) -> Ino {
        match self {
            Node::Root => INO_ROOT,
            Node::UlpDir => INO_ULP_DIR,
            Node::UlpFile(ProcSource::Metrics) => INO_ULP_METRICS,
            Node::UlpFile(ProcSource::Profile) => INO_ULP_PROFILE,
            Node::UlpFile(ProcSource::RuntimeStat) => INO_ULP_STAT,
            Node::UlpFile(ProcSource::PidExtra(pid)) | Node::PidStat(pid) => {
                Ino(PID_STAT_BASE + pid.0 as u64)
            }
            Node::PidDir(pid) => Ino(PID_DIR_BASE + pid.0 as u64),
        }
    }
}

/// An opened procfs node, as the open description holds it: the node's
/// `stat` and, for a file, its body — both frozen at `open()`.
#[derive(Debug)]
struct Snapshot {
    stat: FileStat,
    /// `None` for a directory.
    body: Option<String>,
}

impl FileLike for Snapshot {
    fn seekable(&self) -> bool {
        true
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        let body = self.body.as_ref().ok_or(Errno::EISDIR)?;
        Ok(read_slice_at(body.as_bytes(), offset, buf))
    }

    fn write_at(&self, _offset: u64, _src: &[u8]) -> KResult<usize> {
        Err(Errno::EROFS)
    }

    fn size(&self) -> KResult<u64> {
        Ok(self.body.as_ref().ok_or(Errno::EISDIR)?.len() as u64)
    }

    fn truncate(&self, _len: u64) -> KResult<()> {
        Err(Errno::EROFS)
    }

    fn stat(&self) -> FileStat {
        self.stat
    }
}

/// The procfs: a [`Weak`] back-reference to its kernel (for the process
/// table and the calling thread's binding) and nothing else.
#[derive(Debug)]
pub struct ProcFs {
    kernel: Weak<Kernel>,
}

impl ProcFs {
    /// Create a procfs serving `kernel`'s state. The kernel constructs this
    /// inside `Arc::new_cyclic`, so only a [`Weak`] handle exists here —
    /// the procfs can never keep its own kernel alive.
    pub(crate) fn new(kernel: Weak<Kernel>) -> ProcFs {
        ProcFs { kernel }
    }

    fn kernel(&self) -> KResult<Arc<Kernel>> {
        self.kernel.upgrade().ok_or(Errno::ENOENT)
    }

    /// Map a normalized mount-relative path to a tree node. `self` resolves
    /// through the calling OS thread's process binding; dead (reaped)
    /// pids are `ENOENT`.
    fn classify(&self, rel: &[&str]) -> KResult<Node> {
        let pid_of = |name: &str| -> KResult<Pid> {
            if name == "self" {
                return self.kernel()?.current_pid().ok_or(Errno::ENOENT);
            }
            let raw: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
            Ok(Pid(raw))
        };
        match rel {
            [] => Ok(Node::Root),
            ["ulp"] => Ok(Node::UlpDir),
            ["ulp", f] => match *f {
                "metrics" => Ok(Node::UlpFile(ProcSource::Metrics)),
                "profile" => Ok(Node::UlpFile(ProcSource::Profile)),
                "stat" => Ok(Node::UlpFile(ProcSource::RuntimeStat)),
                _ => Err(Errno::ENOENT),
            },
            [p] => {
                let pid = pid_of(p)?;
                self.kernel()?.process(pid).ok_or(Errno::ENOENT)?;
                Ok(Node::PidDir(pid))
            }
            [p, "stat"] => {
                let pid = pid_of(p)?;
                self.kernel()?.process(pid).ok_or(Errno::ENOENT)?;
                Ok(Node::PidStat(pid))
            }
            _ => Err(Errno::ENOENT),
        }
    }

    /// Freeze `node` as it is now: a file's body is generated here.
    fn snapshot(&self, node: Node) -> KResult<Snapshot> {
        let body = match node {
            Node::PidStat(pid) => Some(self.pid_stat(pid)?),
            Node::UlpFile(src) => Some(provide(src).unwrap_or_else(|| NO_RUNTIME.to_string())),
            Node::Root | Node::PidDir(_) | Node::UlpDir => None,
        };
        let size = match (&body, node) {
            (Some(body), _) => body.len() as u64,
            (None, Node::Root) => self.pids()?.len() as u64 + 2, // pid dirs + self + ulp
            (None, Node::UlpDir) => 3,
            (None, _) => 1, // a pid directory holds `stat`
        };
        Ok(Snapshot {
            stat: FileStat {
                ino: node.ino(),
                size,
                is_dir: node.is_dir(),
                nlink: 1,
            },
            body,
        })
    }

    /// The `/proc/<pid>/stat` line: kernel-side fields, then whatever the
    /// runtime provider wants to append for this pid.
    fn pid_stat(&self, pid: Pid) -> KResult<String> {
        let kernel = self.kernel()?;
        let proc = kernel.process(pid).ok_or(Errno::ENOENT)?;
        let state = match proc.state() {
            ProcState::Running => 'R',
            ProcState::Zombie(_) => 'Z',
        };
        let mut line = format!(
            "{} ({}) {state} ppid={} fds={} cwd={} syscalls={}",
            pid.0,
            &*proc.name.lock(),
            proc.ppid.map_or(0, |p| p.0),
            proc.fds.lock().open_count(),
            &*proc.cwd.lock(),
            proc.syscalls.load(Ordering::Relaxed),
        );
        if let Some(extra) = provide(ProcSource::PidExtra(pid)) {
            line.push(' ');
            line.push_str(&extra);
        }
        line.push('\n');
        Ok(line)
    }

    /// Live (or zombie, i.e. not yet reaped) pids, ascending.
    fn pids(&self) -> KResult<Vec<Pid>> {
        let kernel = self.kernel()?;
        let mut pids: Vec<Pid> = kernel.table().keys().copied().collect();
        pids.sort();
        Ok(pids)
    }
}

impl FileSystem for ProcFs {
    fn fs_name(&self) -> &'static str {
        "proc"
    }

    fn open_rel(&self, rel: &[&str], flags: OpenFlags) -> KResult<Arc<dyn FileLike>> {
        let node = match self.classify(rel) {
            Ok(n) => n,
            // Creating a file is a write: a read-only fs refuses it even
            // where plain lookup would say ENOENT.
            Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => return Err(Errno::EROFS),
            Err(e) => return Err(e),
        };
        if flags.writable() {
            return Err(if node.is_dir() {
                Errno::EISDIR
            } else {
                Errno::EROFS
            });
        }
        Ok(Arc::new(self.snapshot(node)?))
    }

    fn stat_rel(&self, rel: &[&str]) -> KResult<FileStat> {
        Ok(self.snapshot(self.classify(rel)?)?.stat)
    }

    fn mkdir_rel(&self, _rel: &[&str]) -> KResult<Ino> {
        Err(Errno::EROFS)
    }

    fn unlink_rel(&self, _rel: &[&str]) -> KResult<()> {
        Err(Errno::EROFS)
    }

    fn rmdir_rel(&self, _rel: &[&str]) -> KResult<()> {
        Err(Errno::EROFS)
    }

    fn link_rel(&self, _existing: &[&str], _new: &[&str]) -> KResult<()> {
        Err(Errno::EROFS)
    }

    fn rename_rel(&self, _from: &[&str], _to: &[&str]) -> KResult<()> {
        Err(Errno::EROFS)
    }

    fn readdir_rel(&self, rel: &[&str]) -> KResult<Vec<DirEntry>> {
        let dir_entry = |name: &str, node: Node| DirEntry {
            name: name.to_string(),
            ino: node.ino(),
            is_dir: node.is_dir(),
        };
        match self.classify(rel)? {
            Node::Root => {
                let mut out: Vec<DirEntry> = self
                    .pids()?
                    .into_iter()
                    .map(|pid| dir_entry(&pid.0.to_string(), Node::PidDir(pid)))
                    .collect();
                if let Some(me) = self.kernel()?.current_pid() {
                    out.push(dir_entry("self", Node::PidDir(me)));
                }
                out.push(dir_entry("ulp", Node::UlpDir));
                Ok(out)
            }
            Node::PidDir(pid) => Ok(vec![dir_entry("stat", Node::PidStat(pid))]),
            Node::UlpDir => Ok(vec![
                dir_entry("metrics", Node::UlpFile(ProcSource::Metrics)),
                dir_entry("profile", Node::UlpFile(ProcSource::Profile)),
                dir_entry("stat", Node::UlpFile(ProcSource::RuntimeStat)),
            ]),
            _ => Err(Errno::ENOTDIR),
        }
    }
}
