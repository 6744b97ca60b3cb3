//! The tmpfs namespace under four threads, checked against a model.
//!
//! Four bound threads issue a few thousand seeded namespace and file calls
//! each, all inside the same two directories. Every thread owns eight names
//! (four per directory) and one sub-directory per directory, so it can
//! predict each of its own results exactly — errno, `stat`, bytes — from a
//! sequential model, while the directories' entry maps, the namespace lock
//! and the inode count are shared by all four. A name change that is not
//! atomic against the others' lookups and changes shows up as a result the
//! model did not predict, as a foreign lookup seeing a half-made entry, or as
//! an inode count that does not return to where it started.

use std::collections::HashMap;
use ulp_kernel::fs::MAX_FILE_SIZE;
use ulp_kernel::{Errno, Fd, FileStat, KResult, Kernel, OpenFlags, Pid};

const THREADS: usize = 4;
const OPS: usize = 3_000;
const DIRS: [&str; 2] = ["/ham_a", "/ham_b"];
const NAMES_PER_DIR: usize = 4;
const MAX_FDS: usize = 6;

/// A splitmix64 stream: the mix of a running counter.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 += 1;
        (ulp_core::chaos::splitmix64(self.0) >> 16) as usize % n
    }
}

/// A model inode: what its bytes and link count must be.
struct File {
    data: Vec<u8>,
    nlink: u32,
}

struct OpenFd {
    fd: Fd,
    file: usize,
    writable: bool,
}

/// One thread's view: its names, its descriptors, its sub-directories.
struct Model {
    files: Vec<File>,
    names: HashMap<String, usize>,
    fds: Vec<OpenFd>,
    /// Per directory: does `sub` exist, and does `sub/f`?
    subs: [(bool, bool); 2],
}

fn name_of(thread: usize, i: usize) -> String {
    format!(
        "{}/t{thread}_{}",
        DIRS[i / NAMES_PER_DIR],
        i % NAMES_PER_DIR
    )
}

fn sub_of(thread: usize, dir: usize) -> String {
    format!("{}/t{thread}_sub", DIRS[dir])
}

struct Hammer<'k> {
    k: &'k Kernel,
    thread: usize,
    rng: Rng,
    m: Model,
}

impl Hammer<'_> {
    fn my_name(&mut self) -> String {
        name_of(self.thread, self.rng.below(2 * NAMES_PER_DIR))
    }

    fn payload(&mut self) -> Vec<u8> {
        let len = 1 + self.rng.below(64);
        (0..len).map(|_| self.rng.below(256) as u8).collect()
    }

    /// `stat` of one of this thread's names must be exactly the model's.
    fn check_stat(&self, name: &str) {
        let got = self.k.sys_stat(name);
        match self.m.names.get(name) {
            None => assert_eq!(got, Err(Errno::ENOENT), "stat {name}"),
            Some(&file) => {
                let st: FileStat = got.unwrap_or_else(|e| panic!("stat {name}: {e:?}"));
                let want = &self.m.files[file];
                assert_eq!(
                    (st.size, st.nlink, st.is_dir),
                    (want.data.len() as u64, want.nlink, false),
                    "stat {name}"
                );
            }
        }
    }

    /// Whatever happened to its names, a descriptor reads its file's bytes.
    fn check_fd(&self, open: &OpenFd) {
        let want = &self.m.files[open.file].data;
        let mut buf = vec![0u8; want.len() + 8];
        let n = self.k.sys_pread(open.fd, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], &want[..], "fd {:?}", open.fd);
    }

    fn open(&mut self) {
        if self.m.fds.len() == MAX_FDS {
            return self.close();
        }
        let name = self.my_name();
        let (flags, writable) = match self.rng.below(5) {
            0 => (OpenFlags::RDWR | OpenFlags::CREAT, true),
            1 => (OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL, true),
            2 => (OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC, true),
            3 => (OpenFlags::RDWR, true),
            _ => (OpenFlags::RDONLY, false),
        };
        let got = self.k.sys_open(&name, flags);
        let file = match self.m.names.get(&name) {
            Some(_) if flags.contains(OpenFlags::EXCL) => {
                return assert_eq!(got, Err(Errno::EEXIST), "open {name}");
            }
            Some(&file) => {
                if flags.contains(OpenFlags::TRUNC) {
                    self.m.files[file].data.clear();
                }
                file
            }
            None if !flags.contains(OpenFlags::CREAT) => {
                return assert_eq!(got, Err(Errno::ENOENT), "open {name}");
            }
            None => {
                self.m.files.push(File {
                    data: Vec::new(),
                    nlink: 1,
                });
                self.m.names.insert(name.clone(), self.m.files.len() - 1);
                self.m.files.len() - 1
            }
        };
        let fd = got.unwrap_or_else(|e| panic!("open {name} {flags:?}: {e:?}"));
        self.m.fds.push(OpenFd { fd, file, writable });
    }

    fn close(&mut self) {
        if self.m.fds.is_empty() {
            return;
        }
        let open = self.m.fds.swap_remove(self.rng.below(self.m.fds.len()));
        self.check_fd(&open);
        self.k.sys_close(open.fd).unwrap();
    }

    fn unlink(&mut self) {
        let name = self.my_name();
        let got = self.k.sys_unlink(&name);
        match self.m.names.remove(&name) {
            None => assert_eq!(got, Err(Errno::ENOENT), "unlink {name}"),
            Some(file) => {
                assert_eq!(got, Ok(()), "unlink {name}");
                self.m.files[file].nlink -= 1;
            }
        }
    }

    fn rename(&mut self) {
        let (from, to) = (self.my_name(), self.my_name());
        let got = self.k.sys_rename(&from, &to);
        let Some(&moved) = self.m.names.get(&from) else {
            return assert_eq!(got, Err(Errno::ENOENT), "rename {from} {to}");
        };
        assert_eq!(got, Ok(()), "rename {from} {to}");
        match self.m.names.get(&to) {
            // Onto itself or onto another link to the same file: nothing.
            Some(&target) if target == moved => return,
            // The replaced file loses a name; its descriptors keep it.
            Some(&target) => self.m.files[target].nlink -= 1,
            None => {}
        }
        self.m.names.remove(&from);
        self.m.names.insert(to.clone(), moved);
        self.check_stat(&from);
        self.check_stat(&to);
    }

    fn link(&mut self) {
        let (existing, new) = (self.my_name(), self.my_name());
        let got = self.k.sys_link(&existing, &new);
        let Some(&file) = self.m.names.get(&existing) else {
            return assert_eq!(got, Err(Errno::ENOENT), "link {existing} {new}");
        };
        if self.m.names.contains_key(&new) {
            return assert_eq!(got, Err(Errno::EEXIST), "link {existing} {new}");
        }
        assert_eq!(got, Ok(()), "link {existing} {new}");
        self.m.files[file].nlink += 1;
        self.m.names.insert(new, file);
    }

    fn write(&mut self) {
        if self.m.fds.is_empty() {
            return;
        }
        let i = self.rng.below(self.m.fds.len());
        let (fd, file, writable) = {
            let open = &self.m.fds[i];
            (open.fd, open.file, open.writable)
        };
        let (off, data) = (self.rng.below(512), self.payload());
        let got = self.k.sys_pwrite(fd, off as u64, &data);
        if !writable {
            return assert_eq!(got, Err(Errno::EBADF));
        }
        assert_eq!(got, Ok(data.len()));
        let bytes = &mut self.m.files[file].data;
        if bytes.len() < off + data.len() {
            bytes.resize(off + data.len(), 0);
        }
        bytes[off..off + data.len()].copy_from_slice(&data);
        // Growth past the limit is refused and changes nothing.
        assert_eq!(
            self.k.sys_pwrite(fd, MAX_FILE_SIZE, b"x"),
            Err(Errno::EFBIG)
        );
        self.check_fd(&self.m.fds[i]);
    }

    /// `mkdir`, `rmdir`, and a file coming and going inside this thread's
    /// sub-directory of one of the two shared directories.
    fn subdir(&mut self) {
        let dir = self.rng.below(2);
        let sub = sub_of(self.thread, dir);
        let inner = format!("{sub}/f");
        let (exists, holds_file) = &mut self.m.subs[dir];
        match self.rng.below(4) {
            0 => {
                let want = if *exists { Err(Errno::EEXIST) } else { Ok(()) };
                assert_eq!(self.k.sys_mkdir(&sub), want, "mkdir {sub}");
                *exists = true;
            }
            1 => {
                let want = match (*exists, *holds_file) {
                    (false, _) => Err(Errno::ENOENT),
                    (true, true) => Err(Errno::ENOTEMPTY),
                    (true, false) => Ok(()),
                };
                assert_eq!(self.k.sys_rmdir(&sub), want, "rmdir {sub}");
                *exists = *holds_file;
            }
            2 => {
                let got = self
                    .k
                    .sys_open(&inner, OpenFlags::WRONLY | OpenFlags::CREAT);
                if *exists {
                    self.k.sys_close(got.unwrap()).unwrap();
                    *holds_file = true;
                } else {
                    assert_eq!(got, Err(Errno::ENOENT), "open {inner}");
                }
            }
            _ => {
                let want = if *holds_file {
                    Ok(())
                } else {
                    Err(Errno::ENOENT)
                };
                assert_eq!(self.k.sys_unlink(&inner), want, "unlink {inner}");
                *holds_file = false;
            }
        }
    }

    /// Calls whose errno does not depend on anybody's state but this
    /// thread's — the ones the unit tests pin, here with three other threads
    /// changing the same directories underneath.
    fn fixed_errnos(&mut self) {
        let name = self.my_name();
        let mine = self.m.names.contains_key(&name);
        let dir = DIRS[self.rng.below(2)];
        let if_mine = |e: Errno| Err(if mine { e } else { Errno::ENOENT });
        match self.rng.below(7) {
            0 => assert_eq!(self.k.sys_unlink(dir), Err(Errno::EISDIR)),
            1 => assert_eq!(
                self.k.sys_open(dir, OpenFlags::WRONLY).map(|_| ()),
                Err(Errno::EISDIR)
            ),
            2 => assert_eq!(self.k.sys_rename(&name, "/proc/x"), Err(Errno::EXDEV)),
            3 => assert_eq!(self.k.sys_link(&name, "/proc/x"), Err(Errno::EXDEV)),
            4 => assert_eq!(self.k.sys_rename(&name, dir), if_mine(Errno::EISDIR)),
            5 => assert_eq!(
                self.k
                    .sys_open(&format!("{name}/x"), OpenFlags::WRONLY | OpenFlags::CREAT)
                    .map(|_| ()),
                if_mine(Errno::ENOTDIR)
            ),
            // A shared directory holding one of this thread's names cannot
            // be empty, whatever the others are doing to theirs.
            _ if mine && name.starts_with(dir) => {
                assert_eq!(self.k.sys_rmdir(dir), Err(Errno::ENOTEMPTY));
            }
            _ => {}
        }
    }

    /// Look another thread's name up while that thread renames, links and
    /// unlinks it: it is there, whole, or it is not.
    fn foreign_lookup(&mut self) {
        let other = (self.thread + 1 + self.rng.below(THREADS - 1)) % THREADS;
        let name = name_of(other, self.rng.below(2 * NAMES_PER_DIR));
        match self.k.sys_stat(&name) {
            Err(e) => assert_eq!(e, Errno::ENOENT, "stat {name}"),
            Ok(st) => {
                assert!(!st.is_dir, "stat {name}: {st:?}");
                assert!(
                    (1..=2 * NAMES_PER_DIR as u32).contains(&st.nlink),
                    "stat {name}: {st:?}"
                );
            }
        }
        match self.k.sys_open(&name, OpenFlags::RDONLY) {
            Err(e) => assert_eq!(e, Errno::ENOENT, "open {name}"),
            Ok(fd) => {
                let mut buf = [0u8; 64];
                self.k.sys_pread(fd, 0, &mut buf).unwrap();
                self.k.sys_close(fd).unwrap();
            }
        }
    }

    fn step(&mut self) {
        match self.rng.below(20) {
            0..=3 => self.open(),
            4..=5 => self.close(),
            6..=7 => self.unlink(),
            8..=10 => self.rename(),
            11..=12 => self.link(),
            13..=14 => self.write(),
            15 => self.subdir(),
            16 => self.fixed_errnos(),
            17 => self.foreign_lookup(),
            _ => {
                let name = self.my_name();
                self.check_stat(&name);
            }
        }
    }

    /// Close and remove everything this thread made.
    fn tear_down(mut self) -> KResult<()> {
        while !self.m.fds.is_empty() {
            self.close();
        }
        for name in self.m.names.keys() {
            self.k.sys_unlink(name)?;
        }
        for (dir, (exists, holds_file)) in self.m.subs.into_iter().enumerate() {
            let sub = sub_of(self.thread, dir);
            if holds_file {
                self.k.sys_unlink(&format!("{sub}/f"))?;
            }
            if exists {
                self.k.sys_rmdir(&sub)?;
            }
        }
        Ok(())
    }
}

fn hammer(seed: u64) {
    let k = Kernel::native();
    let baseline = k.tmpfs().inode_count();
    let main = k.spawn_process(Some(Pid(1)), "hammer");
    k.bind_current(main);
    for dir in DIRS {
        k.sys_mkdir(dir).unwrap();
    }
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let k = &k;
            s.spawn(move || {
                let pid = k.spawn_process(Some(main), &format!("hammer{thread}"));
                k.bind_current(pid);
                let mut h = Hammer {
                    k,
                    thread,
                    rng: Rng(seed ^ ((thread as u64) << 48)),
                    m: Model {
                        files: Vec::new(),
                        names: HashMap::new(),
                        fds: Vec::new(),
                        subs: [(false, false); 2],
                    },
                };
                (0..OPS).for_each(|_| h.step());
                // Every name and descriptor still agrees with the model.
                for i in 0..2 * NAMES_PER_DIR {
                    h.check_stat(&name_of(thread, i));
                }
                h.m.fds.iter().for_each(|open| h.check_fd(open));
                h.tear_down().unwrap();
                k.unbind_current();
            });
        }
    });
    for dir in DIRS {
        assert_eq!(k.sys_readdir(dir).unwrap(), [], "{dir} after tear-down");
        k.sys_rmdir(dir).unwrap();
    }
    assert_eq!(k.tmpfs().inode_count(), baseline, "inodes leaked");
    k.unbind_current();
}

#[test]
fn four_threads_agree_with_their_models() {
    hammer(0x5EED_0001);
}

#[test]
fn four_threads_agree_with_their_models_on_a_second_seed() {
    hammer(0xC0FF_EE42);
}
