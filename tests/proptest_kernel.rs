//! Property-based tests of the simulated kernel against simple reference
//! models: the tmpfs behaves like a `Vec<u8>` per file, paths normalize
//! like a stack machine, pipes deliver bytes losslessly and in order, and
//! FD allocation follows the lowest-free-slot rule.

use proptest::prelude::*;
use ulp_repro::kernel::{Errno, Kernel, OpenFlags, Pid, Whence};

/// Shared body of the FD-allocation property: open six files (fds must be
/// sequential), close `close_order`'s slots, then verify the next open
/// takes the lowest freed slot and every other closed fd is `EBADF`.
/// Plain `assert!`s so both the proptest driver (which catches panics)
/// and the named regression tests below can run it.
fn check_fd_allocation(close_order: &[usize]) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "fds");
    k.bind_current(pid);
    let fds: Vec<_> = (0..6)
        .map(|i| {
            k.sys_open(&format!("/f{i}"), OpenFlags::WRONLY | OpenFlags::CREAT)
                .unwrap()
        })
        .collect();
    // Sequential opens get sequential fds.
    for (i, fd) in fds.iter().enumerate() {
        assert_eq!(fd.0, i as i32);
    }
    let mut closed = std::collections::BTreeSet::new();
    for &i in close_order {
        if closed.insert(i) {
            k.sys_close(fds[i]).unwrap();
        }
    }
    let reused = if let Some(&lowest) = closed.iter().next() {
        // The next open must take the lowest closed slot.
        let fresh = k
            .sys_open("/fresh", OpenFlags::WRONLY | OpenFlags::CREAT)
            .unwrap();
        assert_eq!(fresh.0, lowest as i32);
        Some(lowest)
    } else {
        None
    };
    // Closed fds are EBADF — except the slot the fresh open reused.
    for &i in &closed {
        if Some(i) == reused {
            assert!(k.sys_pwrite(fds[i], 0, b"x").is_ok());
        } else {
            assert_eq!(k.sys_pwrite(fds[i], 0, b"x").unwrap_err(), Errno::EBADF);
        }
    }
    k.unbind_current();
}

/// Named regressions promoted from `proptest_kernel.proptest-regressions`
/// so the historical failure runs deterministically on every `cargo test`,
/// not just when proptest happens to replay its seed file.
mod fd_allocation_regressions {
    use super::check_fd_allocation;

    /// The recorded shrink (`cc a6a2b17d…`): closing only fd 0 once made
    /// the reuse check disagree with the lowest-free-slot rule.
    #[test]
    fn close_first_fd_then_reopen() {
        check_fd_allocation(&[0]);
    }

    /// Same slot closed twice — the second close must be a no-op, not a
    /// double free.
    #[test]
    fn close_first_fd_twice() {
        check_fd_allocation(&[0, 0]);
    }

    /// Non-lowest slot freed first: the fresh open must still take the
    /// lowest freed slot, not the first freed one.
    #[test]
    fn close_out_of_order() {
        check_fd_allocation(&[5, 0, 3]);
    }

    /// Everything closed, in reverse: fresh open lands on slot 0.
    #[test]
    fn close_all_reversed() {
        check_fd_allocation(&[5, 4, 3, 2, 1, 0]);
    }

    /// Nothing closed: pure sequential-allocation check.
    #[test]
    fn close_nothing() {
        check_fd_allocation(&[]);
    }
}

fn arb_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        (0u64..2048, proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(off, data)| FileOp::WriteAt(off, data)),
        (0u64..4096, 1usize..512).prop_map(|(off, len)| FileOp::ReadAt(off, len)),
        (0u64..4096).prop_map(FileOp::Truncate),
    ]
}

#[derive(Debug, Clone)]
enum FileOp {
    WriteAt(u64, Vec<u8>),
    ReadAt(u64, usize),
    Truncate(u64),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// tmpfs file contents always equal a Vec<u8> reference model.
    #[test]
    fn tmpfs_matches_vec_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let k = Kernel::native();
        let pid = k.spawn_process(Some(Pid(1)), "prop");
        k.bind_current(pid);
        let fd = k.sys_open("/model", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        let mut model: Vec<u8> = Vec::new();

        for op in &ops {
            match op {
                FileOp::WriteAt(off, data) => {
                    let n = k.sys_pwrite(fd, *off, data).unwrap();
                    prop_assert_eq!(n, data.len());
                    let end = *off as usize + data.len();
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[*off as usize..end].copy_from_slice(data);
                }
                FileOp::ReadAt(off, len) => {
                    let mut buf = vec![0u8; *len];
                    let n = k.sys_pread(fd, *off, &mut buf).unwrap();
                    let expect: &[u8] = if *off as usize >= model.len() {
                        &[]
                    } else {
                        let end = (*off as usize + len).min(model.len());
                        &model[*off as usize..end]
                    };
                    prop_assert_eq!(&buf[..n], expect);
                }
                FileOp::Truncate(len) => {
                    k.sys_ftruncate(fd, *len).unwrap();
                    model.resize(*len as usize, 0);
                }
            }
            // Size invariant holds after every step.
            prop_assert_eq!(k.sys_lseek(fd, 0, Whence::End).unwrap(), model.len() as u64);
        }
        k.sys_close(fd).unwrap();
        k.unbind_current();
    }

    /// Path normalization is idempotent and `..` never escapes the root.
    #[test]
    fn path_normalization_properties(
        comps in proptest::collection::vec("[a-z]{1,8}|\\.|\\.\\.", 0..12),
        absolute in any::<bool>(),
    ) {
        use ulp_repro::kernel::fs::normalize;
        let path = format!("{}{}", if absolute { "/" } else { "" }, comps.join("/"));
        let normalized = normalize("/cwd", &path);
        // No dot components survive.
        prop_assert!(normalized.iter().all(|&c| c != "." && c != ".."));
        // Re-normalizing the result is a fixed point.
        let rejoined = format!("/{}", normalized.join("/"));
        prop_assert_eq!(normalize("/", &rejoined), normalized);
    }

    /// Pipes deliver exactly the written bytes, in order, across threads,
    /// for arbitrary chunkings and pipe capacities.
    #[test]
    fn pipes_are_lossless(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..16),
        capacity in 1usize..128,
    ) {
        use ulp_repro::kernel::{pipe_with_capacity, FileLike};
        let (r, w) = pipe_with_capacity(capacity);
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        let writer = std::thread::spawn(move || {
            for chunk in &chunks {
                w.write(chunk).unwrap();
            }
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 37];
        while got.len() < expected.len() {
            let n = r.read(&mut buf).unwrap();
            if n == 0 { break; }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        prop_assert_eq!(got, expected);
    }

    /// FD numbers: always the lowest free slot; close invalidates; dup
    /// shares the description.
    #[test]
    fn fd_allocation_rule(close_order in proptest::collection::vec(0usize..6, 0..6)) {
        check_fd_allocation(&close_order);
    }

    /// Signal sets behave like bit sets: post/take round-trips, masked
    /// signals stay pending.
    #[test]
    fn sigset_is_a_set(signals in proptest::collection::vec(0usize..5, 0..20)) {
        use ulp_repro::kernel::{SignalState, Signal};
        let all = [Signal::SigInt, Signal::SigUsr1, Signal::SigUsr2, Signal::SigTerm, Signal::SigChld];
        let st = SignalState::new();
        let mut model = std::collections::BTreeSet::new();
        for &s in &signals {
            st.post(all[s]);
            model.insert(s);
        }
        let mut taken = std::collections::BTreeSet::new();
        while let Some(sig) = st.take_deliverable() {
            let idx = all.iter().position(|&a| a == sig).unwrap();
            prop_assert!(taken.insert(idx), "signal delivered twice");
        }
        prop_assert_eq!(taken, model);
    }
}
