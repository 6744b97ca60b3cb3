//! A pooled ULP's process is named once: spawned as a handle, bound,
//! exited and reaped through it. These tests check what the lifecycle
//! leaves behind — in the process table, in root's child set and in
//! `/proc` — not what it costs (`ulp-kernel`'s
//! `a_life_through_handles_takes_the_table_twice` counts that).
//!
//! A binary of their own: `tests/runtime.rs` holds timing gates (the idle
//! decision's KC blocks per couple) that a neighbour's pooled burst on two
//! vCPUs can tip.

use ulp_core::ulp_kernel::{Errno, OpenFlags};
use ulp_core::{coupled_scope, sys, Runtime};

/// A pooled life is named once and removed once: after N of them the
/// process table is back to its size and root's child set holds none of
/// them.
#[test]
fn pooled_lives_leave_no_process_behind() {
    let rt = Runtime::builder().schedulers(1).pool_kcs(2).build();
    // One life first, so the scheduler has created its own process.
    assert_eq!(rt.spawn_pooled("warm", || 0).unwrap().wait(), 0);
    let k = rt.kernel();
    let baseline = k.process_count();
    let root = k.process(rt.root_pid()).unwrap();
    let mut pids = Vec::new();
    for _ in 0..8 {
        let handles: Vec<_> = (0..32)
            .map(|i| {
                rt.spawn_pooled("life", move || {
                    if i % 2 == 0 {
                        coupled_scope(|| sys::getpid().unwrap().0 as i32).unwrap()
                    } else {
                        0
                    }
                })
                .unwrap()
            })
            .collect();
        for h in handles {
            let pid = h.pid();
            let status = h.wait();
            assert!(status == 0 || status == pid.0 as i32);
            pids.push(pid);
        }
    }
    assert_eq!(k.process_count(), baseline);
    let kids = root.children();
    assert!(pids.iter().all(|p| !kids.contains(p)), "{kids:?}");
    assert!(pids.iter().all(|&p| k.process(p).is_none()));
}

/// `/proc/<pid>/stat` renders for a live pooled ULP and is gone once the
/// ULP has been reaped.
#[test]
fn pooled_ulp_proc_stat_lives_until_the_reap() {
    let rt = Runtime::builder().schedulers(1).pool_kcs(1).build();
    let h = rt
        .spawn_pooled("statted", || {
            coupled_scope(|| {
                let me = sys::getpid().unwrap();
                let fd = sys::open(&format!("/proc/{}/stat", me.0), OpenFlags::RDONLY).unwrap();
                let mut buf = [0u8; 256];
                let n = sys::read(fd, &mut buf).unwrap();
                sys::close(fd).unwrap();
                let line = String::from_utf8_lossy(&buf[..n]).into_owned();
                assert!(line.starts_with(&format!("{} (statted) R", me.0)), "{line}");
                0
            })
            .unwrap()
        })
        .unwrap();
    let pid = h.pid();
    assert_eq!(h.wait(), 0);
    let path = format!("/proc/{}/stat", pid.0);
    assert_eq!(
        rt.kernel().sys_open(&path, OpenFlags::RDONLY),
        Err(Errno::ENOENT)
    );
}
