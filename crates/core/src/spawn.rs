//! Spawning BLTs (and sibling UCs) and waiting for their termination.
//!
//! Paper rules 1, 2 and 7 (§II): "A BLT is created as a KLT consisting of a
//! pair of UC and KC"; "the KC created at the beginning is called original
//! KC"; "when a UC terminates, it is coupled with its original KC to become
//! a KLT and the KLT terminates". Concretely: every BLT gets a fresh OS
//! thread whose native context *is* the BLT's UC; the user function starts
//! executing immediately as a KLT; the spawner `wait()`s for it just like
//! `wait(2)` on a forked PiP process.

use crate::couple::couple;
use crate::current::{run_deferred, set_current_ulp, set_runtime, Deferred};
use crate::error::UlpError;
use crate::runtime::{Runtime, RuntimeInner};
use crate::tls::TlsStorage;
use crate::uc::{BltId, KcShared, OneShot, UcInner, UcKind, UcState, UlpFn};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use ulp_fcontext::prepare;
use ulp_kernel::process::Pid;

/// Exit status reported when a ULP's body panics (mirroring a crashed
/// process).
pub const PANIC_EXIT_STATUS: i32 = 101;

/// Usable stack size of a sibling UC (a classed, guard-paged stack).
const SIBLING_STACK_SIZE: usize = 256 * 1024;

/// Usable stack size of a pooled ULP. Smaller than a sibling's: pooled
/// stacks come from dense slab slots (no per-stack guard VMA) so a million
/// of them fit under `vm.max_map_count`, and are recycled warm: a released
/// slot keeps its pages, and only the stack pool's scavenger `madvise`s
/// back the ones that stay free, so RSS tracks live plus recently reused
/// ULPs (DESIGN.md §4, "KC pool & stack recycling").
const POOLED_STACK_SIZE: usize = 64 * 1024;

/// Handle to a spawned BLT — the parent's side of `wait()`.
#[derive(Debug)]
pub struct BltHandle {
    pub(crate) uc: Arc<UcInner>,
    pub(crate) pid: Pid,
    /// False for thread-mode BLTs sharing another process's identity.
    pub(crate) owns_identity: bool,
    pub(crate) rt: Weak<RuntimeInner>,
    join: Mutex<Option<JoinHandle<i32>>>,
}

impl BltHandle {
    /// The BLT's simulated-kernel process ID.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The BLT's runtime-local id.
    pub fn id(&self) -> BltId {
        self.uc.id
    }

    /// Wait for the BLT to terminate (as a KLT coupled with its original
    /// KC), reap its simulated-kernel zombie, and return its exit status —
    /// the analogue of `wait(2)` on a PiP child process (§II).
    ///
    /// # Panics
    /// If called twice.
    pub fn wait(&self) -> i32 {
        let handle = self
            .join
            .lock()
            .take()
            .expect("BltHandle::wait called twice");
        self.close_kc();
        let status = handle.join().unwrap_or(PANIC_EXIT_STATUS);
        if self.owns_identity {
            if let Some(rt) = self.rt.upgrade() {
                // Reap the zombie like the PiP root would.
                let _ = rt.kernel.try_waitpid(rt.root_pid, Some(self.pid));
            }
        }
        status
    }

    /// Has the BLT terminated? (Non-blocking.)
    pub fn is_finished(&self) -> bool {
        self.uc.state() == UcState::Terminated
    }

    /// Spawn a sibling UC sharing this BLT's original KC — the paper's M:N
    /// extension (§VII): "UCs having the same original KC access the same
    /// information in an OS kernel", so the sibling carries the same PID.
    pub fn spawn_sibling<F>(&self, name: &str, f: F) -> Result<SiblingHandle, UlpError>
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        let rt = self.rt.upgrade().ok_or(UlpError::ShuttingDown)?;
        spawn_sibling_inner(&rt, &self.uc, name, Box::new(f))
    }

    /// Declare that no further sibling will be spawned through this handle,
    /// letting the original KC retire once the live siblings drain. Taken
    /// under the registration gate so it serializes against
    /// [`BltHandle::spawn_sibling`].
    fn close_kc(&self) {
        {
            let _gate = self.uc.kc.pending.lock();
            self.uc.kc.handle_closed.store(true, Ordering::Release);
        }
        self.uc.kc.parker.poke();
    }
}

impl Drop for BltHandle {
    fn drop(&mut self) {
        // A dropped handle can never spawn another sibling; let the KC
        // retire. (Idempotent after `wait()`.)
        self.close_kc();
    }
}

/// Handle to a sibling UC.
#[derive(Debug)]
pub struct SiblingHandle {
    pub(crate) uc: Arc<UcInner>,
    result: Arc<OneShot>,
}

impl SiblingHandle {
    /// The sibling's runtime-local id.
    pub fn id(&self) -> BltId {
        self.uc.id
    }

    /// The shared kernel identity (same PID as the primary).
    pub fn pid(&self) -> Pid {
        self.uc.pid
    }

    /// Block until the sibling terminates; returns its exit status.
    pub fn wait(&self) -> i32 {
        self.result.wait()
    }

    /// Whether the sibling has terminated (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.result.try_get().is_some()
    }
}

/// Handle to a pooled (oversubscribed) ULP — own kernel identity, shared
/// pool KC, recycled stack.
#[derive(Debug)]
pub struct PooledHandle {
    pub(crate) uc: Arc<UcInner>,
    result: Arc<OneShot>,
    rt: Weak<RuntimeInner>,
}

impl PooledHandle {
    /// The ULP's runtime-local id.
    pub fn id(&self) -> BltId {
        self.uc.id
    }

    /// The ULP's own simulated-kernel process ID.
    pub fn pid(&self) -> Pid {
        self.uc.pid
    }

    /// Block until the ULP terminates, reap its simulated-kernel zombie,
    /// and return its exit status. Idempotent-safe to call once (like
    /// `wait(2)`); the status is published only after the ULP's final
    /// context switch, so every counter it bumped is visible by then.
    pub fn wait(&self) -> i32 {
        let status = self.result.wait();
        if let Some(rt) = self.rt.upgrade() {
            let _ = rt.kernel.try_waitpid(rt.root_pid, Some(self.uc.pid));
        }
        status
    }

    /// Whether the ULP has terminated (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.result.try_get().is_some()
    }
}

impl Runtime {
    /// Spawn a BLT running `f`. The BLT starts as a KLT: `f` executes on a
    /// fresh OS thread (the original KC) until it calls
    /// [`crate::decouple`].
    pub fn spawn<F>(&self, name: &str, f: F) -> BltHandle
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        self.spawn_inner(name, None, Box::new(f))
    }

    /// Spawn a *pooled* ULP: its own kernel identity (fresh pid, like
    /// [`Runtime::spawn`]) but **no OS thread of its own** — it is served
    /// by one of the `Config::pool_kcs` shared pool kernel contexts, and
    /// its stack is a recycled slab slot that returns to the pool warm the
    /// moment it terminates (idle KCs trim what stays free). This is the
    /// oversubscription mode: 100k–1M pooled ULPs run on a handful of KCs,
    /// with RSS tracking recently live ULPs rather than ever-spawned ones.
    ///
    /// `f` starts decoupled (dispatched from the run queue by a scheduler)
    /// and terminates coupled with its pool KC, per rule 7 — the same
    /// switch/TLS cost shape as a sibling, with the pool KC rebinding its
    /// kernel identity to the ULP's pid for the coupled stretch.
    pub fn spawn_pooled<F>(&self, name: &str, f: F) -> Result<PooledHandle, UlpError>
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        spawn_pooled_inner(self.inner(), name, Box::new(f))
    }

    /// Spawn a BLT that *shares* an existing kernel identity instead of
    /// getting a fresh process — PiP's thread mode, where tasks look like
    /// PThreads to the kernel (same PID, shared FD table) while still being
    /// privatized at user level (§IV).
    pub fn spawn_with_identity<F>(&self, name: &str, pid: Pid, f: F) -> BltHandle
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        self.spawn_inner(name, Some(pid), Box::new(f))
    }

    fn spawn_inner(&self, name: &str, pid: Option<Pid>, f: UlpFn) -> BltHandle {
        let rt = self.inner().clone();
        rt.stats.fallback().bump_blts();
        let shared_identity = pid.is_some();
        let pid = pid.unwrap_or_else(|| rt.kernel.spawn_process(Some(rt.root_pid), name));
        let kc = Arc::new(KcShared::new(rt.config.idle_policy));
        let uc = Arc::new(UcInner {
            id: rt.alloc_id(),
            name: name.to_string(),
            kind: UcKind::Primary,
            ctx: UnsafeCell::new(ulp_fcontext::RawContext::null()),
            kc,
            pid,
            coupled: AtomicBool::new(true),
            state: AtomicU8::new(UcState::Created as u8),
            tls: TlsStorage::new(),
            errno: std::sync::atomic::AtomicI32::new(0),
            rt: Arc::downgrade(&rt),
            sib_stack: Mutex::new(None),
            sib_entry: Mutex::new(None),
            sib_result: Arc::new(OneShot::new()),
            sigmask: crate::uc::SigMaskCell::new(ulp_kernel::SigSet::EMPTY),
            wait_since: AtomicU64::new(0),
            wake_from: AtomicU64::new(0),
            spawn_ns: crate::trace::now_ns(),
            qlink: crate::park::QLink::new(),
            phases: crate::park::Phases::new(),
        });

        rt.register_uc(&uc);
        rt.tracer.record(crate::trace::Event::Spawn(uc.id));
        let thread_uc = uc.clone();
        let thread_rt = rt.clone();
        let join = std::thread::Builder::new()
            .name(format!("ulp-{name}"))
            .spawn(move || worker_main(thread_rt, thread_uc, f, !shared_identity))
            .expect("spawn BLT thread");

        BltHandle {
            uc,
            pid,
            owns_identity: !shared_identity,
            rt: Arc::downgrade(&rt),
            join: Mutex::new(Some(join)),
        }
    }
}

/// Body of a BLT's original kernel context. `owns_identity` is false for
/// thread-mode BLTs sharing another process's identity: those must not
/// exit the shared process when they finish.
fn worker_main(rt: Arc<RuntimeInner>, uc: Arc<UcInner>, f: UlpFn, owns_identity: bool) -> i32 {
    // Fig. 6 topology: park original KCs on the dedicated syscall cores so
    // their kernel work stays off the program cores (FlexSC-like, §VII).
    if let Some(cores) = &rt.config.syscall_cores {
        if !cores.is_empty() {
            let core = cores[uc.id.0 as usize % cores.len()];
            let _ = crate::runtime::pin_current_thread(core);
        }
    }
    // This OS thread *is* the original KC: adopt the kernel identity.
    rt.kernel.bind_current(uc.pid);
    uc.kc.adopt_current_thread();
    set_runtime(rt.clone());
    set_current_ulp(Some(uc.clone()));
    uc.set_state(UcState::Running);

    if rt.config.eager_tc {
        let _ = crate::kc::ensure_tc(&uc, &rt);
    }

    // Run the user function; a panic terminates the ULP like a crashed
    // process, not the whole program.
    let status = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(code) => code,
        Err(_) => PANIC_EXIT_STATUS,
    };

    // Rule 7: terminate as a KLT coupled with the original KC — a coupled
    // scope no `decouple()` will end, so stop the schedulers expecting one.
    let _ = couple();
    debug_assert!(uc.kc.is_current_thread());
    uc.phases.ended_coupled(rt.runq.parker());

    // The KC may not exit while its `BltHandle` is still open: a sibling
    // spawned through the handle needs this OS thread to serve its couple
    // requests, and without the gate a sibling registering just as this
    // thread exits would park on a dead KC forever. Retire only once the
    // handle has closed (wait()/drop) AND every registered sibling has
    // drained; both conditions are checked under the registration gate
    // (the `pending` lock), making retirement atomic w.r.t. registration.
    loop {
        let seen = uc.kc.parker.version();
        {
            let _gate = uc.kc.pending.lock();
            if uc.kc.handle_closed.load(Ordering::Acquire)
                && uc.kc.sibling_count.load(Ordering::Acquire) == 0
            {
                break;
            }
        }
        if crate::kc::ensure_tc(&uc, &rt).is_err() {
            // Without a trampoline the KC cannot serve anyone; fall back to
            // the plain exit path rather than spin.
            break;
        }
        if uc.kc.sibling_count.load(Ordering::Acquire) > 0 {
            // Serve the live siblings from the TC until they drain.
            uc.kc.primary_waiting.store(true, Ordering::Release);
            uc.kc.parker.poke();
            let target = unsafe { *uc.kc.tc_ctx.get() };
            unsafe {
                crate::couple::raw_switch(uc.ctx.get(), target, None);
            }
            // Resumed by the TC once sibling_count hit zero; re-check.
        } else {
            // Handle still open but nothing to serve: idle until a sibling
            // registers or the handle closes (both poke the parker; no
            // queue is involved, so there is nothing to re-check).
            uc.kc.parker.park(seen, || true);
        }
    }

    uc.set_state(UcState::Terminated);
    rt.tracer.record(crate::trace::Event::Terminate(uc.id));
    if owns_identity {
        let _ = rt.kernel.exit_process(uc.pid, status);
    }
    rt.kernel.unbind_current();
    crate::current::clear_thread_state();
    status
}

fn spawn_sibling_inner(
    rt: &Arc<RuntimeInner>,
    primary: &Arc<UcInner>,
    name: &str,
    f: UlpFn,
) -> Result<SiblingHandle, UlpError> {
    // Registration gate: either this sibling registers before the KC
    // retires (and worker_main's drain loop will serve it), or the handle
    // already closed and the spawn fails cleanly — never a sibling parked
    // on a KC whose thread is gone.
    {
        let _gate = primary.kc.pending.lock();
        if primary.kc.handle_closed.load(Ordering::Acquire) {
            return Err(UlpError::PrimaryExited);
        }
        primary.kc.sibling_count.fetch_add(1, Ordering::AcqRel);
    }
    rt.stats.fallback().bump_siblings();
    let stack = match rt.stack_pool.acquire(SIBLING_STACK_SIZE) {
        Ok(s) => s,
        Err(e) => {
            primary.kc.sibling_count.fetch_sub(1, Ordering::AcqRel);
            primary.kc.parker.poke();
            return Err(UlpError::StackAlloc(e.to_string()));
        }
    };
    let result = Arc::new(OneShot::new());
    let uc = Arc::new(UcInner {
        id: rt.alloc_id(),
        name: name.to_string(),
        kind: UcKind::Sibling,
        ctx: UnsafeCell::new(ulp_fcontext::RawContext::null()),
        kc: primary.kc.clone(),
        pid: primary.pid,
        coupled: AtomicBool::new(false),
        state: AtomicU8::new(UcState::Created as u8),
        tls: TlsStorage::new(),
        errno: std::sync::atomic::AtomicI32::new(0),
        rt: Arc::downgrade(rt),
        sib_stack: Mutex::new(None),
        sib_entry: Mutex::new(Some(f)),
        sib_result: result.clone(),
        sigmask: crate::uc::SigMaskCell::new(ulp_kernel::SigSet::EMPTY),
        wait_since: AtomicU64::new(0),
        wake_from: AtomicU64::new(0),
        spawn_ns: crate::trace::now_ns(),
        qlink: crate::park::QLink::new(),
        phases: crate::park::Phases::new(),
    });
    rt.register_uc(&uc);
    rt.tracer.record(crate::trace::Event::Spawn(uc.id));
    // Bootstrap the context: entry receives a raw Arc it adopts.
    let raw = Arc::into_raw(uc.clone()) as *mut u8;
    let ctx = unsafe { prepare(stack.top(), sibling_entry, raw) };
    unsafe {
        *uc.ctx.get() = ctx;
    }
    *uc.sib_stack.lock() = Some(stack);
    // Siblings are born decoupled, straight into the scheduled pool. The
    // count was already bumped under the registration gate above; wake the
    // primary in case it idles in its pre-retirement loop. The first
    // dispatch's wake edge attributes to us, the spawner (a pre-stamp the
    // push's default self-enqueue attribution respects).
    if rt.tracer.is_enabled() {
        let waker = crate::current::current_ulp().map_or(BltId(0), |u| u.id);
        uc.wake_from.store(
            crate::uc::encode_wake_from(waker, ulp_kernel::WakeSite::Spawn),
            Ordering::Relaxed,
        );
    }
    rt.runq.push(uc.clone());
    primary.kc.parker.poke();
    Ok(SiblingHandle { uc, result })
}

fn spawn_pooled_inner(
    rt: &Arc<RuntimeInner>,
    name: &str,
    f: UlpFn,
) -> Result<PooledHandle, UlpError> {
    rt.stats.fallback().bump_pooled();
    // Dense slab slot, not a classed guard-paged stack: two VMAs per stack
    // would blow `vm.max_map_count` long before 1M ULPs.
    let stack = rt
        .stack_pool
        .acquire_dense(POOLED_STACK_SIZE)
        .map_err(|e| UlpError::StackAlloc(e.to_string()))?;
    let pid = rt.kernel.spawn_process(Some(rt.root_pid), name);
    let kc = rt.pool_kc();
    let result = Arc::new(OneShot::new());
    let uc = Arc::new(UcInner {
        id: rt.alloc_id(),
        name: name.to_string(),
        kind: UcKind::Pooled,
        ctx: UnsafeCell::new(ulp_fcontext::RawContext::null()),
        kc,
        pid,
        coupled: AtomicBool::new(false),
        state: AtomicU8::new(UcState::Created as u8),
        tls: TlsStorage::new(),
        errno: std::sync::atomic::AtomicI32::new(0),
        rt: Arc::downgrade(rt),
        sib_stack: Mutex::new(None),
        sib_entry: Mutex::new(Some(f)),
        sib_result: result.clone(),
        sigmask: crate::uc::SigMaskCell::new(ulp_kernel::SigSet::EMPTY),
        wait_since: AtomicU64::new(0),
        wake_from: AtomicU64::new(0),
        spawn_ns: crate::trace::now_ns(),
        qlink: crate::park::QLink::new(),
        phases: crate::park::Phases::new(),
    });
    // Deliberately NOT in the pid → UC registry (`register_uc`): a million
    // entries would dominate the map, and procfs enrichment of short-lived
    // pooled rows is not worth that. `/proc/<pid>/stat` still works off the
    // kernel's own process table.
    rt.tracer.record(crate::trace::Event::Spawn(uc.id));
    let raw = Arc::into_raw(uc.clone()) as *mut u8;
    let ctx = unsafe { prepare(stack.top(), pooled_entry, raw) };
    unsafe {
        *uc.ctx.get() = ctx;
    }
    *uc.sib_stack.lock() = Some(stack);
    // Born decoupled, straight into the scheduled pool (like a sibling).
    // As with siblings, the first dispatch's wake edge attributes to the
    // spawner.
    if rt.tracer.is_enabled() {
        let waker = crate::current::current_ulp().map_or(BltId(0), |u| u.id);
        uc.wake_from.store(
            crate::uc::encode_wake_from(waker, ulp_kernel::WakeSite::Spawn),
            Ordering::Relaxed,
        );
    }
    rt.runq.push(uc.clone());
    Ok(PooledHandle {
        uc,
        result,
        rt: Arc::downgrade(rt),
    })
}

extern "C" fn pooled_entry(_arg: usize, data: *mut u8) -> ! {
    // Whoever dispatched us deferred an action; drain it first.
    run_deferred();
    let uc: Arc<UcInner> = unsafe { Arc::from_raw(data as *const UcInner) };
    uc.set_state(UcState::Running);
    let f = uc.sib_entry.lock().take().expect("pooled dispatched twice");
    let status = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(code) => code,
        Err(_) => PANIC_EXIT_STATUS,
    };

    // Rule 7: terminate coupled with the (pool) original KC. The pool KC
    // bound this thread to our pid when it served the couple request, so
    // the process exit below runs under the right kernel identity.
    let _ = couple();
    debug_assert!(uc.kc.is_current_thread());
    uc.set_state(UcState::Terminated);
    if let Some(rt) = uc.rt.upgrade() {
        // No `decouple()` will end this coupled scope.
        uc.phases.ended_coupled(rt.runq.parker());
        rt.tracer.record(crate::trace::Event::Terminate(uc.id));
        let _ = rt.kernel.exit_process(uc.pid, status);
    }

    // Hand the KC back to the pool loop. The deferred hook recycles our
    // stack and only *then* publishes the exit status — a waiter that wakes
    // on it observes the stack already back in the pool and every hot-path
    // counter landed.
    let kc = uc.kc.clone();
    let save_slot = uc.ctx.get();
    let deferred = Deferred::TerminatePooled {
        uc: uc.clone(),
        status,
    };
    drop(uc);
    let target = unsafe { *kc.tc_ctx.get() };
    unsafe {
        crate::couple::raw_switch(save_slot, target, Some(deferred));
    }
    unreachable!("terminated pooled ULP resumed");
}

extern "C" fn sibling_entry(_arg: usize, data: *mut u8) -> ! {
    // Whoever dispatched us deferred an action (e.g. a yield's
    // self-enqueue); drain it before anything else.
    run_deferred();
    let uc: Arc<UcInner> = unsafe { Arc::from_raw(data as *const UcInner) };
    uc.set_state(UcState::Running);
    let f = uc
        .sib_entry
        .lock()
        .take()
        .expect("sibling dispatched twice");
    let status = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(code) => code,
        Err(_) => PANIC_EXIT_STATUS,
    };

    // Terminate coupled with the (shared) original KC, per rule 7.
    let _ = couple();
    debug_assert!(uc.kc.is_current_thread());
    uc.set_state(UcState::Terminated);
    // Record before publishing the result: once the waiter sees the
    // status it may shut tracing down, and trace-based spawn/terminate
    // accounting needs this event on every exit path.
    if let Some(rt) = uc.rt.upgrade() {
        // No `decouple()` will end this coupled scope.
        uc.phases.ended_coupled(rt.runq.parker());
        rt.tracer.record(crate::trace::Event::Terminate(uc.id));
    }
    uc.sib_result.set(status);

    // Hand the KC back to the trampoline; it reclaims our stack and
    // decrements the sibling count only after this context is fully saved
    // (nobody will ever resume it).
    let kc = uc.kc.clone();
    let save_slot = uc.ctx.get();
    let deferred = Deferred::TerminateSibling(uc.clone());
    drop(uc);
    let target = unsafe { *kc.tc_ctx.get() };
    unsafe {
        crate::couple::raw_switch(save_slot, target, Some(deferred));
    }
    unreachable!("terminated sibling resumed");
}
