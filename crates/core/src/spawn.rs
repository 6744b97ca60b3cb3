//! Spawning BLTs and secondary UCs, and waiting for their termination.
//!
//! Paper rules 1, 2 and 7 (§II): "A BLT is created as a KLT consisting of a
//! pair of UC and KC"; "the KC created at the beginning is called original
//! KC"; "when a UC terminates, it is coupled with its original KC to become
//! a KLT and the KLT terminates". Concretely: every BLT gets a fresh OS
//! thread whose native context *is* the BLT's UC; the user function starts
//! executing immediately as a KLT; the spawner `wait()`s for it just like
//! `wait(2)` on a forked PiP process.
//!
//! A *secondary* UC — a sibling (§VII's M:N extension) or a pooled ULP —
//! has no thread of its own. Both kinds take one path: `spawn_secondary`
//! gives the UC a stack and pushes it on the run queue decoupled,
//! `secondary_entry` runs it and couples it to its original KC to
//! terminate (rule 7), and `Deferred::Terminate` recycles the stack before
//! it publishes the status. A sibling holds a slot in its primary KC's
//! `sibling_count`, which keeps that KC from retiring.
//!
//! Every UC ends one way: its last act publishes its status on its exit cell
//! (`UcInner::exit`), which both handles' `wait()` joins; no OS thread is
//! joined. Whether it exits and reaps its pid is `UcInner::owns_pid`.

use crate::couple::couple;
use crate::current::{run_deferred, set_current_ulp, set_runtime, Deferred};
use crate::error::UlpError;
use crate::runtime::{Runtime, RuntimeInner};
use crate::uc::{BltId, KcShared, UcInner, UcKind, UcState, UlpFn};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use ulp_fcontext::{prepare, Stack};
use ulp_kernel::process::{Pid, Process};

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
}

impl BltHandle {
    /// The BLT's simulated-kernel process ID.
    pub fn pid(&self) -> Pid {
        self.uc.pid()
    }

    /// The BLT's runtime-local id.
    pub fn id(&self) -> BltId {
        self.uc.id
    }

    /// Wait for the BLT to terminate (as a KLT coupled with its original
    /// KC), reap its simulated-kernel zombie, and return its exit status —
    /// the analogue of `wait(2)` on a PiP child process (§II). It joins as
    /// [`UlpHandle::wait`] does, never holding a scheduler; a second call
    /// returns the same status and reaps nothing.
    pub fn wait(&self) -> i32 {
        self.close_kc();
        join(&self.uc)
    }

    /// Whether the BLT is done with user code (non-blocking): its body has
    /// returned and no sibling is live, so [`BltHandle::wait`] waits only
    /// for the KC to retire, which the handle's close lets it do.
    pub fn is_finished(&self) -> bool {
        let kc = &self.uc.kc;
        self.uc.exit.try_get().is_some()
            || kc.primary_waiting.load(Ordering::Acquire)
                && kc.sibling_count.load(Ordering::Acquire) == 0
    }

    /// Spawn a sibling UC sharing this BLT's original KC — the paper's M:N
    /// extension (§VII): "UCs having the same original KC access the same
    /// information in an OS kernel", so the sibling carries the same PID.
    pub fn spawn_sibling<F>(&self, name: &str, f: F) -> Result<SiblingHandle, UlpError>
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        let rt = self.uc.rt.upgrade().ok_or(UlpError::ShuttingDown)?;
        let kc = &self.uc.kc;
        // Registration gate: either this sibling registers before the KC
        // retires (and worker_main's drain loop will serve it), or the handle
        // already closed and the spawn fails cleanly — never a sibling parked
        // on a KC whose thread is gone.
        {
            let _gate = kc.pending.lock();
            if kc.handle_closed.load(Ordering::Acquire) {
                return Err(UlpError::PrimaryExited);
            }
            kc.sibling_count.fetch_add(1, Ordering::AcqRel);
        }
        rt.stats.fallback().bump_siblings();
        let stack = rt.stack_pool.acquire(SIBLING_STACK_SIZE).map_err(|e| {
            kc.sibling_count.fetch_sub(1, Ordering::AcqRel);
            kc.parker.poke();
            UlpError::StackAlloc(e.to_string())
        })?;
        let proc = self.uc.proc.clone();
        let sib = spawn_secondary(&rt, name, UcKind::Sibling, kc, proc, stack, f);
        // The count was bumped under the gate above; wake the primary in
        // case it idles in its pre-retirement loop.
        kc.parker.poke();
        Ok(sib)
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

/// Handle to a secondary UC — a sibling or a pooled ULP — the spawner's
/// side of its `wait()`.
#[derive(Debug)]
pub struct UlpHandle {
    pub(crate) uc: Arc<UcInner>,
}

/// Handle to a sibling UC ([`BltHandle::spawn_sibling`]).
pub type SiblingHandle = UlpHandle;

/// Handle to a pooled (oversubscribed) ULP ([`Runtime::spawn_pooled`]) —
/// own kernel identity, shared pool KC, recycled stack.
pub type PooledHandle = UlpHandle;

impl UlpHandle {
    /// The UC's runtime-local id.
    pub fn id(&self) -> BltId {
        self.uc.id
    }

    /// The UC's simulated-kernel process ID: a pooled ULP's own, a
    /// sibling's primary's.
    pub fn pid(&self) -> Pid {
        self.uc.pid()
    }

    /// Wait until the UC terminates and return its exit status; for a
    /// pooled ULP, which owns its pid, also reap its simulated-kernel zombie
    /// (like `wait(2)`). The status is published only after the UC's final
    /// context switch has landed and its stack is back in the pool, so every
    /// counter it bumped is visible by then. A second call returns the same
    /// status at once and reaps nothing.
    ///
    /// A caller that owns its OS thread (a plain thread, a KLT, a coupled
    /// BLT) parks that thread's parker by `Waiters`' one rule, whatever the
    /// runtime's [`crate::IdlePolicy`]; a decoupled ULT leaves the run queue
    /// until the status is published, so it never holds the scheduler the UC
    /// may need (`OneShot::wait`).
    pub fn wait(&self) -> i32 {
        join(&self.uc)
    }

    /// Whether the UC has terminated (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.uc.exit.try_get().is_some()
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
        // Box before the `None` handle exists: boxing can unwind, and a
        // handle argument already built would give every instantiation of
        // this generic an unwind cleanup to drop it — enough to change what
        // the compiler inlines around a caller's closure.
        let f: UlpFn = Box::new(f);
        self.spawn_inner(name, None, f)
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
    /// and terminates coupled with its pool KC, per rule 7 — a sibling's
    /// path and switch/TLS cost shape, with the pool KC rebinding its
    /// kernel identity to the ULP's pid for the coupled stretch.
    pub fn spawn_pooled<F>(&self, name: &str, f: F) -> Result<PooledHandle, UlpError>
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        let rt = self.inner();
        rt.stats.fallback().bump_pooled();
        // Dense slab slot, not a classed guard-paged stack: two VMAs per
        // stack would blow `vm.max_map_count` long before 1M ULPs.
        let stack = rt
            .stack_pool
            .acquire_dense(POOLED_STACK_SIZE)
            .map_err(|e| UlpError::StackAlloc(e.to_string()))?;
        let proc = rt.kernel.spawn_child(&rt.root, name);
        let kc = rt.pool_kc();
        Ok(spawn_secondary(
            rt,
            name,
            UcKind::Pooled,
            kc,
            proc,
            stack,
            f,
        ))
    }

    /// Spawn a BLT that *shares* an existing kernel identity instead of
    /// getting a fresh process — PiP's thread mode, where tasks look like
    /// PThreads to the kernel (same PID, shared FD table) while still being
    /// privatized at user level (§IV).
    ///
    /// # Panics
    /// If `pid` names no process (never created, or reaped).
    pub fn spawn_with_identity<F>(&self, name: &str, pid: Pid, f: F) -> BltHandle
    where
        F: FnOnce() -> i32 + Send + 'static,
    {
        let proc = self
            .kernel()
            .process(pid)
            .unwrap_or_else(|| panic!("spawn_with_identity: no process {pid}"));
        self.spawn_inner(name, Some(proc), Box::new(f))
    }

    fn spawn_inner(&self, name: &str, proc: Option<Arc<Process>>, f: UlpFn) -> BltHandle {
        let rt = self.inner().clone();
        rt.stats.fallback().bump_blts();
        let owns_pid = proc.is_none(); // a thread-mode BLT borrows its pid
        let proc = proc.unwrap_or_else(|| rt.kernel.spawn_child(&rt.root, name));
        let kc = Arc::new(KcShared::new(rt.config.idle_policy));
        let uc = UcInner::new(
            rt.alloc_id(),
            name.to_string(),
            UcKind::Primary,
            kc,
            proc,
            owns_pid,
            Arc::downgrade(&rt),
            None,
        );
        rt.register_uc(&uc);
        rt.tracer.record(crate::trace::Event::Spawn(uc.id));
        let thread_uc = uc.clone();
        std::thread::Builder::new()
            .name(format!("ulp-{name}"))
            .spawn(move || worker_main(rt, thread_uc, f))
            .expect("spawn BLT thread");
        BltHandle { uc }
    }
}

/// The one join of every UC: wait on its exit cell, then reap its
/// simulated-kernel zombie if it owns its pid, as the PiP root would.
fn join(uc: &UcInner) -> i32 {
    let status = uc.exit.wait(&uc.rt);
    if uc.owns_pid {
        if let Some(rt) = uc.rt.upgrade() {
            rt.kernel.reap_child(&rt.root, &uc.proc);
        }
    }
    status
}

/// Body of a BLT's original kernel context. Its last act, on every way out,
/// publishes the status once `serve_blt` has dropped this thread's hold on
/// the runtime: a waiter may drop the `Runtime` as soon as `wait()` returns.
fn worker_main(rt: Arc<RuntimeInner>, uc: Arc<UcInner>, f: UlpFn) {
    let status = catch_unwind(AssertUnwindSafe(|| serve_blt(rt, &uc, f)));
    uc.exit.set(status.unwrap_or(PANIC_EXIT_STATUS), uc.id);
}

/// A BLT's life on its original KC, to its exit status: run `f`, couple
/// back (rule 7), serve the siblings until the handle closes, exit.
fn serve_blt(rt: Arc<RuntimeInner>, uc: &Arc<UcInner>, f: UlpFn) -> i32 {
    // Fig. 6 topology: park original KCs on the dedicated syscall cores so
    // their kernel work stays off the program cores (FlexSC-like, §VII).
    if let Some(cores) = &rt.config.syscall_cores {
        if !cores.is_empty() {
            let core = cores[uc.id.0 as usize % cores.len()];
            let _ = crate::runtime::pin_current_thread(core);
        }
    }
    // This OS thread *is* the original KC: adopt the kernel identity.
    rt.kernel.bind_process(&uc.proc);
    uc.kc.adopt_current_thread();
    set_runtime(rt.clone());
    set_current_ulp(Some(uc.clone()));
    uc.set_state(UcState::Running);

    if rt.config.eager_tc {
        let _ = crate::kc::ensure_tc(uc, &rt);
    }

    // Run the user function; a panic terminates the ULP like a crashed
    // process, not the whole program.
    let status = catch_unwind(AssertUnwindSafe(f)).unwrap_or(PANIC_EXIT_STATUS);

    // Rule 7: terminate as a KLT coupled with the original KC.
    let _ = couple();
    debug_assert!(uc.kc.is_current_thread());
    uc.kc.primary_waiting.store(true, Ordering::Release);

    // The KC may not exit while its `BltHandle` is still open: a sibling
    // spawned through the handle needs this OS thread to serve its couple
    // requests, and without the gate a sibling registering just as this
    // thread exits would park on a dead KC forever. Retire only once the
    // handle has closed (wait()/drop) AND every registered sibling has
    // drained; both conditions are checked under the registration gate
    // (the `pending` lock), making retirement atomic w.r.t. registration.
    let mut idle = crate::park::IdleTally::default();
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
        if crate::kc::ensure_tc(uc, &rt).is_err() {
            // Without a trampoline the KC cannot serve anyone; fall back to
            // the plain exit path rather than spin.
            break;
        }
        if uc.kc.sibling_count.load(Ordering::Acquire) > 0 {
            // Serve the live siblings from the TC until they drain.
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
            uc.kc.parker.park(seen, &mut idle, || true);
        }
    }

    uc.set_state(UcState::Terminated);
    rt.tracer.record(crate::trace::Event::Terminate(uc.id));
    if uc.owns_pid {
        let _ = rt.kernel.exit(&uc.proc, status);
    }
    rt.kernel.unbind_current();
    crate::current::clear_thread_state();
    status
}

/// The one spawn path of a secondary UC (a sibling or a pooled ULP): a UC
/// of `kind` on the original KC `kc`, carrying `proc`, whose context is
/// prepared on `stack` to start in [`secondary_entry`] — born decoupled,
/// straight onto the run queue. Secondary UCs stay out of the pid → UC
/// registry (`RuntimeInner::register_uc`); `/proc/<pid>/stat` still works
/// off the kernel's own process table.
fn spawn_secondary<F>(
    rt: &Arc<RuntimeInner>,
    name: &str,
    kind: UcKind,
    kc: &Arc<KcShared>,
    proc: Arc<Process>,
    stack: Stack,
    f: F,
) -> UlpHandle
where
    F: FnOnce() -> i32 + Send + 'static,
{
    let uc = UcInner::new(
        rt.alloc_id(),
        name.to_string(),
        kind,
        kc.clone(),
        proc,
        kind == UcKind::Pooled,
        Arc::downgrade(rt),
        Some(Box::new(f)),
    );
    rt.tracer.record(crate::trace::Event::Spawn(uc.id));
    // Bootstrap the context: the entry receives a raw Arc it adopts.
    let raw = Arc::into_raw(uc.clone()) as *mut u8;
    // SAFETY: `stack` stays this UC's until `Deferred::Terminate` releases it
    // after the UC's last switch, and no other thread can read `uc.ctx`
    // before the push below publishes the UC.
    unsafe { *uc.ctx.get() = prepare(stack.top(), secondary_entry, raw) };
    *uc.sib_stack.lock() = Some(stack);
    // The first dispatch's wake edge attributes to us, the spawner (a
    // pre-stamp the push's default self-enqueue attribution respects).
    if rt.tracer.is_enabled() {
        uc.wake_from.store(
            crate::uc::encode_wake_from(crate::current::current_id(), ulp_kernel::WakeSite::Spawn),
            Ordering::Relaxed,
        );
    }
    rt.runq.push(uc.clone());
    UlpHandle { uc }
}

/// Entry of every secondary UC, first dispatched from the run queue.
extern "C" fn secondary_entry(_arg: usize, data: *mut u8) -> ! {
    // Whoever dispatched us deferred an action (e.g. a yield's run-queue
    // release); drain it before anything else.
    run_deferred();
    // SAFETY: `data` is the `Arc::into_raw` of `spawn_secondary`, and a
    // context's entry runs once.
    let uc: Arc<UcInner> = unsafe { Arc::from_raw(data as *const UcInner) };
    uc.set_state(UcState::Running);
    let f = uc.sib_entry.lock().take().expect("UC dispatched twice");
    let status = catch_unwind(AssertUnwindSafe(f)).unwrap_or(PANIC_EXIT_STATUS);

    // Rule 7: terminate coupled with the original KC — the primary's for a
    // sibling, a pool KC for a pooled ULP, which bound this thread to our
    // process when it served the couple request.
    let _ = couple();
    debug_assert!(uc.kc.is_current_thread());
    uc.set_state(UcState::Terminated);
    // Record before the status is published: once a waiter sees it, it may
    // shut tracing down, and trace-based spawn/terminate accounting needs
    // this event on every exit path.
    if let Some(rt) = uc.rt.upgrade() {
        rt.tracer.record(crate::trace::Event::Terminate(uc.id));
        // A sibling's pid is its primary's, which exits with the primary.
        if uc.owns_pid {
            let _ = rt.kernel.exit(&uc.proc, status);
        }
    }

    // Hand the KC back to its idle loop. The deferred hook runs once this
    // context is fully saved (nobody will ever resume it): it recycles our
    // stack, releases a sibling's slot on the KC and only *then* publishes
    // the status. Nothing may stay owned by this frame, whose locals are
    // never dropped.
    let save_slot = uc.ctx.get();
    // SAFETY: we are coupled on our KC's own thread, so its idle loop is
    // suspended in `tc_ctx` and nothing else writes it.
    let target = unsafe { *uc.kc.tc_ctx.get() };
    let deferred = Deferred::Terminate { uc, status };
    // SAFETY: `save_slot` lives in the UC the deferred action holds, and that
    // action runs only once the switch has saved this context there.
    unsafe { crate::couple::raw_switch(save_slot, target, Some(deferred)) };
    unreachable!("terminated UC resumed");
}
