//! The ULP runtime: configuration, scheduler kernel contexts, lifecycle.
//!
//! A runtime owns the simulated kernel, the run queue of decoupled UCs and
//! `NCprog` scheduler threads (the "BLTs to act as a scheduler" of the
//! paper's Fig. 6 usage scenario). The paper's topology equations are
//! exposed as [`Topology`]:
//!
//! > NC = NCprog + NCsyscall           (1)
//! > NB = NCprog × (O + 1)             (2)

use crate::current::{
    clear_thread_state, run_deferred, set_current_ulp, set_host, set_runtime, with_thread,
};
use crate::error::UlpError;
use crate::runqueue::RunQueue;
use crate::stats::Stats;
use crate::uc::{BltId, IdlePolicy, KcShared, UcInner, UcKind, UcState};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use ulp_fcontext::StackPool;
use ulp_kernel::process::{Pid, Process};
use ulp_kernel::{ArchProfile, Kernel, KernelRef};

/// What the runtime does when a system call is issued from a decoupled UC
/// (a consistency violation in the paper's sense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Let it happen silently — the call simply observes the wrong kernel
    /// state, exactly as a naive ULP system would.
    Off,
    /// Let it happen but record it in the audit log (default).
    #[default]
    Record,
    /// Panic at the call site (for debugging user code).
    Panic,
}

/// The paper's CPU-core topology (Fig. 6 and equations (1)/(2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// CPU cores running user program UCs (`NCprog`) — the number of
    /// scheduler BLTs the runtime starts.
    pub nc_prog: usize,
    /// CPU cores dedicated to system-call execution (`NCsyscall`) — where
    /// decoupled original KCs are parked (advisory pinning).
    pub nc_syscall: usize,
    /// Over-subscription magnification `O`.
    pub oversubscription: usize,
}

impl Topology {
    /// Total cores, `NC = NCprog + NCsyscall` (eq. 1).
    pub fn total_cores(&self) -> usize {
        self.nc_prog + self.nc_syscall
    }

    /// Number of worker BLTs, `NB = NCprog × (O + 1)` (eq. 2).
    pub fn n_blts(&self) -> usize {
        self.nc_prog * (self.oversubscription + 1)
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scheduler threads (`NCprog`).
    pub n_schedulers: usize,
    /// How idle kernel contexts wait: the paper's BUSYWAIT / BLOCKING
    /// (§VI-C), or — the default — `Adaptive`, which spins only while the
    /// KC's last wait was short and recent and otherwise sleeps at once.
    pub idle_policy: IdlePolicy,
    /// Architecture cost model for the simulated kernel and TLS register.
    pub profile: ArchProfile,
    /// Emulate the per-switch TLS register reload (§V-B). Disabling it
    /// models the ULT libraries that "ignore TLS variables" — an ablation.
    pub tls_switch: bool,
    /// Create each BLT's trampoline context at spawn instead of lazily at
    /// the first `decouple()` (§V-A: "may be created at the time of a KLT
    /// creation, or in a lazy way") — an ablation.
    pub eager_tc: bool,
    /// Try to pin scheduler threads to distinct cores.
    pub pin_schedulers: bool,
    /// FlexSC-style dedicated system-call cores (paper Fig. 6 / §VII):
    /// original KCs of worker BLTs are pinned round-robin onto these cores,
    /// keeping system-call cache footprints off the program cores. Ignored
    /// (with graceful degradation) when the host lacks the cores.
    pub syscall_cores: Option<Vec<usize>>,
    /// Consistency-violation handling for `sys::*` veneers.
    pub consistency: ConsistencyMode,
    /// ucontext-style switching (§VII): install each UC's signal mask on
    /// the executing kernel context at every UC↔UC switch, paying a system
    /// call. `false` (default) reproduces fcontext behavior — signals are
    /// observed by whatever KC happens to run, the paper's caveat.
    pub save_sigmask: bool,
    /// Shared (pool) kernel contexts serving `spawn_pooled` ULPs. Defaults
    /// to `ULP_KCS` when set, else the host's available parallelism — the
    /// oversubscription point: 100k–1M ULPs share this handful of KCs.
    /// Clamped to at least 1. The pool threads start lazily at the first
    /// pooled spawn.
    pub pool_kcs: usize,
    /// Per-KC trace-ring capacity in records (clamped to `[16, 2^20]`,
    /// rounded up to a power of two). The default suits microbenches;
    /// high-cardinality runs that reason over the trace need more.
    pub trace_capacity: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n_schedulers: 1,
            idle_policy: IdlePolicy::Adaptive,
            profile: ArchProfile::Native,
            tls_switch: true,
            eager_tc: false,
            pin_schedulers: false,
            syscall_cores: None,
            consistency: ConsistencyMode::Record,
            save_sigmask: false,
            pool_kcs: default_pool_kcs(),
            trace_capacity: 4096,
        }
    }
}

/// `ULP_KCS` when set and positive, else the host's available parallelism,
/// never below 1.
fn default_pool_kcs() -> usize {
    std::env::var("ULP_KCS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Builder for [`Runtime`].
#[derive(Default)]
pub struct RuntimeBuilder {
    config: Config,
    kernel: Option<KernelRef>,
}

impl RuntimeBuilder {
    /// Number of scheduler threads (`NCprog`), clamped to at least 1.
    pub fn schedulers(mut self, n: usize) -> Self {
        self.config.n_schedulers = n.max(1);
        self
    }
    /// How idle kernel contexts wait (BUSYWAIT / BLOCKING / Adaptive).
    pub fn idle_policy(mut self, p: IdlePolicy) -> Self {
        self.config.idle_policy = p;
        self
    }
    /// Architecture cost model for the simulated kernel.
    pub fn profile(mut self, p: ArchProfile) -> Self {
        self.config.profile = p;
        self
    }
    /// Emulate the per-switch TLS-register reload (§V-B); `false` is the
    /// "ignore TLS variables" ablation.
    pub fn tls_switch(mut self, on: bool) -> Self {
        self.config.tls_switch = on;
        self
    }
    /// Create trampoline contexts at spawn instead of lazily (§V-A).
    pub fn eager_tc(mut self, on: bool) -> Self {
        self.config.eager_tc = on;
        self
    }
    /// Try to pin scheduler threads to distinct cores.
    pub fn pin_schedulers(mut self, on: bool) -> Self {
        self.config.pin_schedulers = on;
        self
    }
    /// FlexSC-style dedicated system-call cores (Fig. 6 / §VII).
    pub fn syscall_cores(mut self, cores: Vec<usize>) -> Self {
        self.config.syscall_cores = Some(cores);
        self
    }
    /// Consistency-violation handling for `sys::*` veneers.
    pub fn consistency(mut self, m: ConsistencyMode) -> Self {
        self.config.consistency = m;
        self
    }
    /// ucontext-style switching: carry signal masks across UC switches.
    pub fn save_sigmask(mut self, on: bool) -> Self {
        self.config.save_sigmask = on;
        self
    }
    /// Shared (pool) kernel contexts for `spawn_pooled` ULPs, clamped to at
    /// least 1. Overrides the `ULP_KCS`/parallelism default.
    pub fn pool_kcs(mut self, n: usize) -> Self {
        self.config.pool_kcs = n.max(1);
        self
    }
    /// Per-KC trace-ring capacity in records (clamped to `[16, 2^20]`).
    pub fn trace_capacity(mut self, records: usize) -> Self {
        self.config.trace_capacity = records;
        self
    }
    /// Use an existing simulated kernel (shared by several runtimes in
    /// tests). Its profile takes precedence over [`RuntimeBuilder::profile`].
    pub fn kernel(mut self, k: KernelRef) -> Self {
        self.kernel = Some(k);
        self
    }

    /// Start the runtime: spawns the scheduler threads and binds the
    /// calling thread as the PiP-root process.
    pub fn build(self) -> Runtime {
        Runtime::from_parts(self.config, self.kernel)
    }
}

/// Shared innards of a [`Runtime`].
pub struct RuntimeInner {
    /// The simulated kernel (possibly shared with other runtimes).
    pub kernel: KernelRef,
    /// The configuration the runtime was built with.
    pub config: Config,
    /// Decoupled UCs awaiting dispatch.
    pub runq: RunQueue,
    /// Sharded event counters.
    pub stats: Stats,
    /// Reusable sibling stacks.
    pub stack_pool: StackPool,
    /// The PiP-root-equivalent process every BLT is a child of (the
    /// kernel's init), resolved once at build.
    pub root: Arc<Process>,
    /// Set by [`Runtime::shutdown`]; schedulers exit once the queue drains.
    pub shutdown: AtomicBool,
    pub(crate) schedulers: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) audit: Mutex<Vec<UlpError>>,
    /// Scheduling-event tracer (disabled by default; per-KC shards).
    pub tracer: crate::trace::Tracer,
    /// `ULP_TRACE=<path>`: where to dump the Chrome-trace JSON at shutdown
    /// (`None` when the env hook is not in use).
    trace_dump: Mutex<Option<std::path::PathBuf>>,
    /// `ULP_PROFILE=<path>`: where to dump the folded (collapsed-stack)
    /// profile at shutdown (`None` when the env hook is not in use).
    profile_dump: Mutex<Option<std::path::PathBuf>>,
    /// Live `/metrics` endpoint (see [`crate::metrics_server`]), present
    /// while serving.
    metrics: Mutex<Option<crate::metrics_server::MetricsServer>>,
    /// Kernel identity → UC lookup for `/proc/<pid>/stat` enrichment: maps
    /// a pid to the primary (identity-owning) UC carrying it. Weak so the
    /// registry never extends a UC's life; dead entries are replaced on the
    /// next registration for that pid and otherwise just fail to upgrade.
    pub(crate) ucs: Mutex<std::collections::HashMap<u32, std::sync::Weak<UcInner>>>,
    /// Shared kernel contexts serving pooled ULPs (lazily started).
    pub(crate) pool: KcPool,
    next_id: AtomicU64,
}

/// The pool of shared kernel contexts behind `spawn_pooled`: `pool_kcs`
/// OS threads, each running [`crate::kc::pool_main`], started together on
/// the first pooled spawn and joined at shutdown. Pooled ULPs are dealt to
/// the KCs round-robin.
#[derive(Default)]
pub(crate) struct KcPool {
    kcs: std::sync::OnceLock<Vec<Arc<KcShared>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next: std::sync::atomic::AtomicUsize,
}

impl RuntimeInner {
    pub(crate) fn alloc_id(&self) -> BltId {
        BltId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Register a primary or scheduler UC in the pid → UC lookup used by the
    /// procfs provider. Secondary UCs are never registered: a sibling's pid
    /// row belongs to the primary that *owns* the identity, and pooled ULPs
    /// would be a million short-lived entries. A live earlier registration
    /// wins (thread-mode BLTs sharing a pid don't displace the original);
    /// dead or terminated entries are replaced.
    pub(crate) fn register_uc(&self, uc: &Arc<UcInner>) {
        let mut map = self.ucs.lock();
        let stale = match map.get(&uc.pid().0).and_then(std::sync::Weak::upgrade) {
            Some(cur) => cur.state() == UcState::Terminated,
            None => true,
        };
        if stale {
            map.insert(uc.pid().0, Arc::downgrade(uc));
        }
    }

    /// The registered (live) UC carrying `pid`, if any.
    pub(crate) fn uc_for_pid(&self, pid: u32) -> Option<Arc<UcInner>> {
        self.ucs.lock().get(&pid).and_then(std::sync::Weak::upgrade)
    }

    /// Hand out the next pool KC (round-robin), starting the pool threads
    /// on first use. Lazy so runtimes that never call `spawn_pooled` pay
    /// nothing for the pool.
    pub(crate) fn pool_kc(self: &Arc<Self>) -> &Arc<KcShared> {
        let kcs = self.pool.kcs.get_or_init(|| {
            let n = self.config.pool_kcs.max(1);
            let mut kcs = Vec::with_capacity(n);
            let mut threads = self.pool.threads.lock();
            for idx in 0..n {
                let kc = Arc::new(KcShared::new(self.config.idle_policy));
                let rt = self.clone();
                let kc2 = kc.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("ulp-pool-{idx}"))
                        .spawn(move || crate::kc::pool_main(rt, kc2))
                        .expect("spawn pool kc thread"),
                );
                kcs.push(kc);
            }
            kcs
        });
        let i = self.pool.next.fetch_add(1, Ordering::Relaxed) % kcs.len();
        &kcs[i]
    }

    /// Record a consistency violation per the configured mode.
    pub(crate) fn report_violation(&self, v: UlpError) {
        match self.config.consistency {
            ConsistencyMode::Off => {}
            ConsistencyMode::Record => self.audit.lock().push(v),
            ConsistencyMode::Panic => panic!("{v}"),
        }
    }

    /// One Prometheus text rendering of everything this runtime exports:
    /// counters, scheduling-latency histograms, per-syscall latency
    /// families, the kernel's all-time syscall counter and the recorded
    /// consistency-violation count. Shared by `Runtime::prometheus_dump`
    /// and the `/metrics` endpoint.
    pub(crate) fn prometheus_render(&self) -> String {
        crate::export::prometheus_text(
            &self.stats.snapshot(),
            &self.tracer.latency_snapshot(),
            &self.tracer.syscall_snapshot(),
            self.kernel.total_syscalls(),
            &ulp_kernel::wait_outcomes(),
            self.audit.lock().len() as u64,
            &crate::export::PoolMetrics::from_pool(&self.stack_pool),
            self.tracer.dropped_records(),
            self.runq.len() as u64,
        )
    }

    /// Fold the tracer's current contents into collapsed-stack text (the
    /// `/profile` endpoint body). Non-destructive.
    pub(crate) fn profile_collapsed(&self) -> String {
        crate::profile::fold_profile(&self.tracer.snapshot()).collapsed()
    }

    /// Like [`RuntimeInner::profile_collapsed`] but restricted to the trace
    /// window `[t0, t1)` (nanoseconds on the trace clock) when one is given:
    /// each span contributes only its overlap with the window. Backs the
    /// `/profile?t0=..&t1=..` query form.
    pub(crate) fn profile_collapsed_window(&self, window: Option<(u64, u64)>) -> String {
        crate::profile::fold_profile_window(&self.tracer.snapshot(), window).collapsed()
    }

    /// Fold the tracer's current contents into the structured profile JSON
    /// (the `/profile.json` endpoint body). Non-destructive.
    pub(crate) fn profile_json(&self) -> String {
        crate::profile::fold_profile(&self.tracer.snapshot()).to_json()
    }

    /// Render the tracer's current contents as Chrome-trace JSON without
    /// draining them (the `/trace` endpoint body), restricted to the trace
    /// window `[t0, t1)` when one is given — the `/trace?t0=..` query form.
    /// The window is the one `/profile?t0=..` folds: the whole history is
    /// replayed and each span is drawn clipped to the window, so a UC that
    /// was `decoupled` from before `t0` until after `t1` is one `decoupled`
    /// span of the window's width, not an empty track.
    pub(crate) fn trace_json_window(&self, window: Option<(u64, u64)>) -> String {
        crate::export::chrome_trace_json_window(&self.tracer.snapshot(), window)
    }
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("config", &self.config)
            .field("root_pid", &self.root.pid)
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The BLT/ULP runtime. Dropping it shuts the schedulers down (after the
/// run queue drains); call [`crate::BltHandle::wait`] on every spawned BLT
/// first.
#[derive(Debug)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Default-configured runtime (1 scheduler, `Adaptive` idle, native
    /// profile).
    pub fn new() -> Runtime {
        RuntimeBuilder::default().build()
    }

    /// A builder for a customized runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    fn from_parts(config: Config, kernel: Option<KernelRef>) -> Runtime {
        let kernel = kernel.unwrap_or_else(|| Kernel::new(config.profile));
        let root = kernel.process(Pid(1)).expect("a kernel boots with init");
        let tracer = crate::trace::Tracer::new(config.trace_capacity);
        let mut runq = RunQueue::new(config.idle_policy);
        runq.set_trace_gate(tracer.gate());
        // ULP_TRACE=<path>: record from birth, dump Perfetto JSON at
        // shutdown (no code changes needed in the traced program).
        let trace_dump = std::env::var_os("ULP_TRACE").map(std::path::PathBuf::from);
        // ULP_PROFILE=<path>: fold the same recording into collapsed-stack
        // text at shutdown (feed it to inferno/flamegraph.pl/speedscope).
        let profile_dump = std::env::var_os("ULP_PROFILE").map(std::path::PathBuf::from);
        // ULP_METRICS_ADDR=host:port: serve live Prometheus text. The
        // per-syscall latency families only fill while tracing is on, so the
        // endpoint implies tracing — as do both dump hooks.
        let metrics_addr = std::env::var("ULP_METRICS_ADDR").ok();
        if trace_dump.is_some() || profile_dump.is_some() || metrics_addr.is_some() {
            tracer.enable();
        }
        // The kernel → runtime seam: syscall spans and wake edges onto the
        // per-KC trace shards, /proc bodies from this crate's runtime state.
        // Process-global, first install wins; every hook routes through the
        // calling thread's runtime, so several runtimes coexist
        // (`tests/two_runtimes.rs`).
        ulp_kernel::KernelHooks {
            syscall: crate::trace::kernel_syscall_observer,
            wake_stamp: crate::trace::wake_stamp_hook,
            wake_emit: crate::trace::wake_emit_hook,
            proc: crate::proc::provider,
        }
        .install();
        let inner = Arc::new(RuntimeInner {
            runq,
            stats: Stats::default(),
            stack_pool: StackPool::new(128),
            root,
            shutdown: AtomicBool::new(false),
            schedulers: Mutex::new(Vec::new()),
            audit: Mutex::new(Vec::new()),
            tracer,
            trace_dump: Mutex::new(trace_dump),
            profile_dump: Mutex::new(profile_dump),
            metrics: Mutex::new(None),
            ucs: Mutex::new(std::collections::HashMap::new()),
            pool: KcPool::default(),
            next_id: AtomicU64::new(1),
            kernel,
            config,
        });
        // The creating thread acts as the PiP root: bind it so `sys::*`
        // works from the root, too.
        inner.kernel.bind_process(&inner.root);
        set_runtime(inner.clone());
        let mut handles = Vec::new();
        for idx in 0..inner.config.n_schedulers {
            let rt = inner.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ulp-sched-{idx}"))
                    .spawn(move || scheduler_main(rt, idx))
                    .expect("spawn scheduler thread"),
            );
        }
        *inner.schedulers.lock() = handles;
        let rt = Runtime { inner };
        if let Some(addr) = metrics_addr {
            match rt.serve_metrics(&addr) {
                Ok(bound) => eprintln!("[ulp-metrics] serving http://{bound}/metrics"),
                Err(e) => eprintln!("[ulp-metrics] failed to bind {addr}: {e}"),
            }
        }
        rt
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &KernelRef {
        &self.inner.kernel
    }

    /// The root process every BLT is a child of (the PiP-root identity).
    pub fn root_pid(&self) -> Pid {
        self.inner.root.pid
    }

    /// Runtime counters.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// The shared stack pool (sibling stacks + pooled-ULP slab slots).
    /// Exposes hit/miss/recycle counters and the live/high-water gauges
    /// that the RSS claims of oversubscription mode rest on.
    pub fn stack_pool(&self) -> &ulp_fcontext::StackPool {
        &self.inner.stack_pool
    }

    /// Recorded consistency violations (`ConsistencyMode::Record`).
    pub fn violations(&self) -> Vec<UlpError> {
        self.inner.audit.lock().clone()
    }

    /// Start recording scheduling events (see [`crate::trace`]).
    pub fn trace_enable(&self) {
        self.inner.tracer.enable();
    }

    /// Stop recording scheduling events.
    pub fn trace_disable(&self) {
        self.inner.tracer.disable();
    }

    /// Whether scheduling-event recording is currently on.
    pub fn trace_enabled(&self) -> bool {
        self.inner.tracer.is_enabled()
    }

    /// Drain recorded scheduling events.
    pub fn take_trace(&self) -> Vec<crate::trace::TraceRecord> {
        self.inner.tracer.take()
    }

    /// Copy the recorded scheduling events without draining them: shard
    /// cursors stay put and a later [`Runtime::take_trace`] still returns
    /// everything. Safe while tracing is live — this is what the `/trace`
    /// endpoint serves mid-run.
    pub fn trace_snapshot(&self) -> Vec<crate::trace::TraceRecord> {
        self.inner.tracer.snapshot()
    }

    /// Fold the current trace contents into a per-BLT wall-clock profile
    /// (see [`crate::profile`]). Non-destructive, like
    /// [`Runtime::trace_snapshot`]; safe to call mid-run.
    pub fn profile_snapshot(&self) -> crate::profile::ProfileSnapshot {
        crate::profile::fold_profile(&self.inner.tracer.snapshot())
    }

    /// Trace records lost since tracing was last enabled (ring-buffer laps
    /// and fallback evictions, counted at drain time). Nonzero means
    /// [`Runtime::take_trace`] returned an incomplete history; consumers
    /// that *reason* about the trace (rather than eyeball it) should treat
    /// that as an error and re-run with a larger ring.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.tracer.dropped_records()
    }

    /// Fold every kernel context's latency histograms into one snapshot
    /// (queue delay, couple resume, yield interval, KC block — see
    /// [`crate::hist::LatencySnapshot`]). Populated only while tracing is
    /// enabled.
    pub fn latency_snapshot(&self) -> crate::hist::LatencySnapshot {
        self.inner.tracer.latency_snapshot()
    }

    /// Fold every kernel context's per-syscall latency histograms into one
    /// snapshot: one `(name, distribution)` row per simulated system call
    /// (see [`crate::hist::SyscallSnapshot`]). Populated only while tracing
    /// is enabled.
    pub fn syscall_snapshot(&self) -> crate::hist::SyscallSnapshot {
        self.inner.tracer.syscall_snapshot()
    }

    /// Prometheus text-exposition dump of the runtime's counters, latency
    /// histograms and per-syscall latency families (see
    /// [`crate::export::prometheus_text`]).
    pub fn prometheus_dump(&self) -> String {
        self.inner.prometheus_render()
    }

    /// Start serving [`Runtime::prometheus_dump`] over HTTP on `addr`
    /// (e.g. `"127.0.0.1:9184"`; port `0` picks a free port). Returns the
    /// bound address. Idempotent per runtime: a second call replaces the
    /// previous server. `GET /metrics` (or `/`) answers with the exposition
    /// text; the listener dies with the runtime's [`Runtime::shutdown`].
    ///
    /// The env-var equivalent is `ULP_METRICS_ADDR=addr`, which also turns
    /// the tracer on so the latency families fill; this method leaves
    /// tracing control to the caller.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let server =
            crate::metrics_server::MetricsServer::start(addr, Arc::downgrade(&self.inner))?;
        let bound = server.addr();
        *self.inner.metrics.lock() = Some(server);
        Ok(bound)
    }

    /// The metrics endpoint's bound address, if one is serving.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.metrics.lock().as_ref().map(|s| s.addr())
    }

    /// The runtime's configuration (as built).
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    pub(crate) fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }

    /// Stop the schedulers once the run queue drains and join them.
    pub fn shutdown(&self) {
        // Metrics first: scrapes race shutdown harmlessly, but the listener
        // thread should not outlive the runtime it reports on.
        if let Some(mut server) = self.inner.metrics.lock().take() {
            server.stop();
        }
        self.inner.shutdown.store(true, Ordering::Release);
        // Nudge sleepers.
        for _ in 0..self.inner.config.n_schedulers {
            self.inner.runq.wake_all();
        }
        let handles: Vec<_> = self.inner.schedulers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Pool KCs exit once shutdown is set and their pending queues are
        // empty; nudge any futex sleepers, then join.
        if let Some(kcs) = self.inner.pool.kcs.get() {
            for kc in kcs {
                kc.parker.poke();
            }
        }
        let pool_handles: Vec<_> = self.inner.pool.threads.lock().drain(..).collect();
        for h in pool_handles {
            let _ = h.join();
        }
        // ULP_PROFILE dump: folded from a *non-destructive* snapshot, and
        // ordered before the ULP_TRACE drain so both hooks see the full
        // history when set together. take() empties the path slot, so the
        // Drop-routed second call is a no-op.
        if let Some(path) = self.inner.profile_dump.lock().take() {
            let profile = crate::profile::fold_profile(&self.inner.tracer.snapshot());
            let text = profile.collapsed();
            match std::fs::write(&path, &text) {
                Ok(()) => eprintln!(
                    "[ulp-profile] wrote {} stacks ({} BLTs) to {}",
                    text.lines().count(),
                    profile.blts.len(),
                    path.display()
                ),
                Err(e) => eprintln!("[ulp-profile] failed to write {}: {e}", path.display()),
            }
        }
        // ULP_TRACE dump: after the joins so every scheduler's shard is
        // quiescent. take() leaves the path slot empty, so the Drop-routed
        // second call is a no-op.
        if let Some(path) = self.inner.trace_dump.lock().take() {
            let records = self.inner.tracer.take();
            let json = crate::export::chrome_trace_json(&records);
            match std::fs::write(&path, &json) {
                Ok(()) => eprintln!(
                    "[ulp-trace] wrote {} events to {}",
                    records.len(),
                    path.display()
                ),
                Err(e) => eprintln!("[ulp-trace] failed to write {}: {e}", path.display()),
            }
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

/// Dropping the runtime shuts it down and, on the thread that built it,
/// releases that thread's anchor, so the runtime's memory (trace rings,
/// stats shards, stack pool, kernel) goes with the last handle. A drop on
/// another thread cannot reach the builder's thread-local anchor: the
/// runtime then lives on until the builder exits or builds another one.
impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
        // What the builder's anchor may still keep alive must not keep
        // recording: stop the tracer, or the kernel would keep calling its
        // hooks for a recorder nobody can read.
        self.inner.tracer.disable();
        crate::current::release_runtime(&self.inner);
    }
}

/// Best-effort pinning of the calling thread to a CPU core.
pub(crate) fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(core % libc::CPU_SETSIZE as usize, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// Scheduler thread body: a scheduler BLT in the paper's Fig. 6 — a KC
/// bound to a program core, running decoupled UCs from the shared queue.
fn scheduler_main(rt: Arc<RuntimeInner>, idx: usize) {
    if rt.config.pin_schedulers {
        let _ = pin_current_thread(idx);
    }
    let proc = rt.kernel.spawn_child(&rt.root, &format!("ulp-sched-{idx}"));
    rt.kernel.bind_process(&proc);

    let kc = Arc::new(KcShared::new(rt.config.idle_policy));
    kc.adopt_current_thread();
    let identity = UcInner::new(
        rt.alloc_id(),
        format!("sched-{idx}"),
        UcKind::Scheduler,
        kc,
        proc,
        Arc::downgrade(&rt),
        None,
    );
    identity.set_state(UcState::Running);
    rt.register_uc(&identity);
    set_runtime(rt.clone());
    set_host(Some(identity.clone()));
    set_current_ulp(Some(identity.clone()));

    let mut idle = crate::park::IdleTally::starting();
    loop {
        if rt.shutdown.load(Ordering::Acquire) && rt.runq.is_empty() {
            break;
        }
        let seen = rt.runq.version();
        match rt.runq.pop() {
            Some(uc) => {
                idle.found_work();
                run_uc(&identity, uc)
            }
            None => {
                rt.stack_pool.scavenge();
                rt.runq.park(seen, &mut idle);
            }
        }
    }

    let _ = rt.kernel.exit(&identity.proc, 0);
    rt.kernel.unbind_current();
    clear_thread_state();
}

/// Dispatch one decoupled UC on this scheduler KC (Table I, KC₁ column).
fn run_uc(host: &Arc<UcInner>, uc: Arc<UcInner>) {
    let save = host.ctx.get();
    // One thread-block access for the whole dispatch.
    let target = with_thread(|b| {
        if let Some(s) = b.shard() {
            s.bump_context_switches();
        }
        crate::couple::host_dispatch(b, uc, host.id)
    });
    unsafe {
        ulp_fcontext::swap(&mut *save, target, 0);
    }
    run_deferred();
    // The UC relinquished this KC (couple request or yield chain ended in a
    // couple); by protocol the switch back installed our identity again.
    debug_assert!(
        crate::current::current_ulp().map(|u| u.id) == Some(host.id),
        "scheduler resumed without its identity installed"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The building thread anchors a runtime only while a handle to it
    /// lives; a second runtime built on that thread keeps its own anchor
    /// when the first one drops.
    #[test]
    fn dropping_a_runtime_frees_it_on_the_building_thread() {
        std::thread::spawn(|| {
            let rt = Runtime::builder().schedulers(1).build();
            assert_eq!(rt.spawn("worker", || 7).wait(), 7);
            let inner = Arc::downgrade(&rt.inner);
            drop(rt);
            assert!(inner.upgrade().is_none(), "the builder still anchors it");
            assert!(crate::current::current_runtime().is_none());

            let first = Runtime::builder().schedulers(1).build();
            let second = Runtime::builder().schedulers(1).build();
            let (a, b) = (Arc::downgrade(&first.inner), Arc::downgrade(&second.inner));
            drop(first);
            assert!(a.upgrade().is_none(), "the replaced anchor is gone");
            let anchored = crate::current::current_runtime().expect("second's anchor");
            assert!(Arc::ptr_eq(&anchored, &second.inner));
            drop(anchored);
            drop(second);
            assert!(b.upgrade().is_none());
        })
        .join()
        .unwrap();
    }
}
