//! Trace-driven profiling: fold the event stream into per-BLT wall-clock
//! attribution and Brendan-Gregg collapsed stacks.
//!
//! The tracer ([`crate::trace`]) answers *what happened when*; this module
//! answers *where the time went*. [`fold_profile`] takes a drained (or
//! non-destructively snapshotted) record stream through `replay.rs` —
//! which owns the Table-I state machine, the syscall nesting and the window,
//! for this module and the Perfetto export alike — and aggregates, per BLT:
//!
//! - wall-clock time in each lifecycle state — `coupled` / `queued` /
//!   `coupling` / `decoupled` — which **partition** the BLT's lifetime
//!   (first event → `Terminate`) exactly, plus the parallel `kc_blocked`
//!   track (the original kernel context parked on its futex while the UC
//!   roams; it overlaps the lifecycle states by construction);
//! - per-syscall **self time**, nested under the state the call was issued
//!   from: a blocking pipe read folds as
//!   `coupled → syscall:read → syscall:pipe_block_read`, and a §V-B hazard
//!   shows up as syscall frames under `decoupled` — cost attribution *is*
//!   the violation detector.
//!
//! Two renderings:
//!
//! - [`ProfileSnapshot::collapsed`] — Brendan Gregg's collapsed-stack
//!   ("folded") text, one `frame;frame;frame value` line per stack, the
//!   input format of `flamegraph.pl`, inferno and speedscope. Values are
//!   self-time nanoseconds, so the lines for one BLT sum back exactly to
//!   its state totals ([`BltProfile::flame_ns`]).
//! - [`ProfileSnapshot::to_json`] — a structured dump of the same numbers
//!   for dashboards and the `/profile.json` endpoint.
//!
//! ## Reconciliation contract
//!
//! The fold is *accountable*: on a loss-free trace (zero dropped records,
//! all spans closed) the aggregate counts equal the runtime's independent
//! histogram snapshots — per-`Sysno` span counts match
//! [`SyscallSnapshot`], `decoupled` span counts match the queue-delay
//! sample count and coupled-resume counts match the couple-resume sample
//! count ([`ProfileSnapshot::reconcile`]). The torture oracle's invariant
//! family I re-checks this on every fuzzed run, so the profile can't
//! silently drift from the telemetry it summarizes.
//!
//! In-flight syscalls (entered but not yet exited at the snapshot horizon)
//! are deliberately *not* folded as syscall frames — their time stays in
//! the issuing state's self time until the exit lands, mirroring the
//! latency histograms, which also only record completed spans.

use crate::hist::{LatencySnapshot, SyscallSnapshot};
use crate::replay::{replay, Cut, Item};
use crate::trace::TraceRecord;
use crate::uc::BltId;
use std::collections::BTreeMap;
use std::fmt::Write;
use ulp_kernel::{Sysno, WakeSite};

/// Wake chains are merged beyond this many links: the fold keys a blocked
/// span by its nearest waker, that waker's waker, and so on up to this
/// depth, so transitive causality stays readable in a flamegraph without
/// exploding the number of distinct stacks.
pub const WAKE_CHAIN_DEPTH: usize = 4;

/// Where a BLT's wall-clock time is attributed (the Table-I lifecycle
/// states plus the parallel blocked-original-KC track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfileState {
    /// Running as a KLT on its original kernel context.
    Coupled = 0,
    /// Decoupled and on no KC: in the run queue, or on a wait list until
    /// its setter queues it.
    Queued = 1,
    /// Couple request published, waiting for the original KC to resume it.
    Coupling = 2,
    /// Running as a ULT on a scheduler kernel context.
    Decoupled = 3,
    /// The original kernel context parked on its futex (parallel to the
    /// four lifecycle states — it overlaps them, it does not partition).
    KcBlocked = 4,
}

/// Number of attribution buckets (including the parallel `kc_blocked`).
pub const PROFILE_STATES: usize = 5;
/// Number of lifecycle states that partition a BLT's lifetime.
const LIFECYCLE_STATES: usize = 4;

const QUEUED: usize = ProfileState::Queued as usize;
const COUPLING: usize = ProfileState::Coupling as usize;

impl ProfileState {
    /// All states, in bucket order.
    pub const ALL: [ProfileState; PROFILE_STATES] = [
        ProfileState::Coupled,
        ProfileState::Queued,
        ProfileState::Coupling,
        ProfileState::Decoupled,
        ProfileState::KcBlocked,
    ];

    /// The frame label used in collapsed stacks and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProfileState::Coupled => "coupled",
            ProfileState::Queued => "queued",
            ProfileState::Coupling => "coupling",
            ProfileState::Decoupled => "decoupled",
            ProfileState::KcBlocked => "kc_blocked",
        }
    }
}

/// Aggregate of one state's spans for one BLT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateBucket {
    /// Total wall-clock nanoseconds spent in this state.
    pub total_ns: u64,
    /// Self time: [`StateBucket::total_ns`] minus the time attributed to
    /// syscall frames issued from this state (equal to `total_ns` for
    /// `kc_blocked`, which nests nothing).
    pub self_ns: u64,
    /// Number of spans (state entries).
    pub spans: u64,
}

/// One aggregated syscall stack: the issuing state plus the nested call
/// chain (outermost first), e.g. `coupled → read → pipe_block_read`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallPath {
    /// The lifecycle state the outermost call was issued from.
    pub state: ProfileState,
    /// The call chain, outermost first (`stack.last()` is this path's own
    /// call).
    pub stack: Vec<Sysno>,
    /// Completed spans folded into this path.
    pub count: u64,
    /// Summed enter→exit wall time of those spans.
    pub total_ns: u64,
    /// [`SyscallPath::total_ns`] minus time in nested child frames — the
    /// collapsed-stack leaf value.
    pub self_ns: u64,
}

/// Per-site aggregate of the wake edges that made one BLT runnable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeBucket {
    /// Wake edges folded into this site.
    pub count: u64,
    /// Summed wake-to-run delay of those edges in nanoseconds (saturating,
    /// mirroring the histogram it reconciles against).
    pub delay_ns: u64,
}

/// One waker-attributed blocked span: the lifecycle state (`queued` or
/// `coupling`) keyed by the wake chain that ended it — nearest waker
/// first, merged to [`WAKE_CHAIN_DEPTH`] links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakePath {
    /// The blocked state this chain ended (`Queued` or `Coupling`).
    pub state: ProfileState,
    /// The causal chain, nearest waker first: `chain[0]` is the BLT (and
    /// site) whose wake made this BLT runnable, `chain[1]` is who woke
    /// *that* BLT, and so on.
    pub chain: Vec<(BltId, WakeSite)>,
    /// Blocked spans folded into this chain.
    pub count: u64,
    /// Summed (window-clipped) wall time of those spans.
    pub total_ns: u64,
}

/// Wall-clock attribution for one BLT.
#[derive(Debug, Clone)]
pub struct BltProfile {
    /// The BLT (`BltId(0)` aggregates threads running without a bound ULP,
    /// e.g. the root thread; scheduler identities appear under their own
    /// ids with syscall frames but no lifecycle spans).
    pub id: BltId,
    /// Timestamp of the BLT's first trace event (its profile birth).
    pub start_ns: u64,
    /// `Terminate` timestamp, when the trace contains one.
    pub end_ns: Option<u64>,
    /// Per-state aggregation, indexed by `ProfileState as usize`.
    pub states: [StateBucket; PROFILE_STATES],
    /// How many `coupled` spans were entered via a `Coupled` event (i.e.
    /// couple-resume completions, as opposed to the coupled-at-birth span).
    pub coupled_resumes: u64,
    /// Folded syscall stacks, sorted by (state, call chain).
    pub syscalls: Vec<SyscallPath>,
    /// Per-site wake edges that made this BLT runnable, indexed by
    /// `WakeSite as usize`.
    pub wakes: [WakeBucket; WakeSite::COUNT],
    /// Waker-attributed blocked spans, sorted by (state, chain).
    pub wake_chains: Vec<WakePath>,
}

impl BltProfile {
    /// This state's aggregate.
    pub fn state(&self, s: ProfileState) -> StateBucket {
        self.states[s as usize]
    }

    /// Summed wall time of the four lifecycle states. On a trace where the
    /// BLT both spawned and terminated this equals
    /// `end_ns - start_ns` exactly — the states partition the lifetime.
    pub fn lifecycle_ns(&self) -> u64 {
        self.states[..LIFECYCLE_STATES]
            .iter()
            .map(|b| b.total_ns)
            .sum()
    }

    /// What this BLT's collapsed-stack lines sum to: every state's self
    /// time plus every syscall path's self time. Equals
    /// [`BltProfile::lifecycle_ns`] + `kc_blocked` time when all syscall
    /// frames closed inside their issuing state (the steady-state case).
    pub fn flame_ns(&self) -> u64 {
        let states: u64 = self.states.iter().map(|b| b.self_ns).sum();
        let sys: u64 = self.syscalls.iter().map(|p| p.self_ns).sum();
        let wakes: u64 = self.wake_chains.iter().map(|w| w.total_ns).sum();
        states + sys + wakes
    }

    /// This site's wake-edge aggregate.
    pub fn wake(&self, site: WakeSite) -> WakeBucket {
        self.wakes[site as usize]
    }

    /// Completed syscall spans whose outermost frame is `no`, summed over
    /// every issuing state and nesting position.
    pub fn syscall_count(&self, no: Sysno) -> u64 {
        self.syscalls
            .iter()
            .filter(|p| p.stack.last() == Some(&no))
            .map(|p| p.count)
            .sum()
    }
}

/// The folded profile: one [`BltProfile`] per BLT that appears in the
/// trace, plus the snapshot horizon every open span was closed at.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Timestamp of the last trace record (open spans close here).
    pub horizon_ns: u64,
    /// Per-BLT attribution, sorted by id.
    pub blts: Vec<BltProfile>,
}

impl ProfileSnapshot {
    /// Look up one BLT's profile.
    pub fn get(&self, id: BltId) -> Option<&BltProfile> {
        self.blts.iter().find(|b| b.id == id)
    }

    /// Completed spans of syscall `no` across every BLT.
    pub fn syscall_count(&self, no: Sysno) -> u64 {
        self.blts.iter().map(|b| b.syscall_count(no)).sum()
    }

    /// Wake edges of site `site` across every BLT.
    pub fn wake_count(&self, site: WakeSite) -> u64 {
        self.blts.iter().map(|b| b.wake(site).count).sum()
    }

    /// Summed wake-to-run delay of site `site` across every BLT
    /// (saturating, like the histogram it reconciles against).
    pub fn wake_delay_ns(&self, site: WakeSite) -> u64 {
        self.blts
            .iter()
            .fold(0u64, |acc, b| acc.saturating_add(b.wake(site).delay_ns))
    }

    /// All completed syscall spans across every BLT and call.
    pub fn total_syscall_spans(&self) -> u64 {
        self.blts
            .iter()
            .flat_map(|b| b.syscalls.iter())
            .map(|p| p.count)
            .sum()
    }

    /// Total attributed wall time (lifecycle states of every BLT; the
    /// parallel `kc_blocked` track is excluded to avoid double counting).
    pub fn total_ns(&self) -> u64 {
        self.blts.iter().map(|b| b.lifecycle_ns()).sum()
    }

    /// Check this profile against the runtime's independently-maintained
    /// histogram snapshots. Returns every discrepancy (empty = reconciled).
    /// Exact only for a loss-free trace window: same enable point, zero
    /// dropped records, and no syscall in flight at either edge.
    pub fn reconcile(&self, lat: &LatencySnapshot, sys: &SyscallSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        for no in Sysno::ALL {
            let folded = self.syscall_count(no);
            let hist = sys.get(no.name()).map_or(0, |d| d.count);
            if folded != hist {
                out.push(format!(
                    "syscall {}: {folded} folded spans vs {hist} histogram samples",
                    no.name()
                ));
            }
        }
        let decoupled: u64 = self
            .blts
            .iter()
            .map(|b| b.state(ProfileState::Decoupled).spans)
            .sum();
        if decoupled != lat.queue_delay.count {
            out.push(format!(
                "{decoupled} decoupled spans vs {} queue-delay samples",
                lat.queue_delay.count
            ));
        }
        let resumes: u64 = self.blts.iter().map(|b| b.coupled_resumes).sum();
        if resumes != lat.couple_resume.count {
            out.push(format!(
                "{resumes} coupled resumes vs {} couple-resume samples",
                lat.couple_resume.count
            ));
        }
        for site in WakeSite::ALL {
            let folded = self.wake_count(site);
            let hist = lat.wake.site(site);
            if folded != hist.count {
                out.push(format!(
                    "wake {}: {folded} folded edges vs {} histogram samples",
                    site.name(),
                    hist.count
                ));
            }
            let folded_ns = self.wake_delay_ns(site);
            if folded_ns != hist.sum {
                out.push(format!(
                    "wake {}: {folded_ns} folded delay ns vs {} histogram sum",
                    site.name(),
                    hist.sum
                ));
            }
        }
        out
    }

    /// Render as Brendan Gregg collapsed-stack ("folded") text: one
    /// `blt:N;state[;syscall:name…] self_ns` line per stack with nonzero
    /// self time, consumable by `flamegraph.pl`, inferno
    /// (`inferno-flamegraph`) and speedscope. Waker-attributed blocked
    /// spans render as
    /// `blt:N;queued;woken_by:blt:M;site:epoll_wait[;woken_by:…] ns` —
    /// the wake chain nested under the blocked state, so a flamegraph of
    /// queued time decomposes by *who ended the wait* (see
    /// `OBSERVABILITY.md`, Recipe 5).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for b in &self.blts {
            for s in ProfileState::ALL {
                let self_ns = b.state(s).self_ns;
                if self_ns > 0 {
                    let _ = writeln!(out, "blt:{};{} {self_ns}", b.id.0, s.name());
                }
            }
            for w in &b.wake_chains {
                if w.total_ns == 0 {
                    continue;
                }
                let _ = write!(out, "blt:{};{}", b.id.0, w.state.name());
                for (who, site) in &w.chain {
                    let _ = write!(out, ";woken_by:blt:{};site:{}", who.0, site.name());
                }
                let _ = writeln!(out, " {}", w.total_ns);
            }
            for p in &b.syscalls {
                if p.self_ns == 0 {
                    continue;
                }
                let _ = write!(out, "blt:{};{}", b.id.0, p.state.name());
                for no in &p.stack {
                    let _ = write!(out, ";syscall:{}", no.name());
                }
                let _ = writeln!(out, " {}", p.self_ns);
            }
        }
        out
    }

    /// Structured JSON rendering of the same numbers (the `/profile.json`
    /// endpoint). Dependency-free, like the rest of [`crate::export`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"horizon_ns\":{},\"total_ns\":{},\"blts\":[",
            self.horizon_ns,
            self.total_ns()
        );
        for (i, b) in self.blts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"start_ns\":{},\"end_ns\":{},\"lifecycle_ns\":{},\"coupled_resumes\":{},\"states\":{{",
                b.id.0,
                b.start_ns,
                b.end_ns.map_or("null".to_string(), |e| e.to_string()),
                b.lifecycle_ns(),
                b.coupled_resumes,
            );
            for (j, s) in ProfileState::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let bk = b.state(*s);
                let _ = write!(
                    out,
                    "\"{}\":{{\"total_ns\":{},\"self_ns\":{},\"spans\":{}}}",
                    s.name(),
                    bk.total_ns,
                    bk.self_ns,
                    bk.spans
                );
            }
            let _ = write!(out, "}},\"syscalls\":[");
            for (j, p) in b.syscalls.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"stack\":[\"{}\"", p.state.name());
                for no in &p.stack {
                    let _ = write!(out, ",\"{}\"", no.name());
                }
                let _ = write!(
                    out,
                    "],\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    p.count, p.total_ns, p.self_ns
                );
            }
            let _ = write!(out, "],\"wakes\":{{");
            let mut first = true;
            for site in WakeSite::ALL {
                let w = b.wake(site);
                if w.count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\":{{\"count\":{},\"delay_ns\":{}}}",
                    site.name(),
                    w.count,
                    w.delay_ns
                );
            }
            let _ = write!(out, "}},\"wake_chains\":[");
            for (j, w) in b.wake_chains.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"state\":\"{}\",\"chain\":[", w.state.name());
                for (k, (who, site)) in w.chain.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"waker\":{},\"site\":\"{}\"}}", who.0, site.name());
                }
                let _ = write!(out, "],\"count\":{},\"total_ns\":{}}}", w.count, w.total_ns);
            }
            let _ = write!(out, "]}}");
        }
        let _ = write!(out, "]}}");
        out
    }
}

/// Merge two collapsed-stack texts into `difffolded`-style output: one
/// `stack before_ns after_ns` line per stack appearing in either input,
/// sorted. This is the input format of `flamegraph.pl --negate` (red/blue
/// differential flames); stacks absent from one side get a 0 on that side.
/// The `ulp-difffolded` bench binary wraps this for files on disk.
pub fn diff_folded(before: &str, after: &str) -> Result<String, String> {
    let mut merged: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (stack, v) in parse_collapsed(before)? {
        merged.entry(stack).or_default().0 += v;
    }
    for (stack, v) in parse_collapsed(after)? {
        merged.entry(stack).or_default().1 += v;
    }
    let mut out = String::new();
    for (stack, (b, a)) in merged {
        let _ = writeln!(out, "{stack} {b} {a}");
    }
    Ok(out)
}

/// Parse collapsed-stack text back into `(stack, value)` rows — the
/// validation half of the format contract (tests, the CI smoke job and the
/// torture oracle all re-check `/profile` output through this).
pub fn parse_collapsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", i + 1))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: unparseable value: {line:?}", i + 1))?;
        if stack.is_empty() || stack.split(';').any(|f| f.is_empty()) {
            return Err(format!("line {}: empty stack frame: {line:?}", i + 1));
        }
        out.push((stack.to_string(), value));
    }
    Ok(out)
}

/// Scheduling-site wakes (run-queue pushes and couple resumes) end a
/// `queued`/`coupling` span and so attribute it to their chain; kernel-site
/// wakes update the causal chain and per-site aggregates only — the span
/// they end is the blocking syscall frame, already folded on its own.
fn wake_attributes_span(site: WakeSite) -> bool {
    matches!(
        site,
        WakeSite::Enqueue | WakeSite::Spawn | WakeSite::CoupleResume | WakeSite::CoupleHandoff
    )
}

/// Per-BLT accumulation state.
struct Builder {
    start_ns: u64,
    end_ns: Option<u64>,
    states: [StateBucket; PROFILE_STATES],
    /// Syscall wall time attributed inside each lifecycle state (top-level
    /// frames only; nested time is the parent frame's business).
    state_sys_ns: [u64; LIFECYCLE_STATES],
    /// Wake-chain wall time attributed inside each lifecycle state
    /// (subtracted from the state's self time exactly like syscall frames,
    /// so the collapsed lines still sum to [`BltProfile::flame_ns`]).
    state_wake_ns: [u64; LIFECYCLE_STATES],
    coupled_resumes: u64,
    /// (state, call chain as u16 discriminants) → (count, total, self).
    paths: BTreeMap<(usize, Vec<u16>), (u64, u64, u64)>,
    /// Per-site wake edges targeting this BLT: (count, delay sum).
    wakes: [(u64, u64); WakeSite::COUNT],
    /// This BLT's current causal chain: who last made it runnable, who
    /// made *that* BLT runnable, … (nearest first, ≤ [`WAKE_CHAIN_DEPTH`]).
    chain: Vec<(u64, u8)>,
    /// Chain snapshot from a scheduling-site wake, consumed when the next
    /// `queued`/`coupling` span closes.
    pending_wake: Option<Vec<(u64, u8)>>,
    /// (state, chain) → (count, total) for waker-attributed blocked spans.
    wake_paths: WakePathMap,
}

/// (state, chain as (waker, site) links) → (count, total ns) accumulator
/// for waker-attributed blocked spans.
type WakePathMap = BTreeMap<(usize, Vec<(u64, u8)>), (u64, u64)>;

impl Builder {
    fn new(start_ns: u64) -> Builder {
        Builder {
            start_ns,
            end_ns: None,
            states: [StateBucket::default(); PROFILE_STATES],
            state_sys_ns: [0; LIFECYCLE_STATES],
            state_wake_ns: [0; LIFECYCLE_STATES],
            coupled_resumes: 0,
            paths: BTreeMap::new(),
            wakes: [(0, 0); WakeSite::COUNT],
            chain: Vec::new(),
            pending_wake: None,
            wake_paths: BTreeMap::new(),
        }
    }

    /// A span in state `s` ended; `cut` is what the window keeps of it.
    fn span(&mut self, s: usize, cut: Cut) {
        self.states[s].total_ns += cut.ns;
        if cut.counted {
            self.states[s].spans += 1;
        }
        // A blocked span ends: if a scheduling-site wake claimed it, fold
        // its wall time under the wake chain instead of the bare state
        // frame.
        if s == QUEUED || s == COUPLING {
            if let Some(chain) = self.pending_wake.take() {
                if cut.counted {
                    let entry = self.wake_paths.entry((s, chain)).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += cut.ns;
                    self.state_wake_ns[s] += cut.ns;
                }
            }
        }
    }

    fn finish(mut self, id: BltId) -> BltProfile {
        for (i, bucket) in self.states.iter_mut().enumerate() {
            let attributed = if i < LIFECYCLE_STATES {
                self.state_sys_ns[i].saturating_add(self.state_wake_ns[i])
            } else {
                0
            };
            bucket.self_ns = bucket.total_ns.saturating_sub(attributed);
        }
        let syscalls = self
            .paths
            .into_iter()
            .map(|((state, stack), (count, total_ns, self_ns))| SyscallPath {
                state: ProfileState::ALL[state],
                stack: stack
                    .into_iter()
                    .map(|v| Sysno::from_u16(v).expect("folded from a valid Sysno"))
                    .collect(),
                count,
                total_ns,
                self_ns,
            })
            .collect();
        let mut wakes = [WakeBucket::default(); WakeSite::COUNT];
        for (i, &(count, delay_ns)) in self.wakes.iter().enumerate() {
            wakes[i] = WakeBucket { count, delay_ns };
        }
        let wake_chains = self
            .wake_paths
            .into_iter()
            .map(|((state, chain), (count, total_ns))| WakePath {
                state: ProfileState::ALL[state],
                chain: chain
                    .into_iter()
                    .map(|(who, site)| {
                        let site =
                            WakeSite::from_u16(site as u16).expect("folded from a valid WakeSite");
                        (BltId(who), site)
                    })
                    .collect(),
                count,
                total_ns,
            })
            .collect();
        BltProfile {
            id,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            states: self.states,
            coupled_resumes: self.coupled_resumes,
            syscalls,
            wakes,
            wake_chains,
        }
    }
}

/// Fold a record stream (drained via `Runtime::take_trace` or snapshotted
/// non-destructively via `Runtime::trace_snapshot`) into a
/// [`ProfileSnapshot`]. Records need not be pre-sorted; the replay sorts a
/// copy by timestamp.
pub fn fold_profile(records: &[TraceRecord]) -> ProfileSnapshot {
    fold_profile_window(records, None)
}

/// Like [`fold_profile`], but restricted to the trace window `[t0, t1)`
/// when one is given: every span contributes only the wall time
/// overlapping the window, and only spans (and point events, like couple
/// resumes) intersecting the window are counted. `None` is the full-window
/// fold, byte-identical to [`fold_profile`].
///
/// `start_ns` / `end_ns` / `horizon_ns` stay raw trace timestamps — the
/// window narrows *attribution*, not the recorded history — so windowed
/// snapshots from the same trace remain comparable on one time axis. The
/// reconciliation contract ([`ProfileSnapshot::reconcile`]) only holds for
/// the full window: the runtime's histograms have no time dimension to
/// narrow against.
pub fn fold_profile_window(records: &[TraceRecord], window: Option<(u64, u64)>) -> ProfileSnapshot {
    let mut builders: BTreeMap<u64, Builder> = BTreeMap::new();
    let horizon_ns = replay(records, window, |item| match item {
        Item::Born { blt, at_ns } => {
            builders.insert(blt.0, Builder::new(at_ns));
        }
        Item::Span {
            blt, state, cut, ..
        } => of(&mut builders, blt).span(state as usize, cut),
        Item::Resumed { blt, counted } => {
            of(&mut builders, blt).coupled_resumes += u64::from(counted)
        }
        Item::Terminated { blt, at_ns } => of(&mut builders, blt).end_ns = Some(at_ns),
        Item::Mark { .. } => {}
        Item::Wake {
            waker,
            wakee,
            site,
            delay_ns,
            counted,
            ..
        } => {
            // The wakee's new causal chain: this edge, then whatever chain
            // the waker itself carried, merged to depth 4 — an external
            // waker (`blt:0`, or one the trace has not met) contributes an
            // empty tail.
            let tail = builders.get(&waker.0).map_or(&[][..], |b| &b.chain);
            let mut chain = vec![(waker.0, site as u8)];
            chain.extend(tail.iter().take(WAKE_CHAIN_DEPTH - 1));
            let t = of(&mut builders, wakee);
            if counted {
                let (n, sum) = &mut t.wakes[site as usize];
                *n += 1;
                *sum = sum.saturating_add(delay_ns);
            }
            if wake_attributes_span(site) {
                t.pending_wake = Some(chain.clone());
            }
            t.chain = chain;
        }
        // In flight at the horizon, or beyond the recorder's nesting cap:
        // never timed by the histograms, so not folded either.
        Item::Syscall { errno: None, .. } | Item::Syscall { deep: true, .. } => {}
        Item::Syscall {
            blt,
            state,
            path,
            cut,
            self_ns,
            top_level,
            ..
        } => {
            let t = of(&mut builders, blt);
            if top_level {
                t.state_sys_ns[state as usize] += cut.ns;
            }
            if cut.counted {
                let path = path.iter().map(|&no| no as u16).collect();
                let entry = t.paths.entry((state as usize, path)).or_insert((0, 0, 0));
                entry.0 += 1;
                entry.1 += cut.ns;
                entry.2 += self_ns;
            }
        }
    });
    let blts = builders
        .into_iter()
        .map(|(id, builder)| builder.finish(BltId(id)))
        .collect();
    ProfileSnapshot { horizon_ns, blts }
}

/// The builder [`Item::Born`] created for `blt`.
fn of(builders: &mut BTreeMap<u64, Builder>, blt: BltId) -> &mut Builder {
    builders
        .get_mut(&blt.0)
        .expect("the replay announces a BLT before anything about it")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;

    fn rec(at_ns: u64, event: Event) -> TraceRecord {
        TraceRecord {
            at_ns,
            event,
            kc: 1,
        }
    }

    /// The Fig. 6 lifecycle: spawn → decouple → dispatch → couple request →
    /// coupled → terminate, with a KC block while the UC roams.
    fn fig6() -> Vec<TraceRecord> {
        vec![
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            rec(150, Event::KcBlocked(BltId(4))),
            rec(
                250,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(400, Event::CoupleRequest(BltId(4))),
            rec(600, Event::Coupled(BltId(4))),
            rec(800, Event::Terminate(BltId(4))),
        ]
    }

    /// A stay at home folds like any dispatch — its `queued` span is empty,
    /// opened and closed at the `decouple()`'s own clock read — and the
    /// `Requeue` of a
    /// `yield_now()` at home opens a second queued span that a scheduler's
    /// dispatch closes; the partition stays exact.
    #[test]
    fn home_dispatch_and_requeue_partition_the_lifetime() {
        let home = |at| {
            rec(
                at,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(4),
                },
            )
        };
        let p = fold_profile(&[
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            home(101),
            rec(150, Event::Requeue(BltId(4))),
            rec(
                400,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(500, Event::CoupleRequest(BltId(4))),
            rec(600, Event::Coupled(BltId(4))),
            rec(700, Event::Terminate(BltId(4))),
        ]);
        let b = p.get(BltId(4)).expect("blt 4 profiled");
        assert_eq!(b.state(ProfileState::Queued).total_ns, 1 + 250);
        assert_eq!(b.state(ProfileState::Queued).spans, 2);
        assert_eq!(b.state(ProfileState::Decoupled).total_ns, 49 + 100);
        assert_eq!(b.state(ProfileState::Decoupled).spans, 2);
        assert_eq!(b.lifecycle_ns(), 700);
    }

    #[test]
    fn lifecycle_states_partition_the_lifetime() {
        let p = fold_profile(&fig6());
        let b = p.get(BltId(4)).expect("blt 4 profiled");
        assert_eq!(b.start_ns, 0);
        assert_eq!(b.end_ns, Some(800));
        assert_eq!(b.state(ProfileState::Coupled).total_ns, 100 + 200);
        assert_eq!(b.state(ProfileState::Coupled).spans, 2);
        assert_eq!(b.state(ProfileState::Queued).total_ns, 150);
        assert_eq!(b.state(ProfileState::Decoupled).total_ns, 150);
        assert_eq!(b.state(ProfileState::Coupling).total_ns, 200);
        assert_eq!(b.lifecycle_ns(), 800, "states partition [spawn, terminate]");
        assert_eq!(b.coupled_resumes, 1);
        // The KC parked at 150 and woke to resume the UC at 600.
        assert_eq!(b.state(ProfileState::KcBlocked).total_ns, 450);
        assert_eq!(b.state(ProfileState::KcBlocked).spans, 1);
        // No syscalls ran: every state's self time is its total.
        assert_eq!(b.flame_ns(), 800 + 450);
    }

    #[test]
    fn nested_syscall_self_times_decompose() {
        let mut recs = vec![
            rec(0, Event::Spawn(BltId(7))),
            rec(
                100,
                Event::SyscallEnter {
                    uc: BltId(7),
                    sysno: Sysno::Read,
                    coupled: true,
                },
            ),
            rec(
                150,
                Event::SyscallEnter {
                    uc: BltId(7),
                    sysno: Sysno::PipeBlockRead,
                    coupled: true,
                },
            ),
            rec(
                500,
                Event::SyscallExit {
                    uc: BltId(7),
                    sysno: Sysno::PipeBlockRead,
                    coupled: true,
                    errno: 0,
                },
            ),
            rec(
                600,
                Event::SyscallExit {
                    uc: BltId(7),
                    sysno: Sysno::Read,
                    coupled: true,
                    errno: 0,
                },
            ),
        ];
        recs.push(rec(1000, Event::Terminate(BltId(7))));
        let p = fold_profile(&recs);
        let b = p.get(BltId(7)).unwrap();
        // read: 500 total, 100 self (400 inside pipe_block_read... minus the
        // 50ns before the nested enter and 100 after its exit).
        let read = b
            .syscalls
            .iter()
            .find(|p| p.stack == vec![Sysno::Read])
            .expect("read path");
        assert_eq!(read.state, ProfileState::Coupled);
        assert_eq!(read.count, 1);
        assert_eq!(read.total_ns, 500);
        assert_eq!(read.self_ns, 150);
        let nested = b
            .syscalls
            .iter()
            .find(|p| p.stack == vec![Sysno::Read, Sysno::PipeBlockRead])
            .expect("nested path");
        assert_eq!(nested.count, 1);
        assert_eq!(nested.total_ns, 350);
        assert_eq!(nested.self_ns, 350);
        // State self excludes only the top-level span's wall time.
        assert_eq!(b.state(ProfileState::Coupled).total_ns, 1000);
        assert_eq!(b.state(ProfileState::Coupled).self_ns, 500);
        // Flame decomposition is exact: 500 (coupled self) + 150 + 350.
        assert_eq!(b.flame_ns(), 1000);
        assert_eq!(b.syscall_count(Sysno::Read), 1);
        assert_eq!(b.syscall_count(Sysno::PipeBlockRead), 1);
    }

    #[test]
    fn sibling_birth_span_relabels_to_queued() {
        // A sibling records Spawn, then its first scheduling event is a
        // Dispatch — the time in between was spent queued, not coupled.
        let recs = vec![
            rec(0, Event::Spawn(BltId(9))),
            rec(
                300,
                Event::Dispatch {
                    uc: BltId(9),
                    scheduler: BltId(1),
                },
            ),
            rec(500, Event::Terminate(BltId(9))),
        ];
        let p = fold_profile(&recs);
        let b = p.get(BltId(9)).unwrap();
        assert_eq!(b.state(ProfileState::Queued).total_ns, 300);
        assert_eq!(b.state(ProfileState::Queued).spans, 1);
        assert_eq!(b.state(ProfileState::Coupled).spans, 0);
        assert_eq!(b.state(ProfileState::Decoupled).total_ns, 200);
        assert_eq!(b.lifecycle_ns(), 500);
    }

    #[test]
    fn decoupled_syscalls_fold_under_decoupled() {
        let recs = vec![
            rec(0, Event::Spawn(BltId(3))),
            rec(100, Event::Decouple(BltId(3))),
            rec(
                200,
                Event::Dispatch {
                    uc: BltId(3),
                    scheduler: BltId(1),
                },
            ),
            rec(
                300,
                Event::SyscallEnter {
                    uc: BltId(3),
                    sysno: Sysno::Getpid,
                    coupled: false,
                },
            ),
            rec(
                350,
                Event::SyscallExit {
                    uc: BltId(3),
                    sysno: Sysno::Getpid,
                    coupled: false,
                    errno: 0,
                },
            ),
            rec(400, Event::Terminate(BltId(3))),
        ];
        let p = fold_profile(&recs);
        let b = p.get(BltId(3)).unwrap();
        let path = &b.syscalls[0];
        assert_eq!(path.state, ProfileState::Decoupled, "§V-B hazard visible");
        assert_eq!(path.stack, vec![Sysno::Getpid]);
        assert_eq!(b.state(ProfileState::Decoupled).self_ns, 200 - 50);
    }

    #[test]
    fn unmatched_and_inflight_syscalls_fold_nothing() {
        let recs = vec![
            rec(0, Event::Spawn(BltId(2))),
            // Exit without enter: tracing came on mid-span.
            rec(
                50,
                Event::SyscallExit {
                    uc: BltId(2),
                    sysno: Sysno::Close,
                    coupled: true,
                    errno: 0,
                },
            ),
            // Enter without exit: still in flight at the horizon.
            rec(
                100,
                Event::SyscallEnter {
                    uc: BltId(2),
                    sysno: Sysno::FutexWait,
                    coupled: true,
                },
            ),
            rec(900, Event::KcBlocked(BltId(2))),
        ];
        let p = fold_profile(&recs);
        let b = p.get(BltId(2)).unwrap();
        assert!(b.syscalls.is_empty(), "no completed span, nothing folded");
        // The in-flight call's time stays in the state's self time.
        assert_eq!(b.state(ProfileState::Coupled).total_ns, 900);
        assert_eq!(b.state(ProfileState::Coupled).self_ns, 900);
    }

    #[test]
    fn collapsed_round_trips_and_sums_to_flame_ns() {
        let mut recs = fig6();
        recs.insert(
            1,
            rec(
                30,
                Event::SyscallEnter {
                    uc: BltId(4),
                    sysno: Sysno::Getpid,
                    coupled: true,
                },
            ),
        );
        recs.insert(
            2,
            rec(
                60,
                Event::SyscallExit {
                    uc: BltId(4),
                    sysno: Sysno::Getpid,
                    coupled: true,
                    errno: 0,
                },
            ),
        );
        let p = fold_profile(&recs);
        let text = p.collapsed();
        let rows = parse_collapsed(&text).expect("folded text parses");
        assert!(!rows.is_empty());
        for (stack, _) in &rows {
            assert!(stack.starts_with("blt:4;"), "unexpected stack {stack}");
        }
        let total: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, p.get(BltId(4)).unwrap().flame_ns());
        assert!(text.contains("blt:4;coupled;syscall:getpid 30\n"));
    }

    #[test]
    fn windowed_fold_clips_span_overlap() {
        // fig6 spans (blt 4): coupled [0,100], queued [100,250],
        // decoupled [250,400], coupling [400,600], coupled [600,800],
        // kc_blocked [150,600].
        let p = fold_profile_window(&fig6(), Some((200, 500)));
        let b = p.get(BltId(4)).unwrap();
        assert_eq!(b.state(ProfileState::Coupled).total_ns, 0);
        assert_eq!(b.state(ProfileState::Coupled).spans, 0);
        assert_eq!(b.state(ProfileState::Queued).total_ns, 50); // [200,250]
        assert_eq!(b.state(ProfileState::Queued).spans, 1);
        assert_eq!(b.state(ProfileState::Decoupled).total_ns, 150); // whole
        assert_eq!(b.state(ProfileState::Coupling).total_ns, 100); // [400,500]
        assert_eq!(b.state(ProfileState::KcBlocked).total_ns, 300); // [200,500]
        assert_eq!(b.coupled_resumes, 0, "resume at 600 is past the window");
        // Raw timeline fields are not clipped.
        assert_eq!(b.start_ns, 0);
        assert_eq!(b.end_ns, Some(800));
        assert_eq!(p.horizon_ns, 800);
        // Clipped lifecycle time = window width while the BLT is alive.
        assert_eq!(b.lifecycle_ns(), 300);
    }

    #[test]
    fn windowed_fold_none_matches_full_fold() {
        let full = fold_profile(&fig6());
        let windowed = fold_profile_window(&fig6(), None);
        assert_eq!(full.collapsed(), windowed.collapsed());
        let wide = fold_profile_window(&fig6(), Some((0, u64::MAX)));
        assert_eq!(full.collapsed(), wide.collapsed());
    }

    #[test]
    fn windowed_fold_clips_syscall_frames() {
        let recs = vec![
            rec(0, Event::Spawn(BltId(5))),
            rec(
                100,
                Event::SyscallEnter {
                    uc: BltId(5),
                    sysno: Sysno::Read,
                    coupled: true,
                },
            ),
            rec(
                500,
                Event::SyscallExit {
                    uc: BltId(5),
                    sysno: Sysno::Read,
                    coupled: true,
                    errno: 0,
                },
            ),
            rec(600, Event::Terminate(BltId(5))),
        ];
        // Window covers half the syscall span.
        let p = fold_profile_window(&recs, Some((300, 600)));
        let b = p.get(BltId(5)).unwrap();
        let read = &b.syscalls[0];
        assert_eq!(read.count, 1);
        assert_eq!(read.total_ns, 200); // [300,500]
        assert_eq!(b.state(ProfileState::Coupled).total_ns, 300); // [300,600]
        assert_eq!(b.state(ProfileState::Coupled).self_ns, 100);
        // Window disjoint from the syscall: no path row at all.
        let p = fold_profile_window(&recs, Some((500, 600)));
        let b = p.get(BltId(5)).unwrap();
        assert!(b.syscalls.is_empty());
        assert_eq!(b.state(ProfileState::Coupled).self_ns, 100);
    }

    #[test]
    fn diff_folded_merges_both_sides() {
        let before = "blt:1;coupled 100\nblt:1;queued 50\n";
        let after = "blt:1;coupled 300\nblt:2;decoupled 7\n";
        let out = diff_folded(before, after).unwrap();
        assert_eq!(
            out,
            "blt:1;coupled 100 300\nblt:1;queued 50 0\nblt:2;decoupled 0 7\n"
        );
        assert!(diff_folded("bad line", "").is_err());
        assert!(diff_folded("", "also bad").is_err());
        assert_eq!(diff_folded("", "").unwrap(), "");
    }

    #[test]
    fn parse_collapsed_rejects_malformed_lines() {
        assert!(parse_collapsed("blt:1;coupled 12\n").is_ok());
        assert!(parse_collapsed("no-value-line\n").is_err());
        assert!(parse_collapsed("stack notanumber\n").is_err());
        assert!(parse_collapsed("a;;b 5\n").is_err());
        assert!(parse_collapsed("").unwrap().is_empty());
    }

    #[test]
    fn json_rendering_is_valid_json() {
        let p = fold_profile(&fig6());
        let v: serde_json::Value = serde_json::from_str(&p.to_json()).expect("valid JSON");
        assert_eq!(v["horizon_ns"].as_u64(), Some(800));
        let blts = v["blts"].as_array().expect("blts array");
        assert_eq!(blts.len(), 1);
        assert_eq!(blts[0]["id"].as_u64(), Some(4));
        assert_eq!(blts[0]["lifecycle_ns"].as_u64(), Some(800));
        assert_eq!(
            blts[0]["states"]["kc_blocked"]["total_ns"].as_u64(),
            Some(450)
        );
        assert_eq!(blts[0]["end_ns"].as_u64(), Some(800));
    }

    #[test]
    fn empty_trace_folds_to_empty_profile() {
        let p = fold_profile(&[]);
        assert_eq!(p.horizon_ns, 0);
        assert!(p.blts.is_empty());
        assert_eq!(p.total_ns(), 0);
        assert!(p.collapsed().is_empty());
        let v: serde_json::Value = serde_json::from_str(&p.to_json()).unwrap();
        assert_eq!(v["blts"].as_array().map(|a| a.len()), Some(0));
    }

    #[test]
    fn blt0_syscall_streams_fold_by_shard() {
        // Two unbound threads (both report BltId(0)) interleave getpid
        // spans on different shards; the shard key keeps them paired.
        let recs = vec![
            TraceRecord {
                at_ns: 10,
                event: Event::SyscallEnter {
                    uc: BltId(0),
                    sysno: Sysno::Getpid,
                    coupled: true,
                },
                kc: 1,
            },
            TraceRecord {
                at_ns: 20,
                event: Event::SyscallEnter {
                    uc: BltId(0),
                    sysno: Sysno::Open,
                    coupled: true,
                },
                kc: 2,
            },
            TraceRecord {
                at_ns: 30,
                event: Event::SyscallExit {
                    uc: BltId(0),
                    sysno: Sysno::Getpid,
                    coupled: true,
                    errno: 0,
                },
                kc: 1,
            },
            TraceRecord {
                at_ns: 40,
                event: Event::SyscallExit {
                    uc: BltId(0),
                    sysno: Sysno::Open,
                    coupled: true,
                    errno: 0,
                },
                kc: 2,
            },
        ];
        let p = fold_profile(&recs);
        assert_eq!(p.syscall_count(Sysno::Getpid), 1);
        assert_eq!(p.syscall_count(Sysno::Open), 1);
        let b = p.get(BltId(0)).unwrap();
        // Neither stream saw the other as a nested frame.
        assert!(b.syscalls.iter().all(|p| p.stack.len() == 1));
    }

    /// The Fig. 6 lifecycle with wake edges ahead of the Dispatch and the
    /// Coupled, plus a mid-chain waker so the fold has a depth-2 chain.
    fn fig6_with_wakes() -> Vec<TraceRecord> {
        use ulp_kernel::WakeSite;
        vec![
            rec(0, Event::Spawn(BltId(3))),
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            // blt:3 was itself woken by an epoll fire from blt:5 (no
            // builder for 5 — an already-terminated or external chain
            // link is fine, only the id is kept).
            rec(
                200,
                Event::Wake {
                    waker: BltId(5),
                    wakee: BltId(3),
                    site: WakeSite::EpollWait,
                    delay_ns: 40,
                },
            ),
            // ... and then ended blt:4's queued wait with a run-queue push.
            rec(
                250,
                Event::Wake {
                    waker: BltId(3),
                    wakee: BltId(4),
                    site: WakeSite::Enqueue,
                    delay_ns: 150,
                },
            ),
            rec(
                250,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(400, Event::CoupleRequest(BltId(4))),
            rec(
                600,
                Event::Wake {
                    waker: BltId(4),
                    wakee: BltId(4),
                    site: WakeSite::CoupleResume,
                    delay_ns: 200,
                },
            ),
            rec(600, Event::Coupled(BltId(4))),
            // A kernel-site edge while coupled: aggregates only, no span
            // of its own (the blocking syscall frame carries the time).
            rec(
                700,
                Event::Wake {
                    waker: BltId(3),
                    wakee: BltId(4),
                    site: WakeSite::PipeRead,
                    delay_ns: 60,
                },
            ),
            rec(800, Event::Terminate(BltId(4))),
        ]
    }

    #[test]
    fn wake_chains_attribute_blocked_spans() {
        use ulp_kernel::WakeSite;
        let p = fold_profile(&fig6_with_wakes());
        let b = p.get(BltId(4)).expect("blt 4 profiled");

        // Per-site aggregates: every edge counted once, delays summed.
        assert_eq!(
            b.wake(WakeSite::Enqueue),
            WakeBucket {
                count: 1,
                delay_ns: 150
            }
        );
        assert_eq!(
            b.wake(WakeSite::CoupleResume),
            WakeBucket {
                count: 1,
                delay_ns: 200
            }
        );
        assert_eq!(
            b.wake(WakeSite::PipeRead),
            WakeBucket {
                count: 1,
                delay_ns: 60
            }
        );

        // The queued span folds under its wake chain — nearest waker
        // first, with the waker's own chain as the tail (depth 2 here).
        let folded = p.collapsed();
        assert!(
            folded.contains(
                "blt:4;queued;woken_by:blt:3;site:enqueue;woken_by:blt:5;site:epoll_wait 150"
            ),
            "missing chained queued line in:\n{folded}"
        );
        // The coupling span's chain nests the wakee's *own* prior chain
        // behind the couple grant — three links, still under the depth cap.
        assert!(
            folded.contains(
                "blt:4;coupling;woken_by:blt:4;site:couple_resume;\
                 woken_by:blt:3;site:enqueue;woken_by:blt:5;site:epoll_wait 200"
            ),
            "missing coupling chain line in:\n{folded}"
        );
        // All queued/coupling time went to the chains: no bare state line,
        // and the kernel-site edge spawned no chain of its own.
        assert!(!folded.contains("blt:4;queued "));
        assert!(!folded.contains("blt:4;coupling "));
        assert!(!folded.contains("site:pipe_read"));

        // The chains subtract from state self time, not add to it: the
        // collapsed lines still sum to flame_ns, and the lifecycle
        // partition is untouched.
        assert_eq!(b.lifecycle_ns(), 800);
        let rows = parse_collapsed(&folded).expect("folded parses");
        let sum: u64 = rows
            .iter()
            .filter(|(s, _)| s.starts_with("blt:4;"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sum, b.flame_ns(), "collapsed lines must sum to flame_ns");
    }

    #[test]
    fn wake_buckets_reconcile_against_histograms() {
        use ulp_kernel::WakeSite;
        let p = fold_profile(&fig6_with_wakes());
        let mut lat = crate::hist::LatencySnapshot::default();
        let mut sys = crate::hist::SyscallSnapshot::default();
        // Mirror what the trace folded (plus the lifecycle samples the
        // non-wake families expect from fig6's single decouple/resume).
        lat.queue_delay.count = 1;
        lat.couple_resume.count = 1;
        for (site, delay) in [
            (WakeSite::EpollWait, 40),
            (WakeSite::Enqueue, 150),
            (WakeSite::CoupleResume, 200),
            (WakeSite::PipeRead, 60),
        ] {
            lat.wake.sites[site as usize].count = 1;
            lat.wake.sites[site as usize].sum = delay;
        }
        assert_eq!(p.reconcile(&lat, &sys), Vec::<String>::new());

        // A missing histogram sample is a named discrepancy.
        lat.wake.sites[WakeSite::PipeRead as usize].count = 0;
        lat.wake.sites[WakeSite::PipeRead as usize].sum = 0;
        let problems = p.reconcile(&lat, &sys);
        assert!(
            problems.iter().any(|m| m.contains("pipe_read")),
            "expected a pipe_read discrepancy, got {problems:?}"
        );

        // And so is a drifted delay sum with matching counts.
        lat.wake.sites[WakeSite::PipeRead as usize].count = 1;
        lat.wake.sites[WakeSite::PipeRead as usize].sum = 61;
        let problems = p.reconcile(&lat, &sys);
        assert!(
            problems.iter().any(|m| m.contains("pipe_read")),
            "expected a delay-sum discrepancy, got {problems:?}"
        );
        let _ = &mut sys;
    }

    #[test]
    fn windowed_fold_gates_wake_edges() {
        use ulp_kernel::WakeSite;
        // Window covering only the first wake edge: the Enqueue edge at
        // 250 is out, so its bucket is empty and the queued span it would
        // have claimed folds (clipped) under the bare state frame.
        let p = fold_profile_window(&fig6_with_wakes(), Some((0, 220)));
        let b = p.get(BltId(4)).expect("blt 4 profiled");
        assert_eq!(b.wake(WakeSite::Enqueue), WakeBucket::default());
        let b3 = p.get(BltId(3)).expect("blt 3 profiled");
        assert_eq!(
            b3.wake(WakeSite::EpollWait),
            WakeBucket {
                count: 1,
                delay_ns: 40
            }
        );
    }
}
