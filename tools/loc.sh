#!/bin/sh
# Per-crate line counts, the "tracked number" of ROADMAP aim 2.
#
#   tools/loc.sh            one row per crate under crates/, then a total
#   tools/loc.sh <dir>...   one row per tracked .rs file under the given dirs
#   tools/loc.sh --check    the crate table, then the structure gates: exit 1
#                           if a mechanism this repo replaced is back
#
# tracked  = lines of every git-tracked file under the crate
# src      = lines of the tracked .rs files under its src/
# non-test = of those, everything above each file's first `#[cfg(test)]`
#            that is followed by a `mod` item, in the files that are not
#            themselves test-only modules (declared `#[cfg(test)] mod x;`)
set -eu
cd "$(git rev-parse --show-toplevel)"

# awk: `t` is 1 from the file's test code on — its first `#[cfg(test)]`
# followed by a `mod` item (one on a statement or a fn is shipped code) —
# and `from` marks the line it turns on at.
tests='FNR == 1 { t = 0; c = 0 }
    !t && c && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { t = 1; from = 1 }
    { c = /^[[:space:]]*#\[cfg\(test\)\]/ }'
# The files `#[cfg(test)] mod x;` declares: x.rs or x/mod.rs beside a
# lib.rs, main.rs or mod.rs, under the declaring file's own directory else.
test_mods=$(git ls-files -- '*.rs' | xargs -r awk '
    FNR == 1 { c = 0 }
    c && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/ {
        m = $0; sub(/^.*mod[[:space:]]+/, "", m); sub(/;.*/, "", m)
        d = FILENAME
        if (d ~ /(^|\/)(lib|main|mod)\.rs$/) sub(/[^\/]*$/, "", d); else sub(/\.rs$/, "/", d)
        print d m ".rs"; print d m "/mod.rs"
    }
    { c = /^[[:space:]]*#\[cfg\(test\)\]/ }')
shipped() { # the .rs files on stdin that are not test-only modules
    grep '\.rs$' | grep -vxF "$test_mods" || true
}

lines() { # total lines of the files named on stdin
    xargs -r cat | wc -l
}
non_test() { # non-test lines of the .rs files named on stdin
    shipped | xargs -r awk "$tests"' from { n--; from = 0 } !t { n++ } END { print n + 0 }'
}

if [ "${1:-}" = --check ]; then
    shift
    check=1
fi

if [ $# -gt 0 ]; then
    printf '%-44s %8s %9s\n' file lines non-test
    git ls-files -- "$@" | grep '\.rs$' | while read -r f; do
        printf '%-44s %8d %9d\n' "$f" "$(echo "$f" | lines)" "$(echo "$f" | non_test)"
    done
    exit 0
fi

printf '%-18s %8s %8s %9s\n' crate tracked src non-test
tt=0 ts=0 tn=0
for c in crates/*/; do
    c=${c%/}
    t=$(git ls-files -- "$c" | lines)
    s=$(git ls-files -- "$c/src" | grep '\.rs$' | lines)
    n=$(git ls-files -- "$c/src" | non_test)
    printf '%-18s %8d %8d %9d\n' "$c" "$t" "$s" "$n"
    tt=$((tt + t)) ts=$((ts + s)) tn=$((tn + n))
done
printf '%-18s %8d %8d %9d\n' total "$tt" "$ts" "$tn"

[ -n "${check:-}" ] || exit 0

# Structure gates: one open-file interface, one wait queue, one hook table;
# one spin-or-sleep rule for runtime and kernel, decided from the last wait
# its waker timed, with nothing registered and nothing to balance; one
# run-queue discipline (the bracketed letters keep this file out of its own
# patterns); a stay-home decision made from the UC's own evidence, not from
# who is asleep or what is queued; one replay of the Table-I state machine for
# the renderers and one cumulative-bucket renderer; one secondary-UC path; a
# stay at home that is a state of the UC, not a trip through the trampoline;
# one run-queue critical section per yield; a process's lifecycle named by
# its handle in core; kernel hook calls only while a tracer records;
# readiness edges fired by their object, named, on per-end socket sets; no
# condvar in core, whose waits park on a Parker or leave the run queue on a
# WaitList, and no stall() outside the lock suite; an idle policy read only
# where a KC's parker is built or staying home decided; every .rs path and
# every crates/<x> directory a document names exists.
# Each names what came back and where. Code-shaped gates read shipped code
# only: the lines above each file's test code, outside test-only modules.
bad=0
gate() { # gate <message> <matching lines>
    if [ -n "$2" ]; then
        printf 'loc.sh: %s\n%s\n' "$1" "$2" >&2
        bad=1
    fi
}
k=crates/kernel/src
gate "FileObject is back under crates/ (descriptions hold Arc<dyn FileLike>)" \
    "$(git grep -n 'FileObject' -- crates || true)"
gate "Condvar in $k outside wait.rs (sleep on a WaitQueue)" \
    "$(git grep -n 'Condvar' -- $k ":!$k/wait.rs" || true)"
# One spin site in the kernel, `Wait::sleep`, as `Parker::park` is the
# runtime's. Shipped code only, and none of the non-Linux fallbacks (not
# built on Linux; futex.rs's stands in for the futex call itself). cost.rs
# busy-waits to model an architectural cost: it waits for nothing.
gate "yield_now or a spin loop in $k outside wait.rs (the kernel's one spin site is Wait::sleep)" \
    "$(git ls-files -- "$k" | shipped | grep -v "^$k/\(wait\|cost\)\.rs$" | xargs -r awk "$tests"'
        FNR == 1 { fallback = "" }
        /#\[cfg\(not\(target_os = "linux"\)\)\]/ { match($0, /^[[:space:]]*/); fallback = substr($0, 1, RLENGTH) "}"; next }
        fallback != "" { if ($0 == fallback) fallback = ""; next }
        !t && /yield_now|spin_loop/ { print FILENAME ":" FNR ": " $0 }')"
# One spin-or-sleep rule: `Parker::park` and `Wait::sleep` both ask
# `ulp_kernel::Waiters::spin` (wait.rs), against one break-even.
gate "the Adaptive spin streak is back under crates/ (Parker::park spins on the last wait a push timed: wait.rs's Waiters)" \
    "$(git grep -n 'spin_streak\|ADAPTIVE_SPIN_STREAK' -- crates || true)"
gate "a wake registration is back under crates/ (a timed sample needs no balancing: Parker::park spins on wait.rs's Waiters)" \
    "$(git grep -nE 'fn expect\b|\bunexpect\b|spin_until|awaited_by|SCOPE_BREAK_EVEN|GAP_BREAK_EVEN|SPIN_DEADLINE_NS|park_expected' -- crates || true)"
breakevens=$(git grep -n 'const SPIN_BREAK_EVEN_NS' -- crates || true)
if [ "$(printf '%s\n' "$breakevens" | grep -c .)" -gt 1 ]; then
    gate "SPIN_BREAK_EVEN_NS is defined more than once under crates/ (one rule, one constant: the kernel's wait.rs)" "$breakevens"
fi
gate "a second run-queue discipline is back under crates/ (one FIFO; ROADMAP item 1 has the conditions for a per-scheduler queue)" \
    "$(git grep -n 'SchedPolic[y]\|WorkStealin[g]\|push_loca[l]\|register_loca[l]' -- crates || true)"
gate "the sleepers / queue-length gate is back in decouple()'s stay decision (DESIGN.md §4, Staying home: three gates)" \
    "$(git grep -n 'all_aslee[p]' -- crates || true; git grep -n 'runq\.len()' -- crates/core/src/couple.rs crates/core/src/park.rs || true)"
gate "the trampoline detour of staying home is back under crates/ (a home decouple()/couple() flips the UC's flag on its own thread: DESIGN.md §4, Staying home)" \
    "$(git grep -nE 'Deferred::Hom[e]\b|\bHome\(Arc<UcInne[r]>\)|take_hom[e]|\bhom[e]: *Cell<' -- crates || true)"
c=crates/core/src
# A runtime wait never sleeps on a condvar: a waiter that owns its OS thread
# parks on a `Parker`, where `ulp_kernel::Waiters` decides spin or sleep, and
# a decoupled ULT leaves the run queue onto the `WaitList` it waits on, so it
# never holds the scheduler under it.
gate "a Condvar in shipped $c code (a waiter that owns its KC parks on its Parker by ulp_kernel::Waiters, and a decoupled ULT leaves the run queue on a WaitList)" \
    "$(git ls-files -- "$c" | shipped | xargs -r awk "$tests"'
        !t && /Condvar/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }')"
# Nor does it poll: the lock suite's four policies are the only waiters
# that still `stall()` (the later steps of ROADMAP item 9), beside the
# definition in couple.rs.
gate "a stall() in shipped $c code outside the RawUlpLock impls in sync.rs (ULT-level waits leave the run queue on park.rs's WaitList)" \
    "$(git ls-files -- "$c" | shipped | xargs -r awk "$tests"'
        FNR == 1 { lock = 0 }
        /^impl RawUlpLock for / { lock = FILENAME == "'"$c"'/sync.rs" }
        /^}/ { lock = 0 }
        !t && !lock && /(^|[^A-Za-z0-9_])stall\(\)/ && !/^[[:space:]]*\/\// &&
            !(FILENAME == "'"$c"'/couple.rs" && /fn stall\(\)/) { print FILENAME ":" FNR ": " $0 }')"
# Match arms only (`Event::X… =>`), in shipped code: the recording sites
# construct these variants, and tests may match them.
gate "a lifecycle Event:: variant is matched in $c outside trace.rs and replay.rs (consume replay::Item instead)" \
    "$(git ls-files -- "$c" | shipped | grep -v "^$c/\(trace\|replay\)\.rs$" | xargs -r awk "$tests"'
        !t && /Event::(Decouple|Dispatch|Requeue|Wait|Yield|CoupleRequest|Coupled)[^A-Za-z].*=>/ { print FILENAME ":" FNR ": " $0 }')"
# One join for every UC: its termination publishes the status on its exit
# cell and its handle waits on that cell's wait list (spawn.rs), so no UC's
# OS thread is joined. The shutdown joins the schedulers and pool KCs
# (runtime.rs) and the metrics server its listener; nothing else in core
# holds a thread's JoinHandle.
gate "a thread .join() or JoinHandle in shipped $c code outside runtime.rs and metrics_server.rs (a UC's join is its exit cell's wait list)" \
    "$(git ls-files -- "$c" | shipped | grep -v "^$c/\(runtime\|metrics_server\)\.rs$" | xargs -r awk "$tests"'
        !t && /JoinHandle|\.join\(\)/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }')"
# An idle policy is a KC's (paper §VI-C): only the files that build a
# scheduler's, a trampoline's or a pool KC's parker, or decide staying home,
# read it from a config. A join, an event or a barrier parks its thread's one
# wait parker by `ulp_kernel::Waiters`' rule whatever the policy (park.rs).
gate "config.idle_policy read in shipped $c code outside runtime.rs, spawn.rs and couple.rs (an idle policy is a KC's: a join, an event or a barrier waits by the one Waiters rule)" \
    "$(git ls-files -- "$c" | shipped | grep -v "^$c/\(runtime\|spawn\|couple\)\.rs$" | xargs -r awk "$tests"'
        !t && /config(\(\))?\.idle_policy/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }')"
# One secondary-UC path: every `UcInner` is built by `UcInner::new`, and
# siblings and pooled ULPs share one entry and one termination. A literal is
# a `UcInner {` on a line that declares no struct or impl, in shipped code.
lits=$(git ls-files -- "$c" | shipped | xargs -r awk "$tests"'
    !t && /UcInner \{/ && !/(struct|impl)[[:space:]]/ { print FILENAME ":" FNR ": " $0 }')
if [ "$(printf '%s\n' "$lits" | grep -c .)" -gt 1 ]; then
    gate "more than one UcInner literal in $c (build every UC with UcInner::new)" "$lits"
fi
gate "a second secondary-UC path is back under crates/ (siblings and pooled ULPs share secondary_entry and Deferred::Terminate)" \
    "$(git grep -n 'sibling_entr[y]\|pooled_entr[y]\|TerminateSiblin[g]\|TerminatePoole[d]' -- crates || true)"
# One critical section per yield: the scheduler loop is the one place that
# pops the run queue on its own; a yield pops and links itself in one
# acquisition (`RunQueue::yield_to`), so a second `pop` there is a second
# acquisition back on the switch path.
pops=$(git ls-files -- "$c" | shipped | xargs -r awk "$tests"'
    !t && /runq\.pop\(/ { print FILENAME ":" FNR ": " $0 }')
if [ "$(printf '%s\n' "$pops" | grep -v "^$c/runtime\.rs:" | grep -c .)" -gt 0 ] ||
    [ "$(printf '%s\n' "$pops" | grep -c "^$c/runtime\.rs:")" -gt 1 ]; then
    gate "runq.pop() in $c outside the scheduler loop in runtime.rs (a yield is one critical section: RunQueue::yield_to)" "$pops"
fi
# Core holds every process it spawns as an `Arc<Process>`: spawning, binding,
# exiting and reaping by pid would take the process-table lock again.
gate "a pid-named process lifecycle call in $c (core names processes by handle: spawn_child, bind_process, exit, reap_child)" \
    "$(git ls-files -- "$c" | shipped | xargs -r awk "$tests"'
        !t && /(^|[^A-Za-z0-9_])(spawn_process|exit_process|try_waitpid|bind_current)\(/ { print FILENAME ":" FNR ": " $0 }')"
# `{{` only occurs in a format string; the tests quote rendered text (`{`).
if [ "$(git grep -c '_bucket{{' -- $c/export.rs | cut -d: -f2)" != 1 ]; then
    gate "export.rs writes bucket lines in more than one place (hist_series renders every histogram family)" \
        "$(git grep -n '_bucket{{' -- $c/export.rs || echo "$c/export.rs: no bucket renderer found")"
fi
# The observation hooks run only while a tracer records: every `HOOKS.get()`
# in the kernel sits in one of the three emitters after their load of the
# recorder count, or in `proc_provide` (a procfs body is content, asked for
# always), so a new hook site cannot skip the count.
gate "HOOKS.get() in $k outside the gated emitters and proc_provide (emit, wake_emit and WakeCell::stamp ask recording() first: trace.rs)" \
    "$(git ls-files -- "$k" | shipped | xargs -r awk "$tests"'
        FNR == 1 { f = ""; asked = 0 }
        match($0, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/) { f = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", f); asked = 0 }
        /recording\(\) == 0/ { asked = 1 }
        !t && /HOOKS\.get\(\)/ && !/^[[:space:]]*\/\// && !(FILENAME == "'"$k"'/trace.rs" &&
            (f == "proc_provide" || (asked && (f == "emit" || f == "wake_emit" || f == "stamp")))) {
            print FILENAME ":" FNR ": " $0
        }')"
# Readiness edges are the object's to fire, and they name the edge: only
# the stream, pipe and socket code calls `WatchSet::notify`, always with the
# edge it fires, so the interest filter can drop what nobody asked for. A
# socket end fires its peer's own set, never a set both ends share.
gate "a WatchSet .notify( in $k outside stream.rs, pipe.rs, socket.rs (only the object fires its edges: poll.rs)" \
    "$(git ls-files -- "$k" | shipped | grep -v "^$k/\(stream\|pipe\|socket\)\.rs$" | xargs -r awk "$tests"'
        !t && /\.notify\(/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }')"
gate "a .notify() in $k that names no edge (notify(edge): the watchers whose interest it meets wake: poll.rs)" \
    "$(git ls-files -- "$k" | shipped | xargs -r awk "$tests"'
        !t && /\.notify\(\)/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }')"
gate "a pair-wide watch set is back in $k/socket.rs (each end has its own: SockPair::watches)" \
    "$(git ls-files -- "$k/socket.rs" | shipped | xargs -r awk "$tests"'
        /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?struct[[:space:]]/ { pair = /struct[[:space:]]+SockPair[^A-Za-z0-9_]/ }
        /^}/ { pair = 0 }
        !t && pair && /:[[:space:]]*WatchSet[[:space:]]*,/ { print FILENAME ":" FNR ": " $0 }')"
# Every `…/x.rs` a document names is a tracked file: the path itself, a
# path it is the tail of, or — `crate/file.rs` shorthand —
# crates/<crate>/src/file.rs; a `*` matches within one component.
# Root-level plans and logs (ROADMAP.md, CHANGES.md, ...) are history and
# may name what is gone: of the root documents only those that describe the
# tree are read, and every document below the root.
docs() { # the tracked documents the path lints read
    git ls-files -- '*/*.md' README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md \
        SERVING.md PAPER.md PAPERS.md SNIPPETS.md
}
gate "a document names a .rs path that no tracked file resolves to (a path, its tail, or crate/file.rs for crates/<crate>/src/file.rs)" \
    "$({
        git ls-files | sed 's/^/F /'
        docs | xargs -r grep -noE '`[^` ]*/[^` /]*\.rs`' | sed 's/^/M /'
    } | awk '
        /^F / { p = substr($0, 3); all[++n] = p; known[p] = 1
                while (sub(/^[^\/]*\//, "", p)) known[p] = 1; next }
        {
            hit = substr($0, 3); tok = hit; sub(/^[^:]*:[0-9]*:`/, "", tok); sub(/`$/, "", tok)
            ok = known[tok]
            if (!ok && tok !~ /\*/) { c = tok; sub(/\/.*/, "", c); rest = substr(tok, length(c) + 2)
                ok = known["crates/" c "/src/" rest] }
            if (!ok && tok ~ /\*/) { re = tok; gsub(/\./, "\\.", re); gsub(/\*/, "[^/]*", re)
                for (i = 1; i <= n && !ok; i++) ok = all[i] ~ ("(^|/)" re "$") }
            if (!ok) print hit
        }')"
# Every `crates/<x>` a document names is a crate directory of the tree.
gate "a document names a crates/<x> directory that does not exist (the crates are the directories under crates/)" \
    "$({
        git ls-files -- crates | sed 's/^/F /'
        docs | xargs -r grep -noE '(^|[^A-Za-z0-9_.-])crates/[A-Za-z0-9_-]+' | sed 's/^/M /'
    } | awk '
        /^F / { p = substr($0, 3); sub(/^crates\//, "", p); sub(/\/.*/, "", p); known[p] = 1; next }
        { hit = substr($0, 3); tok = hit; sub(/^[^:]*:[0-9]*:.*crates\//, "", tok)
          if (!known[tok]) print hit }')"
# Every `repro -- <name>` a document gives is a subcommand: a name in
# repro.rs's ARTIFACTS table, or `all`.
artifacts=$(awk '/^const ARTIFACTS/ { a = 1; next } a && /^\];/ { a = 0 }
    a && match($0, /^[[:space:]]*\("[A-Za-z0-9_]+"/) { s = substr($0, RSTART, RLENGTH); sub(/^[^"]*"/, "", s); sub(/"$/, "", s); print s }' \
    crates/bench/src/repro.rs)
gate "a document runs a repro subcommand that does not exist (a name in crates/bench/src/repro.rs's ARTIFACTS, or all)" \
    "$(docs | xargs -r grep -noE '(^|[^A-Za-z0-9_-])repro -- [A-Za-z0-9_]+' | awk -v names="all $(echo $artifacts)" '
        BEGIN { n = split(names, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
        { w = $0; sub(/.*repro -- /, "", w); if (!ok[w]) print }')"
hooks=$(git grep -n '^\(pub \)\?static [A-Z_]*: *OnceLock<' -- $k || true)
if [ "$(printf '%s\n' "$hooks" | grep -c .)" -gt 1 ]; then
    gate "more than one OnceLock hook static in $k (extend KernelHooks)" "$hooks"
fi
exit $bad
