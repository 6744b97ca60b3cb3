#!/usr/bin/env python3
"""Symbolize a cpuprof.<pid>.out written by tools/cpuprof/sampler.c.

    python3 tools/cpuprof/report.py cpuprof.<pid>.out <binary> [--top N]

Prints three tables over all samples: *flat* (the function the sample landed
in), *inclusive* (every function on the sampled stack, once per sample) and
*stacks* (the innermost four frames). Addresses are named from `nm` (its
dynamic symbols for a stripped library) of the file mapped there, through
`readelf`'s load segments; <binary> stands in for the executable that ran.
sampler.c's header has the build and run commands.
"""
import bisect
import collections
import re
import subprocess
import sys


def load(path):
    stacks, maps, section = [], [], "samples"
    with open(path) as f:
        header = f.readline().split()
        for line in f:
            if line == "maps\n":
                section = "maps"
            elif section == "samples":
                stacks.append([int(a, 16) for a in line.split()])
            else:
                maps.append(line.split())
    return header, stacks, maps


def elf_symbols(path):
    """Sorted (vaddr, size, name) of an ELF file's functions, and its LOAD
    segments."""
    syms = []
    for dynamic in ([], ["-D"]):  # a stripped library keeps its dynamic symbols
        nm = subprocess.run(["nm", "-CS", "--defined-only", *dynamic, path], capture_output=True, text=True)
        for line in nm.stdout.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3])
                syms.append((int(parts[0], 16), int(parts[1], 16), name))
        if syms:
            break
    syms.sort()
    segs = []
    ph = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True)
    for line in ph.stdout.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[5], 16)))  # offset, vaddr, filesz
    return syms, [a for a, _, _ in syms], segs


def symbolizer(binary, maps):
    """addr -> function name: through nm for every mapped file (the binary
    named on the command line need not be at the path it ran from)."""
    exe = subprocess.run(["readlink", "-f", binary], capture_output=True, text=True).stdout.strip()
    regions = []
    for m in maps:
        if len(m) >= 6:
            lo, hi = (int(x, 16) for x in m[0].split("-"))
            regions.append((lo, hi, int(m[2], 16), m[5]))
    regions.sort()
    starts = [r[0] for r in regions]
    ran = {r[3] for r in regions if r[3].endswith("/" + exe.rsplit("/", 1)[-1])}
    files = {}

    def name(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= regions[i][1]:
            return "[unknown]"
        lo, _, off, path = regions[i]
        lib = "[" + path.rsplit("/", 1)[-1] + "]"
        if not path.startswith("/"):
            return lib
        if path not in files:
            files[path] = elf_symbols(exe if path in ran else path)
        syms, addrs, segs = files[path]
        file_off = addr - lo + off
        for seg_off, vaddr, size in segs:
            if seg_off <= file_off < seg_off + size:
                at = file_off - seg_off + vaddr
                j = bisect.bisect_right(addrs, at) - 1
                # Past the symbol's end is a function nm does not list.
                if j >= 0 and at < syms[j][0] + max(syms[j][1], 1):
                    return syms[j][2] if path in ran else f"{syms[j][2]} {lib}"
        return lib

    return name


def table(title, counts, total, top):
    print(f"\n{title}")
    for key, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:6d}  {key}")


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    top = int(sys.argv[sys.argv.index("--top") + 1]) if "--top" in sys.argv else 25
    header, stacks, maps = load(sys.argv[1])
    name = symbolizer(sys.argv[2], maps)
    cache = {}
    flat, incl, tops = collections.Counter(), collections.Counter(), collections.Counter()
    for stack in stacks:
        # A return address points after its call: step back into the call.
        frames = [cache.setdefault(a - (i > 0), name(a - (i > 0))) for i, a in enumerate(stack)]
        flat[frames[0]] += 1
        incl.update(set(frames))
        tops[" <- ".join(frames[:4])] += 1
    total = max(len(stacks), 1)
    print(f"{len(stacks)} samples ({' '.join(header)})")
    table("flat (self)", flat, total, top)
    table("inclusive (on the stack)", incl, total, top)
    table("stacks (innermost four frames)", tops, total, top // 2)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
