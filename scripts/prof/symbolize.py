#!/usr/bin/env python3
"""Turns a scripts/prof/sigprof.c dump into three tables: self time by
function, inclusive time (every function of this workspace on the
walked stack, inlined frames included, once per sample; a coroutine's
stack ends at its root frame, so application code is not under
`Engine::run`) and self time by source line. Self time by function goes
to the innermost function at the sampled rip that is this workspace's,
inlined or not: a `Cell::take` or `Option::expect` inlined into
`CoroCtx::call` counts as `CoroCtx::call`, and library code that was
really called keeps its name. Self time by line goes to the innermost
inlined frame's file:line, library frames kept (with the function the
first table charges, where that differs), so one function's row splits
into, say, its search, its copy and its `memmove`.

usage: symbolize.py DUMP EXECUTABLE [ROWS]
"""
import bisect
import collections
import functools
import os
import re
import subprocess
import sys


def load(dump, exe):
    """Samples as lists of ELF virtual addresses in `exe`; an address
    elsewhere becomes `[file:exported symbol]`, or `[file:+lo..hi]` when
    no exported symbol's extent holds it."""
    spans, others, samples, lost = [], [], [], 0
    for line in open(dump):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            if len(f) >= 6 and f[5] == exe:
                spans.append((lo, hi))
            else:
                others.append((lo, hi, f[5] if len(f) >= 6 else "anonymous"))
        elif kind == "S":
            samples.append([int(x, 16) for x in rest.split()])
        elif kind == "L":
            lost = int(rest)
    if not spans:
        sys.exit(f"symbolize.py: {exe} is not mapped in {dump}")
    # A PIE's first segment has file offset 0 and virtual address 0.
    base = min(lo for lo, _ in spans)

    def vaddr(addr, is_return):
        if not any(lo <= addr < hi for lo, hi in spans):
            path = next((n for lo, hi, n in others if lo <= addr < hi), "unmapped")
            start = min((lo for lo, _, n in others if n == path), default=0)
            return f"[{path.rsplit('/', 1)[-1]}:{exported(path, addr - start)}]"
        # A return address names the instruction after the call.
        return addr - base - (1 if is_return else 0)

    return [[vaddr(a, i > 0) for i, a in enumerate(s)] for s in samples], lost


@functools.lru_cache(maxsize=None)
def dynsyms(path):
    """A shared object's exported (address, end, name) triples, ascending;
    a symbol nm gives no size for is left out."""
    if not path.startswith("/"):
        return []
    out = subprocess.run(["nm", "-D", "-S", "--defined-only", path],
                         capture_output=True, text=True)
    rows = (line.split() for line in out.stdout.splitlines())
    return sorted((int(f[0], 16), int(f[0], 16) + int(f[1], 16), f[3].split("@")[0])
                  for f in rows if len(f) == 4)


def exported(path, offset):
    """The exported symbol whose extent holds `offset`, else the offsets of
    the unexported stretch between two exported symbols that holds it:
    glibc's unexported routines (its `memmove` variants) must not take the
    name of the exported symbol before them, and one row per stretch keeps
    a routine's samples together."""
    syms = dynsyms(path)
    i = bisect.bisect_right(syms, (offset, float("inf"))) - 1
    if i >= 0 and offset < syms[i][1]:
        return syms[i][2]
    lo = syms[i][1] if i >= 0 else 0
    hi = f"{syms[i + 1][0]:#x}" if i + 1 < len(syms) else ""
    return f"+{lo:#x}..{hi}"


def short(name):
    return re.sub(r"\b(?:spasm_[a-z]+|core|std|alloc)::", "", name)


# This checkout, which `where` leaves off its own source paths.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) + "/"


def where(location):
    """A file:line as addr2line prints it, without its discriminator and
    with the toolchain's /rustc/<hash>/library/ or this checkout's
    directory left off."""
    location = location.split(" (discriminator")[0]
    location = re.sub(r"^/rustc/[0-9a-f]+/library/", "", location)
    return location.removeprefix(ROOT)


def symbolize(exe, addrs):
    """vaddr -> (function, is it the toolchain's library, file:line)
    triples, innermost inlined frame first. The library's sources sit
    under /rustc/<hash>/."""
    addrs = sorted(addrs)
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = chains.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].startswith("/rustc/"), out[i + 1]))
            i += 2  # function line, then its file:line
    return chains


def table(title, counts, total, rows):
    print(f"\n{title} ({total} samples)")
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:rows]:
        print(f"{100.0 * n / total:6.2f} %  {n:6d}  {name}")


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    # The dump names the executable by its real path.
    dump, exe = sys.argv[1], os.path.realpath(sys.argv[2])
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    samples, lost = load(dump, exe)
    if not samples:
        sys.exit("symbolize.py: the dump holds no samples")
    chains = symbolize(exe, {a for s in samples for a in s if isinstance(a, int)})
    self_by, inclusive, by_line = (collections.Counter() for _ in range(3))
    for s in samples:
        frames = [chains[a] if isinstance(a, int) else [(a, False, a)] for a in s]
        leaf = frames[0]
        owner = short(next((n for n, library, _ in leaf if not library), leaf[-1][0]))
        self_by[owner] += 1
        inclusive.update({short(n) for chain in frames for n, library, _ in chain if not library})
        name, _, location = leaf[0]
        line = f"{where(location)}  {short(name)}" if location != name else name
        by_line[line if short(name) == owner else f"{line}  in {owner}"] += 1
    if lost:
        print(f"{lost} samples lost: the buffer was full")
    table("self time by function", self_by, len(samples), rows)
    table("inclusive time by function", inclusive, len(samples), rows)
    table("self time by innermost source line", by_line, len(samples), rows)


if __name__ == "__main__":
    main()
