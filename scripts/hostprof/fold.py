#!/usr/bin/env python3
"""Fold the samples sampler.c wrote into per-function shares.

    python3 scripts/hostprof/fold.py DIR

Every process in DIR with at least MIN_SAMPLES samples is pooled.  Each
frame is mapped to its ELF file through the process's maps and symbolized
with `addr2line -f -i -C` (llvm-addr2line when installed: binutils' names
the innermost inlined frame after its outermost caller), inlined frames
included, so a sample is a stack of functions, innermost first.  Debug
info at line-tables level names inlined functions without their path, so
each function is shown as `name @ source file` (its last three path parts)
with generic arguments and symbol hashes dropped, and the patterns match
that text.  Printed, as shares of all samples:

  self       the TOP innermost functions of the samples;
  inclusive  the TOP functions on the stacks, each counted once per sample;
  patterns   samples with any frame matching a PATTERNS regex (the union
             over the whole stack).
"""

import collections
import functools
import os
import re
import shutil
import struct
import subprocess
import sys

MIN_SAMPLES = 100  # fewer is a short-lived helper process, not a trial
TOP = 25
PATTERNS = {
    "spans, marks and the flight ring": r"@ mcsim/src/span\.rs$"
    r"|\b(span_begin|span_end|mark) @ mcsim/src/endpoint\.rs$",
    "format_inner": r"\bformat_inner @",
    "core::fmt": r"^<?core::fmt::|@ core/src/fmt/",
    "malloc/free/realloc": r"^(malloc|free|realloc|calloc|cfree|_int_malloc|_int_free|_int_realloc"
    r"|malloc_consolidate|__libc_malloc|__libc_free|__libc_realloc)( @|$)",
    "inspector": r"@ meta-chaos/src/(build|runs|linear|schedule|region)\.rs$"
    r"|\b(deref_owned_runs|descriptor) @ chaos/src/adapter\.rs$"
    r"|\bderef_owned_runs @ (hpf|multiblock|tulip)/src/adapter\.rs$",
    "wire codec": r"@ mcsim/src/wire\.rs$",
}
ADDR2LINE = shutil.which("llvm-addr2line") or "addr2line"


# Escapes of Rust's legacy symbol mangling, for the names the demangler
# leaves alone (those with an `.llvm.` suffix).
LEGACY = {"$LT$": "<", "$GT$": ">", "$u20$": " ", "$u7b$": "{", "$u7d$": "}", "$RF$": "&",
          "$BP$": "*", "$C$": ",", "$LP$": "(", "$RP$": ")", "$u5b$": "[", "$u5d$": "]",
          "$u27$": "'", "$SP$": "@", "..": "::"}


def frame_label(fn, loc):
    """`name @ crate/src/file.rs`, without symbol hashes or trailing generics."""
    fn = re.sub(r"( \(\.llvm\.\d+\))?$", "", fn)
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    if "$" in fn:
        fn = fn.replace("::_$", "::$")
        fn = re.sub(r"\$[A-Za-z0-9]+\$|\.\.", lambda m: LEGACY.get(m.group(0), m.group(0)), fn)
        fn = fn[1:] if fn.startswith("_<") else fn
    if fn.endswith(">"):
        depth, i = 0, len(fn) - 1
        while i > 0:
            depth += {"<": -1, ">": 1}.get(fn[i], 0)
            if depth == 0:
                break
            i -= 1
        if i > 0 and (fn[i - 1].isalnum() or fn[i - 1] in "_}"):
            fn = fn[:i]
    path = loc.split(":")[0]
    if path in ("", "??"):
        return fn
    for root in ("/library/", "/crates/"):
        path = path.split(root)[-1]
    return f"{fn} @ {'/'.join(path.split('/')[-4:])}"


def load_segments(path):
    """PT_LOAD (offset, filesz, vaddr) of a 64-bit little-endian ELF."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def read_maps(path):
    maps = []
    for line in open(path):
        parts = line.split()
        if len(parts) >= 6 and "x" in parts[1] and parts[5].startswith("/"):
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return maps


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sample_dir = sys.argv[1]

    # Raw stacks as (module, vaddr) frames; return addresses step back one
    # byte so they symbolize to the call, not the next line.
    stacks, per_pid = [], {}
    segments = {}
    for name in sorted(os.listdir(sample_dir)):
        if not name.endswith(".frames"):
            continue
        pid = name[: -len(".frames")]
        lines = open(os.path.join(sample_dir, name)).read().split("\n")
        samples = [l.split() for l in lines if l]
        if len(samples) < MIN_SAMPLES:
            continue
        per_pid[pid] = len(samples)
        maps = read_maps(os.path.join(sample_dir, pid + ".maps"))

        @functools.cache
        def frame(addr):
            hit = next((m for m in maps if m[0] <= addr < m[1]), None)
            if hit is None:
                return ("?", addr)
            lo, _, off, path = hit
            if path not in segments:
                segments[path] = load_segments(path) if os.path.exists(path) else []
            foff = addr - lo + off
            seg = next((s for s in segments[path] if s[0] <= foff < s[0] + s[1]), None)
            return (path, foff - seg[0] + seg[2] if seg else foff)

        for sample in samples:
            stacks.append([frame(int(w, 16) - (1 if k else 0)) for k, w in enumerate(sample)])
    if not stacks:
        raise SystemExit(f"no process in {sample_dir} has {MIN_SAMPLES} samples")

    # One addr2line per module; -a prints each address before its
    # (function, file:line) pairs, innermost inline first.
    names = {}
    by_module = collections.defaultdict(set)
    for stack in stacks:
        for module, addr in stack:
            by_module[module].add(addr)
    for module, addrs in by_module.items():
        addrs = sorted(addrs)
        if module == "?":
            names.update({("?", a): [f"?{a:#x}"] for a in addrs})
            continue
        out = subprocess.run(
            [ADDR2LINE, "-a", "-f", "-i", "-C", "-e", module],
            input="\n".join(f"{a:#x}" for a in addrs),
            capture_output=True, text=True, check=True,
        ).stdout.split("\n")
        cur, i = None, 0
        while i < len(out):
            if re.fullmatch(r"0x[0-9a-f]+", out[i]):
                cur = (module, int(out[i], 16))
                names[cur] = []
                i += 1
            elif cur is not None and out[i]:
                fn = out[i] if out[i] != "??" else f"{os.path.basename(module)}+{cur[1]:#x}"
                names[cur].append(frame_label(fn, out[i + 1] if i + 1 < len(out) else ""))
                i += 2
            else:
                i += 1

    total = len(stacks)
    self_count, incl_count = collections.Counter(), collections.Counter()
    compiled = {label: re.compile(rx) for label, rx in PATTERNS.items()}

    @functools.cache
    def labels(fn):
        return frozenset(label for label, rx in compiled.items() if rx.search(fn))

    pat_count = collections.Counter()
    for stack in stacks:
        fns = [fn for frame in stack for fn in names.get(frame, ["?"])]
        self_count[fns[0] if fns else "?"] += 1
        incl_count.update(set(fns))
        pat_count.update(frozenset().union(*map(labels, fns)))

    print(f"{total} samples from {len(per_pid)} process(es): "
          + ", ".join(f"pid {p} {n}" for p, n in per_pid.items()))
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n{title}:")
        for fn, n in counts.most_common(TOP):
            print(f"  {100 * n / total:6.2f} %  {fn}")
    print("\npatterns (union over the stack):")
    for label in PATTERNS:
        print(f"  {100 * pat_count[label] / total:6.2f} %  {label}")


if __name__ == "__main__":
    main()
