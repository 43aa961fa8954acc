#!/usr/bin/env python3
"""Self and inclusive tables from a sigprof_sampler.c profile.

Usage:

    python3 scripts/sigprof_symbolize.py sigprof.PID.samples sigprof.PID.maps \
        [--top N] [--within NAME]

Each address is mapped through the copied /proc/self/maps to its file and
ELF virtual address, and symbolized with `addr2line -f -C -i`, which
expands inlined calls; return addresses are looked up one byte back,
inside their call instruction. Three tables follow:

- self: the function whose machine code holds the sample's pc, with what
  the compiler inlined into it;
- self, inlined apart: the innermost inlined function at the pc, so that
  for instance a container's operator[] shows on its own;
- inclusive: every function, inlined or not, anywhere on the stack,
  counted once per sample.

Functions from shared libraries carry the library's name; one built
without debug information shows under its nearest exported symbol. With
--within NAME only samples with a function whose name contains NAME on
their stack count, and shares are of those (roundbench's rounds run under
`OneCall`, its speed yardstick does not).
"""

import argparse
import array
import bisect
import collections
import functools
import os
import struct
import subprocess
import sys

PT_LOAD = 1
NAME_WIDTH = 110


def read_samples(path):
    words = array.array("Q")
    with open(path, "rb") as f:
        words.frombytes(f.read())
    samples, i = [], 0
    while i < len(words):
        depth = words[i]
        samples.append(list(words[i + 1:i + 1 + depth]))
        i += 1 + depth
    return samples


def read_maps(path):
    """Executable mappings, sorted: (start, end, file offset, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 5 or "x" not in fields[1]:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5].strip() if len(fields) > 5 else "[anon]"
            maps.append((start, end, int(fields[2], 16), name))
    maps.sort()
    return maps


@functools.lru_cache(maxsize=None)
def load_segments(path):
    """An ELF file's PT_LOAD segments: (file offset, vaddr, file size)."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            phoff = struct.unpack_from("<Q", head, 0x20)[0]
            phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == PT_LOAD:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def addr2line(path, vaddrs):
    """{vaddr: [function names, innermost inlined first]}."""
    if not os.path.isfile(path):
        return {}
    run = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="\n".join(f"{a:#x}" for a in vaddrs), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    names, current, lines = {}, None, run.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            names[current] = []
            i += 1
            continue
        if current is not None and lines[i] != "??":
            names[current].append(lines[i])
        i += 2  # A function name, then its file:line.
    return names


def symbolize(samples, maps):
    """{address: [names, innermost first]} for every sampled address."""
    starts = [m[0] for m in maps]
    wanted = collections.defaultdict(dict)  # path -> {vaddr: address}
    fallback = {}
    libraries = {}  # path -> the suffix its names carry
    for stack in samples:
        for depth, address in enumerate(stack):
            lookup = address if depth == 0 else address - 1
            if lookup in fallback:
                continue
            k = bisect.bisect_right(starts, lookup) - 1
            if k < 0 or lookup >= maps[k][1]:
                fallback[lookup] = "[unknown]"
                continue
            start, _, offset, path = maps[k]
            fallback[lookup] = f"?? [{os.path.basename(path)}]"
            if ".so" in os.path.basename(path):
                libraries[path] = f" [{os.path.basename(path)}]"
            file_offset = lookup - start + offset
            for seg_offset, seg_vaddr, seg_size in load_segments(path):
                if seg_offset <= file_offset < seg_offset + seg_size:
                    wanted[path][file_offset - seg_offset + seg_vaddr] = lookup
                    break
    names = {a: [n] for a, n in fallback.items()}
    for path, by_vaddr in wanted.items():
        for vaddr, chain in addr2line(path, sorted(by_vaddr)).items():
            if chain and vaddr in by_vaddr:
                suffix = libraries.get(path, "")
                names[by_vaddr[vaddr]] = [n + suffix for n in chain]
    return names


def tables(samples, names, within):
    """(samples counted, self, self inlined apart, inclusive)."""
    self_counts, innermost = collections.Counter(), collections.Counter()
    inclusive, counted = collections.Counter(), 0
    for stack in samples:
        if not stack:
            continue
        seen = set()
        for depth, address in enumerate(stack):
            seen.update(names[address if depth == 0 else address - 1])
        if within and not any(within in name for name in seen):
            continue
        counted += 1
        self_counts[names[stack[0]][-1]] += 1
        innermost[names[stack[0]][0]] += 1
        inclusive.update(seen)
    return counted, self_counts, innermost, inclusive


def print_table(title, counts, total, what, top):
    print(f"\n{title} (share of {total} samples{what})")
    for name, n in counts.most_common(top):
        if len(name) > NAME_WIDTH:
            name = name[:NAME_WIDTH - 3] + "..."
        print(f"{100 * n / total:6.2f} % {n:7d}  {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("samples")
    parser.add_argument("maps")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--within", default="")
    args = parser.parse_args()
    samples = read_samples(args.samples)
    if not samples:
        print("sigprof_symbolize: no samples", file=sys.stderr)
        return 1
    names = symbolize(samples, read_maps(args.maps))
    counted, self_counts, innermost, inclusive = tables(
        samples, names, args.within)
    if counted == 0:
        print(f"sigprof_symbolize: no sample within {args.within}",
              file=sys.stderr)
        return 1
    what = (f" within {args.within}, {100 * counted / len(samples):.1f} % "
            f"of all {len(samples)}") if args.within else ""
    print_table("self", self_counts, counted, what, args.top)
    print_table("self, inlined apart", innermost, counted, what, args.top)
    print_table("inclusive", inclusive, counted, what, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
