#!/usr/bin/env python3
"""Fail if the AVX2 kernel object's shared code carries a vector ISA.

    python3 scripts/check_isa_leak.py --nm nm --objdump objdump OBJECT...

kernels_avx2.cpp is the one translation unit that emits AVX2 code. Every
function it defines outside its own namespace (trkx::kernels::avx2_impl)
is shared code: inline functions of common headers (trkx::Error,
TRKX_CHECK's throw helper, std::string members) and template
instantiations are weak symbols, and the linker may keep this object's
copy for the whole binary. Those copies must stay baseline x86-64 — a VEX
instruction there is a SIGILL, on a host without AVX2, in code the
dispatch table never guards.

OBJECT may be a ';'-separated list (CMake's $<TARGET_OBJECTS:...>); only
objects named kernels_avx2.* are checked. Disassembles every weak or
global function symbol they define outside avx2_impl and reports each
VEX- or EVEX-encoded instruction. Exit 0 clean, 1 leak found, 2 usage or
tool error.
"""

import argparse
import os
import re
import subprocess
import sys

KEEP_NAMESPACE = "trkx::kernels::avx2_impl::"
# nm types of externally visible code: global text, weak (vague linkage).
SHARED_TYPES = {"T", "W"}
# Legacy prefixes and REX may precede an opcode; a VEX (C4/C5) or EVEX
# (62) lead byte after them is an AVX-class instruction in 64-bit mode.
LEGACY_PREFIXES = {0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0,
                   0xF2, 0xF3}
VEX_LEADS = {0xC4, 0xC5, 0x62}
LABEL = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\s+((?:[0-9a-f]{2} )+)\s*(.*)$")


def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print("check_isa_leak: %s failed: %s" % (cmd[0], e), file=sys.stderr)
        sys.exit(2)


def shared_symbols(nm, obj):
    """Mangled name -> demangled name of shared functions outside avx2_impl."""
    mangled = run([nm, "--defined-only", obj]).splitlines()
    demangled = run([nm, "--defined-only", "-C", obj]).splitlines()
    out = {}
    for raw, pretty in zip(mangled, demangled):
        fields = raw.split(None, 2)
        if len(fields) != 3 or fields[1] not in SHARED_TYPES:
            continue
        name = pretty.split(None, 2)[2]
        if KEEP_NAMESPACE not in name:
            out[fields[2]] = name
    return out


def is_vex(hex_bytes):
    for b in (int(h, 16) for h in hex_bytes.split()):
        if b in LEGACY_PREFIXES or 0x40 <= b <= 0x4F:
            continue
        return b in VEX_LEADS
    return False


def leaks(objdump, obj, symbols):
    """(symbol, instruction) for every VEX/EVEX instruction in `symbols`."""
    found = []
    current = None
    for line in run([objdump, "-d", "--insn-width=16", obj]).splitlines():
        m = LABEL.match(line)
        if m:
            # A .cold partition belongs to its parent function.
            current = m.group(1).split(".cold")[0]
            continue
        m = INSN.match(line)
        if m and current in symbols and is_vex(m.group(1)):
            found.append((symbols[current], m.group(2).strip()))
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nm", default="nm")
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("objects", nargs="+")
    args = ap.parse_args()

    objs = [o for arg in args.objects for o in arg.split(";")
            if os.path.basename(o).startswith("kernels_avx2.")]
    if not objs:
        print("check_isa_leak: no kernels_avx2 object among the arguments",
              file=sys.stderr)
        return 2
    bad = 0
    for obj in objs:
        symbols = shared_symbols(args.nm, obj)
        found = leaks(args.objdump, obj, symbols)
        for name, insn in found:
            print("%s: %s: %s" % (os.path.basename(obj), name, insn))
        bad += len(found)
        print("%s: %d shared functions outside avx2_impl, %d VEX/EVEX "
              "instructions" % (os.path.basename(obj), len(symbols),
                                len(found)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
