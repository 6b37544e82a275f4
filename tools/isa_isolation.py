#!/usr/bin/env python3
"""ISA-leak guard for the runtime-dispatched SIMD tiers.

    isa_isolation.py <objdump> <library>...

The AVX2 and AVX-512 kernels are compiled into the same libraries as the
x86-64-v2 baseline (common/simd.hpp "Kernel tiers"); the dispatcher only
enters them on CPUs that run them. Everything else must stay baseline code:
if an inline or template function shared with baseline units picked up a
VEX/EVEX copy (COMDAT folding keeps one copy per symbol), a pre-AVX2 host
would die with SIGILL in code that never asked for a wide tier.

This disassembles the libraries and fails when any function whose demangled
name does not mention a tier namespace (`avx2::` / `avx512::`) contains a
VEX- or EVEX-encoded instruction, or touches %ymm, %zmm or %k registers. It
also fails when either tier's code is missing, so the check cannot pass
vacuously on a build that dropped the tier units.
"""

import re
import subprocess
import sys

TIER_NAMESPACES = ("avx2::", "avx512::")
# Legacy prefixes that may precede an opcode; VEX (c4/c5) and EVEX (62)
# leading bytes are only valid after none of them in 64-bit code.
LEGACY_PREFIXES = {"26", "2e", "36", "3e", "64", "65", "66", "67", "f0", "f2", "f3"}
WIDE_REGISTER = re.compile(r"%(ymm|zmm)\d+|%k[0-7]\b")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSTRUCTION = re.compile(r"^\s+[0-9a-f]+:\t([0-9a-f ]+)\t(.*)$")


def is_wide(raw_bytes, text):
    """True for a VEX/EVEX encoding or an AVX-class register operand."""
    for byte in raw_bytes.split():
        if byte in LEGACY_PREFIXES:
            continue
        if byte in ("c4", "c5", "62"):
            return True
        break
    return WIDE_REGISTER.search(text) is not None


def scan(objdump, library):
    """Yields (function, first wide instruction or None) per function."""
    out = subprocess.run([objdump, "-d", "-w", "-C", library], check=True,
                         capture_output=True, text=True).stdout
    function, wide = None, None
    for line in out.splitlines():
        m = FUNCTION.match(line)
        if m:
            if function is not None:
                yield function, wide
            function, wide = m.group(1), None
            continue
        m = INSTRUCTION.match(line)
        if m and function is not None and wide is None and is_wide(m.group(1), m.group(2)):
            wide = m.group(2).strip()
    if function is not None:
        yield function, wide


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    objdump, libraries = argv[1], argv[2:]
    leaks = []
    tier_code = {ns: 0 for ns in TIER_NAMESPACES}
    functions = 0
    for library in libraries:
        for function, wide in scan(objdump, library):
            functions += 1
            tiers = [ns for ns in TIER_NAMESPACES if ns in function]
            if tiers:
                if wide is not None:
                    tier_code[tiers[-1]] += 1
            elif wide is not None:
                leaks.append((library, function, wide))
    for library, function, wide in leaks:
        print(f"LEAK {library}: {function}\n      {wide}")
    print(f"isa_isolation: {functions} functions in {len(libraries)} libraries; "
          f"wide tier functions: {tier_code}; baseline functions with wide code: {len(leaks)}")
    missing = [ns for ns, count in tier_code.items() if count == 0]
    if missing:
        print(f"FAIL: no wide code in the {', '.join(missing)} tier(s); tier units missing?")
        return 1
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
