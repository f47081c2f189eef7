#!/usr/bin/env python3
"""Fail when a shared primitive is written out again under src/.

Each shared primitive has one definition: FNV-1a (32- and 64-bit) in
src/common/hash.hpp, the SplitMix64 step and finalizer in
src/common/rng.hpp, and the k/m/g byte-size grammar
(gpusim::parse_mem_bytes) in src/gpusim/memory.cpp. A second copy shows
up as one of their constants, so this script searches every source file
under src/ for the FNV offset bases and primes (hex or decimal), the
SplitMix64 multipliers and the g-suffix scale, and reports each hit
outside the file allowed to hold it.

Usage: python3 scripts/check_single_source.py [--root REPO_ROOT]
Exit status: 0 when clean, 1 when any constant appears elsewhere.
"""

import argparse
import pathlib
import sys

# constant spelling (matched case-insensitively) -> the one file allowed
# to contain it, relative to src/.
HOMES = {
    # FNV-1a-32 offset basis and prime.
    "811C9DC5": "common/hash.hpp",
    "2166136261": "common/hash.hpp",
    "01000193": "common/hash.hpp",
    "16777619": "common/hash.hpp",
    # FNV-1a-64 offset basis (the decimal spelling is a prefix of the
    # published one, so it also catches the truncated basis) and prime.
    "CBF29CE484222325": "common/hash.hpp",
    "1469598103934665603": "common/hash.hpp",
    "100000001B3": "common/hash.hpp",
    "1099511628211": "common/hash.hpp",
    # SplitMix64 finalizer multipliers.
    "BF58476D1CE4E5B9": "common/rng.hpp",
    "94D049BB133111EB": "common/rng.hpp",
    # The g suffix of the byte-size grammar.
    "1024.0 * 1024.0 * 1024.0": "gpusim/memory.cpp",
}

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".cu", ".cuh"}


def find_copies(src: pathlib.Path):
    """Yields (path, line number, constant) for every misplaced constant."""
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), start=1):
            upper = line.upper()
            for constant, home in HOMES.items():
                if constant in upper and rel != home:
                    yield rel, lineno, constant


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent directory)",
    )
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"check_single_source: no src/ under {args.root}", file=sys.stderr)
        return 1

    copies = list(find_copies(src))
    for rel, lineno, constant in copies:
        print(
            f"src/{rel}:{lineno}: {constant} belongs only in "
            f"src/{HOMES[constant]}; use the shared definition"
        )
    if copies:
        print(f"check_single_source: {len(copies)} misplaced constant(s)")
        return 1
    print("check_single_source: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
