#!/usr/bin/env python3
"""Fail when a header under src/ is reached by no entry point.

A header that only the tests include is code no program runs. This
script starts from every .cpp under src/, bench/, examples/ and
perfbench/, follows the quoted #include directives (each resolved
against the including file's directory first, then against src/), and
lists every header under src/ that the walk never reaches.

Usage: python3 scripts/check_reachable.py [--root REPO_ROOT]
Exit status: 0 when every header is reached, 1 otherwise.
"""

import argparse
import pathlib
import re
import sys

ROOT_DIRS = ("src", "bench", "examples", "perfbench")
HEADER_SUFFIXES = {".hpp", ".h"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def reached_files(root: pathlib.Path):
    """Returns the resolved paths of every file the entry points include."""
    src = root / "src"
    todo = [
        path.resolve()
        for top in ROOT_DIRS
        if (root / top).is_dir()
        for path in sorted((root / top).rglob("*.cpp"))
    ]
    seen = set(todo)
    while todo:
        path = todo.pop()
        text = path.read_text(encoding="utf-8", errors="replace")
        for name in INCLUDE.findall(text):
            for base in (path.parent, src):
                target = (base / name).resolve()
                if target.is_file():
                    if target not in seen:
                        seen.add(target)
                        todo.append(target)
                    break
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent directory)",
    )
    args = parser.parse_args()
    root = args.root.resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"check_reachable: no src/ under {root}", file=sys.stderr)
        return 1

    reached = reached_files(root)
    orphans = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*"))
        if path.suffix in HEADER_SUFFIXES and path.resolve() not in reached
    ]
    for rel in orphans:
        print(f"src/{rel}: included by no entry point under "
              f"{', '.join(d + '/' for d in ROOT_DIRS)}")
    if orphans:
        print(f"check_reachable: {len(orphans)} unreached header(s)")
        return 1
    print("check_reachable: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
