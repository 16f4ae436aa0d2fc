#!/usr/bin/env python3
"""Counts the workspace's production lines.

A production line is a non-blank, non-comment line of a `.rs` file
under `crates/*/src` or `src/` that is not inside a `#[cfg(test)]`
item. A `#[cfg(test)] mod name;` excludes the file it names as well.
The vendored crates, the integration tests, the examples and the
benchmark are not counted.

    python3 tools/prod_lines.py            # the total
    python3 tools/prod_lines.py --files    # per file, then the total

Run from the repository root, or pass it with --root. It reports a
number and gates nothing.
"""

import argparse
import re
import sys
from pathlib import Path

MOD_DECL = re.compile(r"^(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def code_of(line, in_block):
    """`line` with comments and the contents of string and char
    literals removed, and whether a block comment is still open at its
    end."""
    out, i, n = [], 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block = end + 2, False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            i, in_block = i + 2, True
        elif line[i] == '"':
            end = i + 1
            while end < n and line[end] != '"':
                end += 2 if line[end] == "\\" else 1
            out.append('""')
            i = end + 1
        elif re.match(r"'(\\.|[^\\'])'", line[i:]):
            # A char literal such as '{' (a lifetime has no closing quote).
            i += line[i:].index("'", 2) + 1
            out.append("' '")
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def count_file(path, excluded):
    """Production lines of one file; adds the files its test-only
    `mod name;` declarations name to `excluded`."""
    count, in_block = 0, False
    # The state of a #[cfg(test)] item: `pending` between the attribute
    # and the item, then `depth`, its open braces, until it ends.
    pending, depth, opened = False, None, False
    for raw in path.read_text(encoding="utf-8").splitlines():
        code, in_block = code_of(raw, in_block)
        code = code.strip()
        if not code:
            continue
        if depth is None and not pending and code.startswith("#[cfg(test)]"):
            pending = True
            code = code[len("#[cfg(test)]"):].strip()
            if not code:
                continue
        if pending:
            if code.startswith("#["):
                continue
            declared = MOD_DECL.match(code)
            if declared:
                name = declared.group(1)
                base = path.parent if path.name in ("mod.rs", "lib.rs", "main.rs") else path.with_suffix("")
                excluded.update([base / f"{name}.rs", base / name / "mod.rs"])
            pending, depth, opened = False, 0, False
        if depth is not None:
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if (opened and depth <= 0) or (not opened and code.endswith(";")):
                depth = None
            continue
        count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root (default: .)")
    parser.add_argument("--files", action="store_true", help="print each file's count")
    args = parser.parse_args()
    root = Path(args.root)
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    if not files:
        sys.exit(f"no Rust sources under {root.resolve()}/crates/*/src or src/")
    excluded, counts = set(), {}
    for path in files:
        counts[path] = count_file(path, excluded)
    total = 0
    for path, count in counts.items():
        if path in excluded:
            continue
        total += count
        if args.files:
            print(f"{count:6} {path.relative_to(root)}")
    print(total)


if __name__ == "__main__":
    main()
