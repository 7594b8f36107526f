"""Leaf-by-leaf difference between two JSON reports.

    python tests/golden_diff.py OLD.json NEW.json

prints one line per differing leaf, ``path: old -> new``, where a path such
as ``tasks[2].checks[0].value`` names the leaf and ``<absent>`` stands for a
key or list entry that only one side has. Exits 0 when the reports are equal
and 1 otherwise. Uses the standard library only.
"""

from __future__ import annotations

import json
import sys

ABSENT = "<absent>"


def diff_leaves(old, new, path: str = ""):
    """Yield (path, old, new) for every leaf where the two JSON values differ.

    Dicts and lists are walked; any other value, or a change of container
    type, is a leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            yield from diff_leaves(old.get(key, ABSENT), new.get(key, ABSENT), sub)
    elif isinstance(old, list) and isinstance(new, list):
        for idx in range(max(len(old), len(new))):
            yield from diff_leaves(
                old[idx] if idx < len(old) else ABSENT, new[idx] if idx < len(new) else ABSENT, f"{path}[{idx}]"
            )
    elif old != new or type(old) is not type(new):
        yield path, old, new


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/golden_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args[1], encoding="utf-8") as fh:
        new = json.load(fh)
    changed = 0
    for path, a, b in diff_leaves(old, new):
        print(f"{path}: {json.dumps(a) if a is not ABSENT else a} -> {json.dumps(b) if b is not ABSENT else b}")
        changed += 1
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
