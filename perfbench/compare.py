"""Compare two records written by ``perfbench/run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints the labels that differ, every metric of both runs with the ratio
new/base, and the layer counts and answer fingerprints that differ. Runs on
different kernel backends are flagged and the exit code is 1: their
numbers measure the backend, not the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def flatten(tree, prefix=""):
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def differences(base: dict, new: dict) -> list[tuple[str, object, object]]:
    a, b = flatten(base), flatten(new)
    return [(k, a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k)]


def compare(base: dict, new: dict) -> int:
    status = 0
    for key, a, b in differences(base["labels"], new["labels"]):
        print(f"label {key}: {a} -> {b}")
    if base["labels"]["backend"] != new["labels"]["backend"]:
        print("FLAG: kernel backends differ; these runs are not comparable")
        status = 1
    base_m, new_m = base["result"]["metrics"], new["result"]["metrics"]
    for name in list(base_m) + [n for n in new_m if n not in base_m]:
        a = base_m.get(name, {}).get("value")
        b = new_m.get(name, {}).get("value")
        ratio = f"{b / a:.4f}" if a and b is not None else "-"
        print(f"{name:<30} {a!s:>24} {b!s:>24}  x{ratio}")
    for section in ("counts", "fingerprint"):
        for key, a, b in differences(base[section], new[section]):
            print(f"{section} {key}: {a!r} -> {b!r}")
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    base, new = (json.loads(Path(p).read_text()) for p in args)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
