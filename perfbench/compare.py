"""Compare two perfbench records metric by metric.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Refuses (exit 2) to compare records of different workloads, trace modes
or kernel backends: a numba run against a numpy run measures the backend,
not the change. Differing Python or numpy versions or core counts are
printed as a warning.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    a, b = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} {a[key]} vs {b[key]}")
            return 2
    if a["stamp"]["backend"] != b["stamp"]["backend"]:
        print(f"refusing to compare: backend {a['stamp']['backend']} vs "
              f"{b['stamp']['backend']}")
        return 2
    for key in ("python", "numpy", "nproc"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"warning: {key} {a['stamp'][key]} vs {b['stamp'][key]}")
    print(f"{a['workload']} trace={a['trace']} backend={a['stamp']['backend']}: "
          f"seed {a['seed']} vs seed {b['seed']}")
    for name, value in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            print(f"  {name:26s} {value:14.6g} {'missing':>14s}")
            continue
        ratio = f"{other / value:8.3f}x" if value else ""
        print(f"  {name:26s} {value:14.6g} {other:14.6g} {ratio} {a['units'][name]}")
    print(f"  {'failed':26s} {a['failed']:>14d} {b['failed']:>14d}  "
          f"of {a['attempted']} and {b['attempted']} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
