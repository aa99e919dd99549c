"""Alternating perfbench pairs of a parent and a change, written as
BENCH_<label>.json.

    python3 tools/bench_pairs.py --label pr33 --revs HEAD~1 HEAD \\
        --pairs 10 --seconds 8 --claim stationary wall_s
    python3 tools/bench_pairs.py --label check --dirs ../parent . \\
        --workloads certify --pairs 1 --seconds 0 --out-dir /tmp

--revs exports each revision with `git archive` into its own fresh
directory of one temporary directory, so the two trees are laid out
alike; --dirs takes two directories that already are.
For each workload in turn, pair k runs perfbench/run.py once on each
side with seed first_seed + k - 1, the parent first on odd pairs and the
change first on even ones, each from its own tree with the same
interpreter. Each run's end-to-end metrics come from the JSON line it
prints last.

The file gives, per workload and metric, each side's [median, q1, q3]
over the pairs (numpy's linear percentiles), how many pairs read lower
and higher on the change, and every pair's values. It also holds each
side's tracemalloc peak for one seed-1 pass of each workload, run in a
fresh interpreter after a warm-up pass, as tools/solver_bits.py runs its
cases: a peak_rss_mb move that the traced peak does not share comes from
where the allocator lands, not from the change.

Each end-to-end metric of BENCHMARK.json gets a no-regression verdict,
from its bound and which way is better, relative to the parent's median:
"holds" when the change's median is worse by at most the bound, "worse"
when it is worse by more, and "unresolved" when the parent's
interquartile range exceeds the bound, unless every change run beats
every parent run, which reads "holds". The metrics that do not hold are
printed. With --claim WORKLOAD METRIC it also says whether the change's
gain on it holds: better in at least nine tenths of the pairs, and a
median gap wider than the parent's interquartile range.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "stationary", "flux", "parabolic")
SIDES = ("parent", "change")

# run in a fresh interpreter from one side's tree: the traced peak of one
# seed-1 pass of each workload named in argv, after an untraced warm-up pass
_TRACED_PEAK = """
import contextlib, json, os, sys, tracemalloc
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.dont_write_bytecode = True
sys.path[:0] = ["src", "perfbench"]
import workloads
peaks = {}
for workload in sys.argv[1:]:
    cases = workloads.make_cases(workload, 1)
    for case in cases:
        workloads.run_case(case, contextlib.nullcontext)
    tracemalloc.start()
    for case in cases:
        workloads.run_case(case, contextlib.nullcontext)
    peaks[workload] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def export(rev, into):
    """Extract `git archive rev` of this repository into the new directory
    `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def perfbench(tree, workload, seed, seconds):
    """(end-to-end metrics, correct, attempted, failed, stamp) of one run."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if run.returncode != 0:
        sys.exit(f"bench_pairs: perfbench failed in {tree}:\n{run.stderr[-2000:]}")
    line = json.loads(run.stdout.splitlines()[-1])
    record = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    stamp = json.loads(record.read_text())["stamp"]
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return metrics, line["correct"], line["attempted"], line["failed"], stamp


def traced_peaks(tree, workloads):
    run = subprocess.run([sys.executable, "-c", _TRACED_PEAK, *workloads],
                         cwd=tree, capture_output=True, text=True, timeout=1200)
    if run.returncode != 0:
        sys.exit(f"bench_pairs: traced pass failed in {tree}:\n{run.stderr[-2000:]}")
    return json.loads(run.stdout.splitlines()[-1])


def end_to_end():
    """BENCHMARK.json's end-to-end metrics by name, each with its bound
    and which way is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _quartiles(values):
    return [float(f"{v:.4g}") for v in np.percentile(values, [50, 25, 75])]


def no_regression(parent, change, metric):
    """The no-regression verdict of one metric from each side's runs (see
    the module docstring); metric is its BENCHMARK.json entry."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # worse: sign * rise
    median, q1, q3 = np.percentile(parent, [50, 25, 75])
    allowed = metric["bound"] * abs(median)
    if q3 - q1 > allowed:
        beats = max(sign * c for c in change) < min(sign * p for p in parent)
        return "holds" if beats else "unresolved"
    return "holds" if sign * (np.median(change) - median) <= allowed else "worse"


def summarize(runs, seeds, metrics):
    """One workload's entry: runs[side] is that side's list of
    (metrics, correct, attempted, failed) in pair order, and metrics the
    end-to-end metrics that get a verdict."""
    entry = {"pairs": len(seeds), "seeds": [seeds[0], seeds[-1]]}
    for name in runs["parent"][0][0]:
        pairs = list(zip(*(
            [r[0][name] for r in runs[side]] for side in SIDES)))
        entry[name] = {side: _quartiles(values)
                       for side, values in zip(SIDES, zip(*pairs))}
        entry[name]["change_lower"] = sum(c < p for p, c in pairs)
        entry[name]["change_higher"] = sum(c > p for p, c in pairs)
        if name in metrics:
            entry[name]["verdict"] = no_regression(*zip(*pairs), metrics[name])
        entry[f"{name}_pairs"] = [[float(f"{v:.6g}") for v in pair]
                                  for pair in pairs]
    entry["attempted_failed"] = {side: [sum(r[2] for r in runs[side]),
                                        sum(r[3] for r in runs[side])]
                                 for side in SIDES}
    entry["correct"] = {side: all(r[1] for r in runs[side]) for side in SIDES}
    return entry


def claim(entry, workload, metric, direction):
    """Whether the change's gain on metric, whose better direction is
    "lower" or "higher", holds, and the sentence that says so."""
    stats = entry[metric]
    parent, change = stats["parent"], stats["change"]
    pairs, better = entry["pairs"], stats[f"change_{direction}"]
    gap, spread = abs(parent[0] - change[0]), parent[2] - parent[1]
    holds = 10 * better >= 9 * pairs and gap > spread
    percent = 100.0 * (change[0] - parent[0]) / parent[0] if parent[0] else 0.0
    return holds, (
        f"{workload} {metric} {direction}: {parent[0]:.4g} -> {change[0]:.4g} "
        f"median ({percent:+.1f}%), {direction} in {better} of {pairs} pairs; "
        f"the median gap {gap:.3g} {'exceeds' if gap > spread else 'does not exceed'} "
        f"the parent's interquartile range {spread:.3g}")


def bench(trees, workloads, pairs, first_seed, seconds, metrics):
    """(workloads entry, stamp) over the alternating pairs."""
    result, stamp = {}, None
    seeds = list(range(first_seed, first_seed + pairs))
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds, start=1):
            order = SIDES if k % 2 else SIDES[::-1]
            for side in order:
                *outcome, side_stamp = perfbench(trees[side], workload, seed, seconds)
                runs[side].append(outcome)
                if stamp is None:
                    stamp = side_stamp
                elif side_stamp != stamp:
                    sys.exit(f"bench_pairs: stamps differ: {stamp} and {side_stamp}")
            print(f"{workload} pair {k} seed {seed}: wall_s parent "
                  f"{runs['parent'][-1][0]['wall_s']:.4f} change "
                  f"{runs['change'][-1][0]['wall_s']:.4f}")
        result[workload] = summarize(runs, seeds, metrics)
    peaks = {side: traced_peaks(trees[side], workloads) for side in SIDES}
    for workload in workloads:
        result[workload]["tracemalloc_peak_mib"] = {
            side: round(peaks[side][workload], 4) for side in SIDES}
    return result, dict(stamp, blas_threads=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    trees = parser.add_mutually_exclusive_group(required=True)
    trees.add_argument("--revs", nargs=2, metavar=("PARENT", "CHANGE"),
                       help="two git revisions, each exported with git archive")
    trees.add_argument("--dirs", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                       help="two checkouts already laid out alike")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim and args.claim[0] not in args.workloads:
        parser.error(f"--claim names {args.claim[0]}, which is not benched")
    metrics = end_to_end()
    if args.claim and args.claim[1] not in metrics:
        parser.error(f"--claim names {args.claim[1]}, which is not an end-to-end "
                     "metric")
    with tempfile.TemporaryDirectory() as scratch:
        if args.dirs:
            trees = dict(zip(SIDES, (d.resolve() for d in args.dirs)))
        else:
            trees = {side: Path(scratch) / side for side in SIDES}
            for side, rev in zip(SIDES, args.revs):
                export(rev, trees[side])
        entries, stamp = bench(trees, args.workloads, args.pairs, args.first_seed,
                               args.seconds, metrics)
    seconds = f"{args.seconds:g}"
    out = {
        "label": args.label,
        "revs": args.revs or [str(d) for d in args.dirs],
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "pairs": "alternating parent/change runs, the parent first on odd pairs "
                 "and the change first on even ones; seed first_seed + k - 1 for "
                 "pair k on both sides; "
                 + ("each side a `git archive` export of its revision into a fresh "
                    "directory" if args.revs else "each side a given directory")
                 + "; workloads in the order " + ", ".join(args.workloads),
        "stamp": stamp,
        "format": "metric: parent and change as [median, q1, q3] over the pairs "
                  "(numpy linear percentiles); change_lower/change_higher count "
                  "the pairs; <metric>_pairs holds [parent, change] per pair; "
                  "verdict is the no-regression verdict against the metric's "
                  "BENCHMARK.json bound: holds, worse or unresolved; "
                  "tracemalloc_peak_mib is each side's traced peak over one "
                  "seed-1 pass after a warm-up pass",
    }
    if args.claim:
        workload, metric = args.claim
        out["claim_holds"], out["claim"] = claim(entries[workload], workload, metric,
                                                 metrics[metric]["better"])
    out["workloads"] = entries
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    for workload, entry in entries.items():
        for name in metrics:
            if entry[name]["verdict"] != "holds":
                parent, change = entry[name]["parent"][0], entry[name]["change"][0]
                print(f"{workload} {name}: {entry[name]['verdict']}, median "
                      f"{parent:.4g} -> {change:.4g}")
    if args.claim:
        print(out["claim"], "(holds)" if out["claim_holds"] else "(does not hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
