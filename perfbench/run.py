"""plskit benchmark: one closed-loop client solving obstacle problems.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run builds the workload's case list from the seed, warms up on N=8
copies of the cases, times cold starts of the CLI in fresh interpreters,
then repeats passes until --seconds have been spent. Each case starts
after the previous one is checked. The process stays on one core, and a
fixed reference kernel (speed.py) is timed around and every 50 ms inside
each case, so that the end-to-end times do not depend on the core's
speed at the moment. With --trace 1, traced and untraced passes
alternate and the per-layer metrics come from the traced ones.

Standard output ends with one JSON line: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
The full record, stamped with backend and versions, goes to
perfbench/results/. `--smoke` runs every workload at N=8 in both modes
and checks that every metric is printed. See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread here and in every interpreter this starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one core

END_TO_END = {
    "wall_s": "s",
    "slowest_case_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_share": "ratio",
}
PER_LAYER = {
    "obstacle.assemble_s": "s",
    "obstacle.assemble_calls": "count",
    "matprops.check_s": "s",
    "matprops.classify_s": "s",
    "matprops.inconclusive": "count",
    "pls.solve_s": "s",
    "pls.self_s": "s",
    "pls.outer_iterations": "count",
    "pls.grow_ratio": "ratio",
    "krylov.calls": "count",
    "krylov.self_s": "s",
    "krylov.iterations": "count",
    "krylov.iters_per_call": "ratio",
    "krylov.zero_iter_calls": "count",
    "krylov.breakdowns": "count",
    "krylov.not_converged": "count",
    "numkit.matvecs": "count",
    "numkit.matvec_s": "s",
    "numkit.rmatvecs": "count",
    "numkit.rmatvec_s": "s",
    "numkit.spmvs": "count",
    "numkit.spmv_s": "s",
    "numkit.flops": "flop",
    "numkit.bytes_moved": "B",
    "numkit.flops_per_byte": "flop/B",
    "numkit.gbps": "GB/s",
    "setup.import_s": "s",
    "setup.first_solve_s": "s",
}
# counts that must repeat exactly between traced passes over the same cases
EXACT = ("pls.outer_iterations", "krylov.iterations", "numkit.matvecs",
         "numkit.rmatvecs")
# metric name prefix -> the span it is read from, to report absent layers
LAYER_OF = {"obstacle.": "obstacle.assemble", "matprops.check_s": "matprops.check",
            "matprops.inconclusive": "matprops.check",
            "matprops.classify": "matprops.classify", "pls.": "pls.solve",
            "krylov.": "krylov.qmr", "numkit.matvec": "numkit.matvec",
            "numkit.rmatvec": "numkit.rmatvec", "numkit.spmv": "numkit.spmv"}

# the workloads, each with a tiny case of its kind run through the CLI from cold
COLD_START = {
    "stationary": ["solve", "--problem", "tent", "--n", "8"],
    "flux": ["solve", "--problem", "tent-neumann", "--n", "8"],
    "parabolic": ["solve", "--problem", "tent", "--n", "8", "--tau", "1e4",
                  "--nu", "2"],
    "certify": ["check", "--problem", "tent-neumann", "--n", "8"],
}
SETUP_SAMPLES = 7
MIN_PASSES = 3  # untraced passes after the warm-up
MIN_TRACED = 2  # traced passes, and as many untraced ones beside them


def _import_plskit():
    """Import plskit from this checkout's src/, never from anywhere else."""
    package = SRC / "plskit"
    if not (package / "__init__.py").is_file():
        sys.exit("perfbench: src/plskit is missing; run from a checkout of the "
                 "repository")
    sys.path.insert(0, str(SRC))
    import plskit

    if Path(plskit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported plskit from {plskit.__file__}, not src/")
    return plskit


plskit = _import_plskit()

import numpy  # noqa: E402

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _stamp():
    return {"backend": getattr(plskit, "BACKEND", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": NPROC}


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _median(values):
    return statistics.median(values) if values else 0.0


def _pin_to_one_core():
    """Keep this process and the interpreters it starts on one core, so
    a case and the probes that measure it run at the same core's speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Run:
    """Operations attempted and failed in one run, with the reasons.

    An operation is one case of the list (each pass repeats it), one case
    of the warm-up, or one cold start. A case fails if it fails in any
    pass, so the counts depend on the seed and not on how many passes fit.
    """

    def __init__(self):
        self.outcomes = {}  # operation -> (what, kind, problems)

    def record(self, op, what, kind, problems):
        if self.outcomes.get(op, (None, None))[1] is None:
            self.outcomes[op] = (what, kind, problems)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failures(self):
        return [o for o in self.outcomes.values() if o[1] is not None]


def cold_start(workload, samples, run, probe):
    """Median time of a fresh interpreter importing the CLI and finishing
    a tiny case, in seconds at the probe's nominal speed, and the raw
    medians of its two parts."""
    argv = COLD_START[workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, imports, firsts = [], [], []
    before = probe()
    for sample in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - start
        after = probe()
        scaled.append(wall * 2 * speed.NOMINAL_S / (before + after))
        before = after
        problems = []
        try:
            rec = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rec = None
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if rec is not None:
            imports.append(rec["import_s"])
            firsts.append(rec["first_solve_s"])
            expected = "status=Converged" if argv[0] == "solve" else "t1_verdict="
            if rec["exit"] != 0 or expected not in rec["output"]:
                problems.append(f"cli exit {rec['exit']}: {rec['output'][:200]}")
            if not Path(rec["module"]).resolve().is_relative_to(SRC.resolve()):
                problems.append(f"cold start imported {rec['module']}")
        run.record(("cold start", sample), "cold start " + " ".join(argv),
                   workloads.REFUSED if problems else None, problems)
    return _median(scaled), _median(imports), _median(firsts)


def run_pass(cases, run, tag, probe=None, tracer=None):
    """One closed-loop pass.

    Returns the seconds of each case and, with a probe, each case's
    seconds at the probe's nominal speed (speed.Meter) and the probe
    times. A probed case's seconds leave out the probes.
    """
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    times, scaled, probes = [], [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        for index, case in enumerate(cases):
            if probe is None:
                case_start = time.perf_counter()
                kind, problems = workloads.run_case(case, paused)
                times.append(time.perf_counter() - case_start)
            else:
                with speed.Meter(probe) as meter:
                    kind, problems = workloads.run_case(case, paused)
                times.append(meter.seconds)
                scaled.append(meter.scaled)
                probes += meter.probes
            run.record((tag, index), case.label(), kind, problems)
    return times, scaled, probes


def measure(cases, seconds, trace, run, probe, min_passes=MIN_PASSES,
            min_traced=MIN_TRACED):
    """Run passes until `seconds` are spent.

    Untraced only, or alternating untraced and traced passes. Returns
    (case times, scaled case times, probe times) of each untraced pass,
    the per-layer metrics of each traced pass, its wall times (the sum of
    its case times), and the spans of the last traced pass. Only untraced
    passes are probed.
    """
    plain, traced, traced_walls, spans, durations = [], [], [], [], []
    tracer = layertrace.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if trace and len(traced) < len(plain):
            times, _, _ = run_pass(cases, run, "pass", tracer=tracer)
            spans = tracer.drain()
            traced.append(layertrace.layer_metrics(spans))
            traced_walls.append(sum(times))
        else:
            plain.append(run_pass(cases, run, "pass", probe))
        durations.append(time.perf_counter() - pass_start)
        enough = len(plain) >= (min_traced if trace else min_passes) and (
            not trace or len(traced) >= min_traced)
        if enough and time.perf_counter() - start + _median(durations) > seconds:
            break
    return plain, traced, traced_walls, spans, tracer


def end_to_end(case_scaled, setup_s, rss0, run):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB
    passed = run.attempted - len(run.failures)
    return {
        "wall_s": sum(case_scaled),
        "slowest_case_s": max(case_scaled),
        "setup_s": setup_s,
        "peak_rss_mb": (peak - rss0) / 2**20,
        "passed_share": passed / run.attempted,
    }


def per_layer(traced, setup_parts, tracer):
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        metrics[name] = values[0] if len(set(values)) == 1 else _median(values)
    metrics["setup.import_s"], metrics["setup.first_solve_s"] = setup_parts
    absent = {name for name in metrics
              if any(name.startswith(p) and LAYER_OF[p] in tracer.absent
                     for p in LAYER_OF)}
    mismatched = [name for name in EXACT
                  if len({t[name] for t in traced}) != 1]
    return metrics, sorted(absent), mismatched


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the record written to perfbench/results."""
    cases = workloads.make_cases(workload, seed, smoke=smoke)
    run = Run()
    probe = speed.Probe()
    rss0 = _rss_bytes()
    # first calls pay for imports and lazy set-up; N=8 copies warm them up
    run_pass(workloads.make_cases(workload, seed, smoke=True), run, "warm-up")
    setup_s, *setup_parts = cold_start(workload, 1 if smoke else SETUP_SAMPLES,
                                       run, probe)
    plain, traced, traced_walls, spans, tracer = measure(
        cases, seconds, trace, run, probe, min_passes=1 if smoke else MIN_PASSES)
    case_times = [times for times, _, _ in plain]
    case_scaled = [scaled for _, scaled, _ in plain]
    probes = [p for _, _, pass_probes in plain for p in pass_probes]
    record = {
        "stamp": _stamp(), "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "cases": [c.label() for c in cases],
        "case_s": [_median(list(t)) for t in zip(*case_times)],
        "case_scaled_s": [_median(list(t)) for t in zip(*case_scaled)],
        "case_times": case_times, "case_scaled": case_scaled,
        "pass_walls": [sum(t) for t in case_times], "probes": probes,
        "traced_walls": traced_walls,
    }
    if trace:
        metrics, absent, mismatched = per_layer(traced, setup_parts, tracer)
        units = PER_LAYER
        record["overhead_s"] = _median(traced_walls) - _median(record["pass_walls"])
        # name, start, end, parent: the last traced pass, for a timeline
        record.update(absent=absent, mismatched_counts=mismatched,
                      spans=[list(span[:4]) for span in spans])
    else:
        metrics, mismatched = end_to_end(record["case_scaled_s"], setup_s, rss0,
                                         run), []
        units = END_TO_END
    correct = not mismatched and all(k != workloads.WRONG for _, k, _ in run.failures)
    record.update(metrics=metrics, units=units, attempted=run.attempted,
                  failed=len(run.failures), failures=run.failures, correct=correct)
    return record


def report(record):
    """Print the run for a reader; the JSON result line comes after this."""
    s = record["stamp"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"backend={s['backend']} python={s['python']} numpy={s['numpy']} "
          f"nproc={s['nproc']}")
    print("cases (median seconds): " + "; ".join(
        f"{label} {t:.3f}" for label, t in zip(record["cases"], record["case_s"])))
    walls = record["pass_walls"]
    print(f"passes: {len(walls)} untraced, {len(record['traced_walls'])} traced, "
          "after a warm-up pass at N=8")
    if walls:
        print(f"per-case medians, measured: sum {sum(record['case_s']):.4f} s, "
              f"slowest {max(record['case_s']):.4f} s; at the probe's nominal "
              f"speed: sum {sum(record['case_scaled_s']):.4f} s, slowest "
              f"{max(record['case_scaled_s']):.4f} s ({len(walls)} samples each)")
        print(f"speed probe: median {_median(record['probes']) * 1e3:.3f} ms over "
              f"{len(record['probes'])} probes, nominal {speed.NOMINAL_S * 1e3:g} ms")
    for name, value in record["metrics"].items():
        print(f"  {name:26s} {value:14.6g} {record['units'][name]}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  {'failed_share':26s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    seen = {}
    for what, kind, problems in record["failures"]:
        line = f"{kind}: {what}: {'; '.join(problems)}"
        seen[line] = seen.get(line, 0) + 1
    for line, count in seen.items():
        print(f"  failed {count}x ({line})")
    if record["trace"]:
        print(f"  tracing overhead: {record['overhead_s']:+.4f} s per pass "
              "(traced wall_s minus untraced)")
        for name in record["absent"]:
            print(f"  {name}: absent (its function no longer exists)")
        for name in record["mismatched_counts"]:
            print(f"  {name}: differs between traced passes of the same cases")


def save(record):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}.json")
    path.write_text(json.dumps(record))


def result_line(record):
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    })


def smoke():
    """Every workload at N=8, untraced and traced: every metric printed."""
    declared = None
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        declared = ({m["name"] for m in spec["end_to_end"]},
                    {m["name"] for m in spec["per_layer"]})
    ok = True
    for workload in COLD_START:
        for trace in (0, 1):
            record = run_workload(workload, 0, 0.0, trace, smoke=True)
            report(record)
            want = set(PER_LAYER if trace else END_TO_END)
            if declared is not None and declared[trace] != want:
                print(f"smoke: BENCHMARK.json names differ: {declared[trace] ^ want}")
                ok = False
            missing = want - set(record["metrics"])
            if missing:
                print(f"smoke: {workload} trace={trace} misses {sorted(missing)}")
                ok = False
            if not record["correct"]:
                print(f"smoke: {workload} trace={trace} is not correct")
                ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(COLD_START))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at N=8; check every metric is printed")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    _pin_to_one_core()
    if args.smoke:
        return smoke()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    save(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
