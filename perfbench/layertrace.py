"""Spans around the package's layer boundaries, recorded from outside.

The tracer wraps public functions at every module binding a caller can
use (a `from .x import f` makes a second binding), plus the masked
operator's matvec/rmatvec methods. Each call records a span: name, start,
end, parent span and a few numbers read from the call's result. Spans
stay in memory; `layer_metrics` reduces one pass's spans to the per-layer
metrics. A target that no longer exists is reported as absent.
"""

import contextlib
import functools
import sys
import time

from plskit import matprops
from plskit.krylov import Breakdown

# span name -> functions wrapped at each plskit module that binds them
FUNCTIONS = {
    "obstacle.assemble": ("assemble_elliptic",),
    "matprops.check": ("check_t1", "check_t2"),
    "matprops.classify": ("classify_solvability",),
    "pls.solve": ("solve_elliptic_pls", "solve_parabolic_pls"),
    "krylov.qmr": ("qmr_solve",),
    "numkit.spmv": ("spmv",),
}
METHODS = {
    "numkit.matvec": ("MaskedOperator", "matvec"),
    "numkit.rmatvec": ("MaskedOperator", "rmatvec"),
}
SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)


def _verdict(result):
    return result.t1_verdict if result.t2_verdict is None else result.t2_verdict


def _pls_info(result):
    counts = result.report.active_counts
    grew = sum(1 for a, b in zip(counts, counts[1:]) if b > a)
    return result.report.outer_iterations, grew


def _qmr_info(result):
    stats = result[1]
    return stats.iterations, stats.breakdown, not stats.converged


def _operator_info(op):
    return op.base.nnz, op.n


def _matrix_info(matrix):
    return matrix.nnz, matrix.n_rows


# span name -> (numbers from the result, numbers from the first argument)
_INFO = {
    "matprops.check": (_verdict, None),
    "pls.solve": (_pls_info, None),
    "krylov.qmr": (_qmr_info, None),
    "numkit.spmv": (None, _matrix_info),
    "numkit.matvec": (None, _operator_info),
    "numkit.rmatvec": (None, _operator_info),
}


def _plskit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "plskit" or name.startswith("plskit."))]


class Tracer:
    """Install with `with tracer:`; spans collect in `tracer.spans`."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, info)
        self._stack = []
        self._active = True
        self._patches = []  # (owner, attribute, original, span name)
        self.present = set()
        for name, attrs in FUNCTIONS.items():
            for module in _plskit_modules():
                for attr in attrs:
                    fn = getattr(module, attr, None)
                    if callable(fn):
                        self._patches.append((module, attr, fn, name))
                        self.present.add(name)
        seen = set()
        for name, (cls_name, attr) in METHODS.items():
            for module in _plskit_modules():
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, attr, None) if cls is not None else None
                if callable(fn) and (id(cls), attr) not in seen:
                    seen.add((id(cls), attr))
                    self._patches.append((cls, attr, fn, name))
                    self.present.add(name)
        self.absent = tuple(n for n in SPAN_NAMES if n not in self.present)

    def __enter__(self):
        for owner, attr, fn, name in self._patches:
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)
        return False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        saved, self._active = self._active, False
        try:
            yield
        finally:
            self._active = saved

    def drain(self):
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        from_result, from_arg = _INFO.get(name, (None, None))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            info = _read(from_arg, args[0]) if from_arg is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, _failure_info(name, exc))
                raise
            end = time.perf_counter()
            stack.pop()
            if from_result is not None:
                info = _read(from_result, result)
            spans[index] = (name, start, end, parent, info)
            return result

        return wrapper


def _read(extract, value):
    # a refactor may rename a field; the span then carries no numbers
    try:
        return extract(value)
    except (AttributeError, IndexError, TypeError):
        return None


def _failure_info(name, exc):
    # Breakdown and NotConverged carry the stats of the best iterate
    stats = getattr(exc, "stats", None)
    if name == "krylov.qmr" and stats is not None:
        return stats.iterations, stats.breakdown or isinstance(exc, Breakdown), True
    return None


def layer_metrics(spans):
    """Per-layer metrics of one pass. Self time is a span's duration minus
    the time its direct child spans cover."""
    duration = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]

    def pick(name, top_only=False):
        return [i for i, s in enumerate(spans) if s[0] == name
                and not (top_only and s[3] >= 0 and spans[s[3]][0] == name)]

    def total(idx):
        return sum(duration[i] for i in idx)

    def self_time(idx):
        return sum(duration[i] - child[i] for i in idx)

    assemble = pick("obstacle.assemble")
    checks = pick("matprops.check", top_only=True)
    classify = pick("matprops.classify")
    solves = pick("pls.solve")
    qmr = pick("krylov.qmr")
    outer = sum(spans[i][4][0] for i in solves if spans[i][4])
    grew = sum(spans[i][4][1] for i in solves if spans[i][4])
    qmr_info = [spans[i][4] for i in qmr if spans[i][4]]
    iterations = sum(info[0] for info in qmr_info)

    m = {
        "obstacle.assemble_s": total(assemble),
        "obstacle.assemble_calls": len(assemble),
        "matprops.check_s": total(checks),
        "matprops.classify_s": total(classify),
        "matprops.inconclusive": sum(
            1 for i in checks if spans[i][4] == matprops.INCONCLUSIVE),
        "pls.solve_s": total(solves),
        "pls.self_s": self_time(solves),
        "pls.outer_iterations": outer,
        "pls.grow_ratio": grew / outer if outer else 0.0,
        "krylov.calls": len(qmr),
        "krylov.self_s": self_time(qmr),
        "krylov.iterations": iterations,
        "krylov.iters_per_call": iterations / len(qmr) if qmr else 0.0,
        "krylov.zero_iter_calls": sum(1 for info in qmr_info if info[0] == 0),
        "krylov.breakdowns": sum(1 for info in qmr_info if info[1]),
        "krylov.not_converged": sum(1 for info in qmr_info if info[2]),
    }
    flops = moved = busy = 0.0
    for name, key, masked in (("numkit.matvec", "matvec", True),
                              ("numkit.rmatvec", "rmatvec", True),
                              ("numkit.spmv", "spmv", False)):
        idx = pick(name)
        m[f"numkit.{key}s"] = len(idx)
        m[f"numkit.{key}_s"] = total(idx)
        busy += total(idx)
        for i in idx:
            nnz, n = spans[i][4]
            flops += _flops(nnz, n, masked)
            moved += _bytes(nnz, n, masked)
    m["numkit.flops"] = flops
    m["numkit.bytes_moved"] = moved
    m["numkit.flops_per_byte"] = flops / moved if moved else 0.0
    m["numkit.gbps"] = moved / busy / 1e9 if busy else 0.0
    return m


def _flops(nnz, n, masked):
    # a multiply-add per stored entry; a masked product adds the I - P part
    return 2.0 * nnz + (n if masked else 0.0)


def _bytes(nnz, n, masked):
    """Computed traffic of one CSR product: values and column indices once,
    row offsets, input and output vectors once each (perfect reuse of the
    input vector, no cache misses), plus the 1-byte mask."""
    return 16.0 * nnz + 24.0 * n + (n if masked else 0.0)
