"""Workload-independent pieces of the benchmark.

Stratified seeded draws, the tail-percentile rule, outcome classification,
in-memory spans with self-time arithmetic, the host-speed kernel and the
environment record.
Nothing here imports oscbasis, so the rules can be tested on their own.
"""

from __future__ import annotations

import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

OK, REFUSED, FAILED = "ok", "refused", "failed"

def stratified(rng, count: int) -> list[float]:
    """`count` points in [0, 1), one in each of `count` equal strata, at one
    seeded offset within the strata, in seeded order.

    Every seed gets the same even spread of values, so that order statistics
    of costs that follow them, such as the median and the tail operation,
    move little from seed to seed.
    """
    shift = rng.random()
    order = list(range(count))
    rng.shuffle(order)
    return [(j + shift) / count for j in order]


def log_spread(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) log-uniformly onto [lo, hi)."""
    return lo * (hi / lo) ** u


def tail_percentile(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The value is the order
    statistic with exactly ten samples above it, and the percentile is
    100 * (n - 10) / n.  With ten samples or fewer no percentile has ten
    beyond it; the maximum is returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def classify(*, raised: BaseException | None = None,
             documented: tuple = (), exit_code: int | None = None,
             check_passed: bool | None = None) -> str:
    """Class one operation as ok, refused or failed.

    A documented exception or CLI exit code 2 is a refusal.  Any other
    exception, any other non-zero exit code, or a result that fails its
    check is a failure.  Only a completed operation whose check passed is
    ok; a missing check verdict counts as failed.
    """
    if raised is not None:
        return REFUSED if isinstance(raised, documented) else FAILED
    if exit_code is not None and exit_code != 0:
        return REFUSED if exit_code == 2 else FAILED
    return OK if check_passed else FAILED


def digits(error: float) -> float:
    """-log10 of an absolute error, capped at 16 digits."""
    if not math.isfinite(error):
        return 0.0
    if error <= 1e-16:
        return 16.0
    return -math.log10(error)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "attrs": self.attrs}


class Tracer:
    """Spans kept in memory; disabled tracers record nothing.

    `span` yields a dict of attributes that the caller may fill in either
    way, so timed code has one path whether tracing is on or off.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), math.nan, parent,
                      self.op, attrs)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record.end = time.perf_counter()


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are merged before their coverage is subtracted.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_by_name(spans) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


class HostClock:
    """Host speed, from the time of a fixed kernel run next to operations.

    On a shared host the same code runs up to 1.6 times slower for seconds
    at a time.  The kernel mixes interpreter-bound work on short arrays,
    like the program's recurrences, with a Legendre recurrence and a matmul
    over a few thousand points, like its quadrature; it does not use
    oscbasis.  `sample` times it three times (about 8 ms).  Dividing an
    operation's time by `factor` of the samples taken around it gives its
    time on a host where the kernel takes REF_S, which moves much less from
    run to run than the wall time.
    """

    REF_S = 1.5e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = np.linspace(-1.0, 1.0, 4096)
        self._coeffs = rng.standard_normal((26, 40))
        self._vectors = [rng.standard_normal(n) for n in (8, 64, 256)]
        # large arrays are allocated once, so the kernel's time does not
        # depend on what the allocator did before it
        self._table = np.empty((40, self._x.size))
        self._values = np.empty((26, self._x.size))

    def _kernel(self) -> float:
        np, x, P = self._np, self._x, self._table
        acc = 0.0
        for _ in range(40):
            for v in self._vectors:
                w = np.zeros(v.size + 1)
                w[:-1] += 0.5 * v
                w[1:] -= 0.25 * v
                acc += float(np.dot(w[:-1], v))
        P[0], P[1] = 1.0, x
        for n in range(1, 39):
            P[n + 1] = ((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1)
        np.matmul(self._coeffs, P, out=self._values)
        return acc + float(self._values[0, 0])

    def sample(self) -> list[float]:
        out = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - t0)
        return out

    @classmethod
    def factor(cls, *samples) -> float:
        """How many times slower than the reference the host ran: the median
        kernel time of the samples over REF_S."""
        times = sorted(t for s in samples for t in s)
        mid = len(times) // 2
        return (times[mid] if len(times) % 2 else
                0.5 * (times[mid - 1] + times[mid])) / cls.REF_S


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def cap_threads(env, limit: int) -> int:
    """Cap BLAS and OpenMP threads at `limit` and at nproc in `env`;
    returns the cap.

    Must run before numpy is imported for the cap to reach this process.
    A stricter cap already in the environment is kept.
    """
    cap = min(nproc(), limit)
    for var in THREAD_VARS:
        try:
            cap = min(cap, max(1, int(env[var])))
        except (KeyError, ValueError):
            pass
    for var in THREAD_VARS:
        env[var] = str(cap)
    return cap


def environment_record(thread_cap: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown")},
        "nproc": nproc(),
        "blas_thread_cap": thread_cap,
        "machine": platform.machine(),
    }
