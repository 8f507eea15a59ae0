"""In-process traced run: per-layer spans and counts from outside the package.

Spans are recorded by wrapping the names where their caller looks them up
(``vtvrestore.solver.analyze``, ``vtvrestore.cli.write_pgm``, the
``SplitBregman`` methods, ...), so a span nests inside its caller's span and
no call is counted twice.  Nothing in the package is edited; every wrapper is
removed again when its pass ends.

One run makes these passes, all through ``vtvrestore.cli.main`` with
``--jobs 1`` so that every call happens in this process:

1. a counting pass, which is also the warm-up: calls per iteration and the
   ``tracemalloc`` peak of one step.  ``tracemalloc`` slows a step about 2x,
   so it is only ever on in this untimed pass;
2. untraced and traced passes, alternating, until the run's seconds are
   used (at least one of each).  The difference of their ``solve_s`` is the
   tracing overhead.

Import it only after ``workloads.import_program()`` has put ``src`` on the path.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from vtvrestore import cli, frames, image, solver
from workloads import artifact_bytes, check_outputs, parse_rows

#: The step whose allocation peak is measured: the second, so not the first
#: step of the process.
PEAK_STEP = 2
#: Extra energy evaluations on the last solve's result, so that
#: ``solver.energy_ms`` is measured on workloads whose CLI never calls it.
ENERGY_PROBES = 3

# (per-layer metric, span name, self time instead of total time)
SPAN_METRICS = (
    ("solver.step_ms", "solver.step", True),
    ("solver.u_update_ms", "solver.u_update", True),
    ("solver.advance_ms", "solver.advance", True),
    ("frames.analyze_ms", "frames.analyze", False),
    ("diffops.grad_ms", "diffops.grad", False),
    ("diffops.grad_adjoint_ms", "diffops.grad_adjoint", False),
    ("diffops.shrink_ms", "diffops.shrink", False),
    ("image.conv_adjoint_ms", "image.conv_adjoint", False),
    ("image.solve_diagonal_ms", "image.solve_diagonal", False),
    ("solver.energy_ms", "solver.energy", False),
    ("solver.init_ms", "solver.init", False),
    ("degrade.apply_ms", "degrade.apply", False),
    ("fileio.read_ms", "fileio.read", False),
    ("fileio.write_ms", "fileio.write", False),
    ("cli.process_one_self_ms", "cli.process_one", True),
)


def span_points():
    """(owner, attribute, span name) for every traced call site."""
    sb = solver.SplitBregman
    return [
        (cli, "_process_one", "cli.process_one"),
        (cli, "read_image", "fileio.read"),
        (cli, "apply_degradation", "degrade.apply"),
        (cli, "solve", "solver.solve"),
        (cli, "write_pgm", "fileio.write"),
        (cli, "write_trace_csv", "fileio.write_trace"),
        (cli, "analyze", "frames.analyze"),
        (solver, "energy", "solver.energy"),
        (sb, "__init__", "solver.init"),
        (sb, "step", "solver.step"),
        (sb, "u_update", "solver.u_update"),
        (sb, "advance", "solver.advance"),
        (solver, "analyze", "frames.analyze"),
        (solver, "grad", "diffops.grad"),
        (solver, "grad_adjoint", "diffops.grad_adjoint"),
        (solver, "shrink", "diffops.shrink"),
        (solver, "shrink_iso", "diffops.shrink"),
        (solver, "conv_adjoint", "image.conv_adjoint"),
        (solver, "solve_diagonal", "image.solve_diagonal"),
    ]


class Tracer:
    """Keeps one span per wrapped call in memory.

    A span is ``[name, start, end, parent, request]``: times from
    ``time.perf_counter``, ``parent`` the index of the enclosing span (or
    None) and ``request`` the index of the outermost one, so all spans of one
    image share it.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else None
            span = [name, clock(), None, parent, index if parent is None else spans[parent][4]]
            spans.append(span)
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def durations(self) -> dict:
        """Span name -> list of (total, self) seconds, one entry per span."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = collections.defaultdict(list)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            out[name].append((end - start, end - start - covered[index]))
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.name = value`` for each triple; restore all on exit."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@dataclass
class Pass:
    kind: str
    wall: float
    rows: list
    problems: list
    digests: dict = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        return sum(r["seconds"] for r in self.rows)


def _cli_pass(kind, wl, inputs, out_dir, seed) -> Pass:
    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(wl.cli_args(inputs, out_dir, seed, jobs=1))
    wall = time.perf_counter() - start
    rows = parse_rows(buf.getvalue())
    problems, digests = check_outputs(wl, code, rows, inputs, out_dir)
    return Pass(kind, wall, rows, problems, digests)


def _count_pass(wl, inputs, out_dir, seed):
    """Warm-up pass that counts calls per iteration and one step's allocation peak."""
    counts = collections.Counter()
    inside = [0]  # > 0 while a step or an energy evaluation runs

    def per_iteration(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            inside[0] += 1
            measure = key == "steps" and counts[key] == PEAK_STEP
            if measure:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if measure:
                    counts["step_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                inside[0] -= 1
        return wrapper

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside[0]:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    replacements = [
        (solver.SplitBregman, "step", per_iteration("steps", solver.SplitBregman.step)),
        (solver, "energy", per_iteration("energy", solver.energy)),
        (solver, "analyze", counted("analyze", solver.analyze)),
    ]
    # conv_circular is the primitive behind analyze, conv_adjoint and blur.
    replacements += [(module, "conv_circular", counted("conv", module.conv_circular))
                     for module in (frames, image, solver)]
    with patched(replacements):
        result = _cli_pass("count", wl, inputs, out_dir, seed)
    steps = max(counts["steps"], 1)
    metrics = {
        "frames.analyze_calls_per_iter": counts["analyze"] / steps,
        "image.conv_calls_per_iter": counts["conv"] / steps,
        "solver.step_alloc_peak_mb": counts["step_peak_bytes"] / 2**20,
        "fileio.bytes_written": artifact_bytes(out_dir) / wl.images,
    }
    return result, metrics


def _traced_pass(tracer, wl, inputs, out_dir, seed):
    last = {}

    def keep_last(fn):
        @functools.wraps(fn)
        def solve_and_keep(f, op, bank, cfg):
            result = fn(f, op, bank, cfg)
            last["energy_args"] = (result.u, f, op, bank, cfg)
            return result
        return solve_and_keep

    replacements = []
    for owner, attr, name in span_points():
        if not hasattr(owner, attr):
            continue
        fn = getattr(owner, attr)
        if (owner, attr) == (cli, "solve"):
            fn = keep_last(fn)
        replacements.append((owner, attr, tracer.wrap(name, fn)))
    with patched(replacements):
        result = _cli_pass("traced", wl, inputs, out_dir, seed)
        if "energy_args" in last:
            for _ in range(ENERGY_PROBES):
                solver.energy(*last["energy_args"])
    return result


def missing_points() -> list:
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in span_points()
            if not hasattr(o, a)]


def run(wl, inputs, work: Path, seed: int, seconds: float):
    """All passes of one traced run.

    Returns ``(passes, metrics, tracer)``; the metrics are the count metrics,
    the span medians in ms and ``trace.overhead_pct``.
    """
    out_dir = work / "out"
    count, metrics = _count_pass(wl, inputs, out_dir, seed)
    passes = [count]
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        passes.append(_cli_pass("untraced", wl, inputs, out_dir, seed))
        passes.append(_traced_pass(tracer, wl, inputs, out_dir, seed))
        pair = passes[-1].wall + passes[-2].wall
        if time.perf_counter() - start + pair > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    durations = tracer.durations()
    for metric, name, use_self in SPAN_METRICS:
        values = [d[1] if use_self else d[0] for d in durations.get(name, [])]
        metrics[metric] = statistics.median(values) * 1e3 if values else 0.0
    untraced = statistics.median([p.solve_s for p in passes if p.kind == "untraced"])
    traced = statistics.median([p.solve_s for p in passes if p.kind == "traced"])
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0 if untraced else 0.0
    return passes, metrics, tracer

