"""Spans around calls into tanglegcd's layers, kept in memory.

The benchmark calls each layer's public functions through ``tracer.call``.
Untraced runs use :class:`NullTracer`, which only forwards the call.  Traced
runs use :class:`Tracer`, which records one span per call (name, parent,
operation, start, end, raised) and the work counters computed from what the
call returned.  Nothing inside the package is instrumented: spans inside
``cli.main`` come from rebinding the layer functions that ``tanglegcd.cli``
imported, for the duration of :func:`traced_cli` only.
"""

from __future__ import annotations

import builtins
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LIBRARY_LAYERS = ("rationals", "euclid", "enumeration", "tangles")


class NullTracer:
    """Forwards every call; the untraced runs pay one extra Python call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, amount):
        pass


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self):
        # [name, parent index, operation index, start, end, raised]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        operation = self.spans[self._open[0]][2] if self._open else index
        span = [name, parent, operation, 0.0, 0.0, False]
        self.spans.append(span)
        self._open.append(index)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span[5] = True
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            span[4] = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self, result, args)
        return result

    def add(self, name, amount):
        self.counts[name] += amount

    def raise_to(self, name, value):
        if value > self.counts[name]:
            self.counts[name] = value

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (duration minus children) and calls."""
        children = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        seconds: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for index, (name, _, _, start, end, _) in enumerate(self.spans):
            seconds[name] += end - start - children[index]
            calls[name] += 1
        return dict(seconds), dict(calls)

    def write(self, path) -> None:
        """One JSON array per line: name, parent, operation, start, end, raised."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _value_digits(values) -> int:
    largest = max((max(abs(v.numerator), v.denominator) for v in values), default=0)
    return len(str(largest))


def _twist_runs(tracer, moves) -> None:
    """Count twist moves and maximal runs of one twist direction (stages)."""
    twists = runs = 0
    previous = None
    for move in moves:
        if move.value == "R":
            previous = None
            continue
        twists += 1
        if move is not previous:
            runs += 1
        previous = move
    tracer.add("tangles.stage_twists", twists)
    tracer.add("tangles.stages", runs)


def _trace_work(tracer, trace, args) -> None:
    tracer.add("euclid.divisions", len(trace.steps))
    tracer.add("euclid.subtractions", sum(step.quotient for step in trace.steps))


def _parse_fraction(tracer, value, args) -> None:
    tracer.add("rationals.digits_parsed", sum(ch.isdigit() for ch in args[0]))
    tracer.raise_to("rationals.value_digits_max", _value_digits([value]))


def _minimize(tracer, result, args) -> None:
    tracer.add("enumeration.traces_examined", result.traces_examined)


def _enumerate_all(tracer, traces, args) -> None:
    tracer.add("enumeration.traces_listed", len(traces))


def _plan_untangle(tracer, plan, args) -> None:
    tracer.add("tangles.moves_planned", len(plan.moves))
    _twist_runs(tracer, plan.moves)


def _parse_moves(tracer, moves, args) -> None:
    tracer.add("tangles.tokens_parsed", len(moves))
    _twist_runs(tracer, moves)


def _replayed(tracer, report, args) -> None:
    tracer.add("tangles.moves_replayed", len(report.values) - 1)
    tracer.raise_to("rationals.value_digits_max", _value_digits(report.values))


def _tangle_number(tracer, value, args) -> None:
    tracer.add("tangles.moves_replayed", len(args[0]))
    tracer.raise_to("rationals.value_digits_max", _value_digits([value]))


# Work counters, keyed by the span whose returned object they are read from.
COUNTERS = {
    "euclid.run_regular": _trace_work,
    "euclid.run_lar": _trace_work,
    "euclid.run_negative": _trace_work,
    "rationals.parse_fraction": _parse_fraction,
    "enumeration.minimize": _minimize,
    "enumeration.enumerate_all": _enumerate_all,
    "tangles.plan_untangle": _plan_untangle,
    "tangles.parse_moves": _parse_moves,
    "tangles.replay": _replayed,
    "tangles.verify_plan": _replayed,
    "tangles.tangle_number": _tangle_number,
}


class _TracedJson:
    """Stands in for the `json` module inside tanglegcd.cli."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, *args, **kwargs):
        return self._tracer.call("cli.render", json.dumps, *args, **kwargs)


def _span_wrapper(tracer, name, fn):
    def materialized(*args, **kwargs):
        # A lazy result (enumerate_all's generator) is drained inside the
        # span, so the walk is timed where it is produced.
        result = fn(*args, **kwargs)
        return list(result) if inspect.isgenerator(result) else result

    def wrapper(*args, **kwargs):
        return tracer.call(name, materialized, *args, **kwargs)

    return wrapper


def _layer(fn):
    """The layer a package function belongs to, or None."""
    if isinstance(fn, type) or not callable(fn):
        return None
    package, _, layer = (getattr(fn, "__module__", None) or "").rpartition(".")
    return layer if package == "tanglegcd" and layer in LIBRARY_LAYERS else None


@contextmanager
def traced_cli(tracer, cli):
    """Rebind, inside the `cli` module, every layer function it imported.

    Dispatch tables of layer functions are copied with wrapped entries too.
    Also spans `build_parser` and rendering (`json.dumps` and `print`).  The
    original bindings are restored on exit.
    """
    def wrap(fn):
        layer = _layer(fn)
        return _span_wrapper(tracer, f"{layer}.{fn.__name__}", fn) if layer else fn

    replaced = {"build_parser": _span_wrapper(tracer, "cli.build_parser", cli.build_parser)}
    for name, value in vars(cli).items():
        if isinstance(value, dict) and any(_layer(v) for v in value.values()):
            replaced[name] = {key: wrap(v) for key, v in value.items()}
        elif not name.startswith("_") and _layer(value):
            replaced[name] = wrap(value)
    replaced["json"] = _TracedJson(tracer)
    replaced["print"] = lambda *a, **k: tracer.call("cli.render", builtins.print, *a, **k)
    saved = {name: vars(cli)[name] for name in replaced if name in vars(cli)}
    try:
        for name, value in replaced.items():
            setattr(cli, name, value)
        yield
    finally:
        for name in replaced:
            if name in saved:
                setattr(cli, name, saved[name])
            else:
                delattr(cli, name)
