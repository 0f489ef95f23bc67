"""In-memory tracing of the ``endtn`` layers, installed from outside.

``install(tracer)`` replaces every binding of a traced function in the
loaded ``endtn.*`` modules (and the traced methods of ``Universe`` and
``Presentation``) with a wrapper; the source is not changed.  Three kinds
of wrapper exist:

* coarse calls record one span each: name, detail, start, end, parent;
* hot calls add their count and time to a cell keyed by the enclosing
  span, and two of them also keep every call's duration for percentiles;
* the enumeration generators add the time spent inside each ``next``.

Spans live in memory; ``layer_metrics`` turns them into the per-layer
metrics once the run has ended.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT = -1


def _relation(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("relation")


def _verb(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# (module, attribute or Class.method, span name, detail from the arguments)
COARSE = (
    ("endtn.universe", "Universe.__init__", "universe.build", None),
    ("endtn.universe", "Universe.is_two_sided_closed", "universe.is_two_sided_closed", None),
    ("endtn.structure", "green_partition", "structure.green_partition", _relation),
    ("endtn.structure", "extended_partition", "structure.extended_partition", _relation),
    ("endtn.structure", "enumerate_ideals", "structure.enumerate_ideals", None),
    ("endtn.structure", "regular_elements", "structure.regular_elements", None),
    ("endtn.structure", "idempotent_partition", "structure.idempotent_partition", None),
    ("endtn.structure", "abundance_report", "structure.abundance_report", None),
    ("endtn.structure", "principal_ideals", "structure.principal_ideals", None),
    ("endtn.structure", "j_leq", "structure.j_leq", None),
    ("endtn.presentation", "orbits", "presentation.orbits", None),
    ("endtn.presentation", "presentation", "presentation.presentation", None),
    ("endtn.presentation", "verify_generates", "presentation.verify_generates", None),
    ("endtn.cli", "main", "cli.main", _verb),
)
HOT = (
    ("endtn.endomorphisms", "multiply", "endomorphisms.multiply"),
    ("endtn.endomorphisms", "oracle_multiply", "endomorphisms.oracle_multiply"),
    ("endtn.endomorphisms", "identify", "endomorphisms.identify"),
    ("endtn.transformations", "conjugate", "transformations.conjugate"),
    ("endtn.transformations", "compose", "transformations.compose"),
    ("endtn.universe", "Universe.two_sided_ideal", "universe.two_sided_ideal"),
    ("endtn.presentation", "Presentation.theta", "presentation.theta"),
    ("endtn.presentation", "normal_form", "presentation.normal_form"),
)
GENERATORS = (
    ("endtn.endomorphisms", "enumerate_End", "endomorphisms.enumerate_End"),
    ("endtn.pairs", "enumerate_P", "pairs.enumerate_P"),
)
SAMPLED = ("endomorphisms.oracle_multiply", "presentation.normal_form")

GREEN = ("L", "R", "H", "D", "J")
EXTENDED = ("R*", "L*", "H*", "D*", "J*", "R~", "L~", "H~", "D~", "J~")
VERBS = ("green", "extended", "regular", "idempotents", "ideals", "gens")
STRUCTURE_CALLS = (
    "enumerate_ideals",
    "regular_elements",
    "idempotent_partition",
    "abundance_report",
    "principal_ideals",
    "j_leq",
)


def metric_suffix(relation: str) -> str:
    """Metric names admit no ``*`` or ``~``: R* -> Rstar, R~ -> Rtilde."""
    return relation.replace("*", "star").replace("~", "tilde")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, detail, start, end, parent]
        self.stack = [ROOT]
        self.hot: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, s]
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.table_bytes = 0

    @contextmanager
    def span(self, name: str, detail=None):
        index = len(self.spans)
        record = [name, detail, perf_counter(), None, self.stack[-1]]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self.stack.pop()

    def add(self, name: str, seconds: float) -> None:
        key = (name, self.stack[-1])
        cell = self.hot.get(key)
        if cell is None:
            cell = self.hot[key] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    # -- wrappers ----------------------------------------------------------

    def coarse(self, name, fn, detail):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, detail and detail(args, kwargs)):
                return fn(*args, **kwargs)

        return wrapper

    def hot_call(self, name, fn):
        samples = self.samples.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.add(name, elapsed)
                if samples is not None:
                    samples.append(elapsed)

        return wrapper

    def generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.add(name, perf_counter() - start)
                        return
                    self.add(name, perf_counter() - start)
                    yield item

            return timed()

        return wrapper

    def building(self, name, fn):
        """``Universe.__init__`` as a span that also records the table size."""
        wrapped = self.coarse(name, fn, None)

        @functools.wraps(fn)
        def wrapper(universe, *args, **kwargs):
            wrapped(universe, *args, **kwargs)
            self.table_bytes += universe.table.nbytes

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced function in the loaded ``endtn`` modules.

    The submodules are taken from ``sys.modules``: the package rebinds
    ``endtn.presentation`` to the function of that name.
    """
    plan = [(m, a, tracer.hot_call(n, _resolve(m, a))) for m, a, n in HOT]
    plan += [(m, a, tracer.generator(n, _resolve(m, a))) for m, a, n in GENERATORS]
    for module, attr, name, detail in COARSE:
        fn = _resolve(module, attr)
        if attr == "Universe.__init__":
            plan.append((module, attr, tracer.building(name, fn)))
        else:
            plan.append((module, attr, tracer.coarse(name, fn, detail)))
    for module, attr, wrapper in plan:
        original = _resolve(module, attr)
        if "." in attr:
            owner, method = attr.split(".")
            setattr(getattr(sys.modules[module], owner), method, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "endtn" or mod_name.startswith("endtn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


# -- metrics ----------------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), grouped by layer.

    ``extra`` carries what the workload counted itself:
    ``presentation.relations`` and ``cli.output_bytes``.  A layer that a
    workload does not call reads 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent != ROOT:
            child_time[parent] += end - start

    def span_s(name, detail=None):
        return sum(
            end - start
            for n, d, start, end, _ in spans
            if n == name and (detail is None or d == detail)
        )

    def span_calls(name):
        return sum(1 for span in spans if span[0] == name)

    def self_s(prefix):
        return sum(
            (span[3] - span[2]) - child_time[i]
            for i, span in enumerate(spans)
            if span[0].startswith(prefix)
        )

    def hot(name):
        cells = [cell for (n, _), cell in tracer.hot.items() if n == name]
        return sum(c for c, _ in cells), sum(s for _, s in cells)

    out: dict[str, tuple[float, str]] = {}

    def calls_and_s(name, calls, seconds):
        out[name + ".calls"] = (calls, "count")
        out[name + ".s"] = (seconds, "s")

    def percentiles(name, scale, unit):
        durations = tracer.samples[name]
        out[f"{name}.p50_{unit}"] = (_percentile(durations, 50) * scale, unit)
        out[f"{name}.p99_{unit}"] = (_percentile(durations, 99) * scale, unit)

    out["transformations.conjugate.calls"] = (hot("transformations.conjugate")[0], "count")
    out["transformations.compose.calls"] = (hot("transformations.compose")[0], "count")
    out["pairs.enumerate_P_s"] = (hot("pairs.enumerate_P")[1], "s")

    out["endomorphisms.enumerate_End_s"] = (hot("endomorphisms.enumerate_End")[1], "s")
    calls_and_s("endomorphisms.multiply", *hot("endomorphisms.multiply"))
    calls_and_s("endomorphisms.oracle_multiply", *hot("endomorphisms.oracle_multiply"))
    percentiles("endomorphisms.oracle_multiply", 1e6, "us")
    out["endomorphisms.identify.calls"] = (hot("endomorphisms.identify")[0], "count")

    out["universe.build_s"] = (span_s("universe.build"), "s")
    out["universe.table_mb"] = (tracer.table_bytes / 2**20, "MB")
    calls_and_s(
        "universe.is_two_sided_closed",
        span_calls("universe.is_two_sided_closed"),
        span_s("universe.is_two_sided_closed"),
    )
    calls_and_s("universe.two_sided_ideal", *hot("universe.two_sided_ideal"))
    out["universe.self_s"] = (self_s("universe."), "s")

    for rel in GREEN:
        out[f"structure.green_partition.{rel}_s"] = (
            span_s("structure.green_partition", rel), "s")
    for rel in EXTENDED:
        out[f"structure.extended_partition.{metric_suffix(rel)}_s"] = (
            span_s("structure.extended_partition", rel), "s")
    asked = [span[1] for span in spans if span[0] == "structure.extended_partition"]
    out["structure.extended_partition.useful_ratio"] = (
        len(set(asked)) / len(asked) if asked else 0.0, "ratio")
    for name in STRUCTURE_CALLS:
        out[f"structure.{name}_s"] = (span_s(f"structure.{name}"), "s")
    out["structure.self_s"] = (self_s("structure."), "s")

    for name in ("orbits", "presentation", "verify_generates"):
        out[f"presentation.{name}_s"] = (span_s(f"presentation.{name}"), "s")
    out["presentation.relations"] = (extra["presentation.relations"], "count")
    calls_and_s("presentation.theta", *hot("presentation.theta"))
    calls_and_s("presentation.normal_form", *hot("presentation.normal_form"))
    percentiles("presentation.normal_form", 1e3, "ms")
    out["presentation.self_s"] = (self_s("presentation."), "s")

    for verb in VERBS:
        out[f"cli.main.{verb}_s"] = (span_s("cli.main", verb), "s")
    out["cli.self_s"] = (self_s("cli."), "s")
    out["cli.output_bytes"] = (extra["cli.output_bytes"], "count")
    return out


def _label(span: list) -> str:
    name, detail = span[0], span[1]
    return name if detail is None else f"{name}:{detail}"


def top_level(tracer: Tracer) -> list[tuple[str, float]]:
    """(name, seconds) of every span with no parent, in order."""
    return [(_label(span), span[3] - span[2]) for span in tracer.spans if span[4] == ROOT]


def hot_by_parent(tracer: Tracer) -> list[tuple[str, str, int, float]]:
    """(hot call, enclosing span, calls, seconds), the most time first."""
    totals: dict[tuple[str, str], list] = {}
    for (name, parent), (calls, seconds) in tracer.hot.items():
        where = _label(tracer.spans[parent]) if parent != ROOT else "(no span)"
        cell = totals.setdefault((name, where), [0, 0.0])
        cell[0] += calls
        cell[1] += seconds
    rows = [(name, where, calls, s) for (name, where), (calls, s) in totals.items()]
    return sorted(rows, key=lambda row: -row[3])
