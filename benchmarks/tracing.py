"""Per-layer tracing from outside the program.

The traced run replaces, for its duration, the names each trikoszul module
imported from another module (for example `resolution_for` inside
`trikoszul.classify`) with wrappers that open a span.  A span stack gives
self time: a span's duration minus the time its child spans cover.  Spans of
one request share a trace id.  Work counters are read at the same
boundaries: from the objects the wrapped calls return, from subclasses of
the linear-algebra classes, and from a field proxy that counts arithmetic.

Field arithmetic is counted in a pass of its own, because the proxy's
cost per operation would inflate the self time of the linear algebra.
Nothing under src/ is edited: the replacements hold only inside a `with`
block, and leaving it puts every original name back.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span stack with self-time accounting and work counters."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # self time of the current request, until commit() scales it
        self.pending: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (trace id, name, parent, start, end)
        self.trace_id = 0
        # time spent computing counters; subtracted from every clock reading
        # so that no span is charged for it
        self.excluded = 0.0

    def now(self) -> float:
        return perf_counter() - self.excluded

    def enter(self, name: str) -> None:
        self.stack.append([name, self.now(), 0.0])

    def exit(self, record: bool = True) -> float:
        name, start, children = self.stack.pop()
        end = self.now()
        duration = end - start
        self.pending[name] += duration - children
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if record:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append((self.trace_id, name, parent, start, end))
        return duration

    def commit(self, factor: float) -> None:
        """Add the pending self times, scaled by factor, to the totals."""
        for name, seconds in self.pending.items():
            self.self_s[name] += seconds * factor
        self.pending.clear()

    def request(self, fn, *args):
        """One request as the root span of a new trace; returns
        (result, error, seconds)."""
        self.trace_id += 1
        self.enter("harness")
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failing request is counted, not fatal
            result, error = None, exc
        return result, error, self.exit()

    def wrap(self, name: str, fn, after=None, record: bool = True):
        """fn inside a span called name; after(result, args) updates counters
        off the clock."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(record)
            if after is not None:
                t0 = perf_counter()
                after(result, args)
                tracer.excluded += perf_counter() - t0
            return result

        return traced


class CountingField:
    """Forwards every operation to a coefficient field and counts them."""

    def __init__(self, base, counts: Counter):
        self._base = base
        self._counts = counts
        self.name = base.name
        self.characteristic = base.characteristic
        self.zero = base.zero
        self.one = base.one

    def _op(self):
        self._counts["fields.ops"] += 1

    def of_int(self, k):
        self._op()
        return self._base.of_int(k)

    def of_fraction(self, f):
        self._op()
        return self._base.of_fraction(f)

    def add(self, a, b):
        self._op()
        return self._base.add(a, b)

    def sub(self, a, b):
        self._op()
        return self._base.sub(a, b)

    def mul(self, a, b):
        self._op()
        return self._base.mul(a, b)

    def neg(self, a):
        self._op()
        return self._base.neg(a)

    def inv(self, a):
        self._op()
        return self._base.inv(a)

    def is_zero(self, a):
        self._op()
        return self._base.is_zero(a)

    def __repr__(self):
        return repr(self._base)


def _traced_linalg_classes(prog, tracer: Tracer, walks: Counter):
    """Subclasses of Echelon and SpanWithCoords whose work runs in the
    linalg span.  Echelon.insert calls are counted, and so are the Echelons
    built while a graded Nakayama walk is open (walks["open"] > 0): the walk
    builds one per degree it visits."""

    class Echelon(prog.linalg.Echelon):
        def __init__(self, *args, **kwargs):
            if walks["open"]:
                tracer.counts["invariants.nakayama_degrees"] += 1
            super().__init__(*args, **kwargs)

        def insert(self, vec):
            tracer.counts["linalg.echelon_inserts"] += 1
            tracer.enter("linalg.ms")
            try:
                return super().insert(vec)
            finally:
                tracer.exit(record=False)

    class SpanWithCoords(prog.linalg.SpanWithCoords):
        pass

    for method in ("seed", "add_tagged", "express"):
        setattr(
            SpanWithCoords,
            method,
            tracer.wrap("linalg.ms", getattr(prog.linalg.SpanWithCoords, method), record=False),
        )
    return Echelon, SpanWithCoords


class Patches:
    """Attribute replacements in the program's modules, applied on entering
    a `with` block and undone on leaving it; reusable."""

    def __init__(self):
        self._replacements: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, value) -> None:
        self._replacements.append((module, attr, value))

    def __enter__(self):
        for module, attr, value in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class ResolutionCapture(Patches):
    """Keeps the resolution `classify` built for the last request, so that
    the output check verifies the resolution behind the answer instead of
    rebuilding it.  Used in untraced runs: it times nothing and adds one
    function call to each request."""

    def __init__(self, prog):
        super().__init__()
        self.last = None
        original = prog.classify.resolution_for

        def capture(ideal, *args, **kwargs):
            self.last = (ideal, original(ideal, *args, **kwargs))
            return self.last[1]

        self.patch(prog.classify, "resolution_for", capture)

    def take(self):
        """(ideal, resolution) of the last request, or None; clears it."""
        last, self.last = self.last, None
        return last


class FieldCounting(Patches):
    """Hands out a CountingField wherever the program or the harness looks
    a field up by name: `trikoszul.fields.get_field` and the name
    `trikoszul.audit` imported, which `_audit_one` calls."""

    def __init__(self, prog, base_field):
        super().__init__()
        self.counts: Counter[str] = Counter()
        field = CountingField(base_field, self.counts)
        for module in (prog.fields, prog.audit):
            self.patch(module, "get_field", lambda name: field)


class Instrumentation(Patches):
    """Wraps the calls across module boundaries in the tracer's spans."""

    def __init__(self, prog, tracer: Tracer):
        super().__init__()
        t = tracer
        count = t.counts

        def span(module, attr, name, after=None):
            self.patch(module, attr, t.wrap(name, getattr(module, attr), after))

        def resolution_call(res, args):
            count["resolution.calls"] += 1

        def taylor(res, args):
            count["resolution.taylor_faces"] += 2 ** args[0].n - 1
            count["resolution.taylor_calls"] += 1

        def scarf(res, args):
            count["resolution.scarf_calls"] += 1

        def model(res, args):
            count["koszul.dim_R_total"] += res.dim

        def algebra(res, args):
            count["koszul.a2_basis_total"] += len(res.a2)

        def kernel_call(res, args):
            count["linalg.kernel_basis_calls"] += 1

        def audit_recompute(res, args):
            count["resolution.calls"] += 1
            count["audit.resolution_recomputes"] += 1

        def findings(doc, args):
            count["audit.findings"] += len(doc["findings"])

        cm, km, im, rm, am = prog.classify, prog.koszul, prog.invariants, prog.resolution, prog.audit
        for module in (cm, km, im):
            span(module, "standard_monomials", "monomials.staircase_ms")
        span(cm, "resolution_for", "resolution.ms", resolution_call)
        span(rm, "build_resolution", "resolution.ms", taylor)
        span(rm, "scarf_resolution", "resolution.ms", scarf)
        span(cm, "build_koszul_model", "koszul.model_ms", model)
        span(cm, "build_homology_algebra", "koszul.algebra_ms", algebra)
        span(km, "homology_dims", "koszul.homology_dims_ms")
        for module, names in (
            (cm, ("rank_a1_squared", "rank_a1_a2", "rank_delta2", "truncated_exterior_check")),
            (km, ("rank_a1_squared",)),
        ):
            for attr in names:
                span(module, attr, "koszul.ranks_ms")
        span(cm, "count_p_structural", "invariants.p_struct_ms")
        span(cm, "bass_mu0_mu1", "invariants.bass_ms")
        walks: Counter[str] = Counter()  # graded_minimal_generators calls open
        walk = t.wrap("invariants.bass_ms", im.graded_minimal_generators)

        @functools.wraps(walk)
        def nakayama_walk(*args, **kwargs):
            walks["open"] += 1
            try:
                return walk(*args, **kwargs)
            finally:
                walks["open"] -= 1

        self.patch(im, "graded_minimal_generators", nakayama_walk)
        span(cm, "audit_conjectures", "classify.audit_conjectures_ms")
        echelon, span_with_coords = _traced_linalg_classes(prog, t, walks)
        for module in (km, im):
            self.patch(module, "Echelon", echelon)
            self.patch(
                module,
                "kernel_basis",
                t.wrap("linalg.ms", module.kernel_basis, kernel_call, record=False),
            )
        self.patch(km, "SpanWithCoords", span_with_coords)
        classify_fn = t.wrap("classify.self_ms", cm.classify)
        self.patch(cm, "classify", classify_fn)
        self.patch(am, "classify", classify_fn)
        span(am, "random_ideal", "generators.sample_ms")
        span(am, "resolution_for", "resolution.ms", audit_recompute)
        span(am, "run_audit", "audit.self_ms", findings)


# the span names, which are also the per-layer time metrics: self time in
# ms, normalized, summed over the traced requests
TIME_METRICS = (
    "monomials.staircase_ms",
    "generators.sample_ms",
    "resolution.ms",
    "koszul.model_ms",
    "koszul.algebra_ms",
    "koszul.homology_dims_ms",
    "koszul.ranks_ms",
    "invariants.bass_ms",
    "invariants.p_struct_ms",
    "linalg.ms",
    "classify.self_ms",
    "classify.audit_conjectures_ms",
    "audit.self_ms",
)


def layer_metrics(
    tracer: Tracer, field_ops: int, ideals: int, traced_s: float, untraced_s: float
) -> dict:
    """The per-layer metrics of a traced run, as {name: (value, unit)}."""
    c = tracer.counts
    out = {name: (tracer.self_s[name] * 1e3, "ms") for name in TIME_METRICS}
    attributed = sum(tracer.self_s[name] for name in TIME_METRICS)
    resolutions = c["resolution.taylor_calls"] + c["resolution.scarf_calls"]
    out.update(
        {
            "monomials.staircase_calls_per_ideal": (
                tracer.calls["monomials.staircase_ms"] / ideals,
                "calls/ideal",
            ),
            "resolution.calls_per_ideal": (c["resolution.calls"] / ideals, "calls/ideal"),
            "resolution.taylor_faces": (c["resolution.taylor_faces"], "count"),
            "resolution.scarf_share": (
                c["resolution.scarf_calls"] / resolutions if resolutions else 0.0,
                "ratio",
            ),
            "koszul.dim_R_total": (c["koszul.dim_R_total"], "count"),
            "koszul.a2_basis_total": (c["koszul.a2_basis_total"], "count"),
            "invariants.nakayama_degrees": (c["invariants.nakayama_degrees"], "count"),
            "linalg.echelon_inserts": (c["linalg.echelon_inserts"], "count"),
            "linalg.kernel_basis_calls": (c["linalg.kernel_basis_calls"], "count"),
            "fields.ops": (field_ops, "count"),
            "audit.findings": (c["audit.findings"], "count"),
            "audit.resolution_recomputes": (c["audit.resolution_recomputes"], "count"),
            "trace.total_ms": (traced_s * 1e3, "ms"),
            "trace.attributed_frac": (attributed / traced_s, "ratio"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }
    )
    return out
