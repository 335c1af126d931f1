"""The benchmark's workloads: seeded inputs, one request per ideal, and the
checks every output must pass.

Each workload stresses a different module of trikoszul (see README.md):

- audit-mix: the real `run_audit` path on many small ideals (koszul and
  invariants dominate, the resolution is cheap);
- wide-n: 9-10 generators with a small staircase, so the Taylor resolution
  dominates and the Koszul oracle barely shows;
- deep-dim: few generators with large pure powers over GF(32003), so the
  Koszul model, the homology algebra and the Nakayama walk dominate.

Inputs come from the harness seed only; request k of a run is generated from
its own `random.Random`, so the stream does not depend on how it is chunked.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "audit",
    "classify",
    "fields",
    "generators",
    "invariants",
    "koszul",
    "linalg",
    "monomials",
    "resolution",
)

# Seed of the input stream used to warm up; no measured run uses it.
WARMUP_SEED = -1
# audit-mix request k of harness seed s classifies audit seed
# AUDIT_FIRST_SEED + s * AUDIT_SEED_STRIDE + k, so seed 0 replays
# `trikoszul audit --seed 77` and different seeds never overlap.
AUDIT_FIRST_SEED = 77
AUDIT_SEED_STRIDE = 100_000


class ProgramMissing(RuntimeError):
    """The checkout holds no trikoszul sources next to the benchmark."""


def load_program() -> SimpleNamespace:
    """Import trikoszul afresh from the checkout's src/ directory.

    Earlier imports are dropped first, so each call pays the full import
    cost; set-up is timed several times per run.  Modules are fetched with
    importlib because the package re-exports the function `classify` under
    the name of its module."""
    init = SRC / "trikoszul" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no trikoszul sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trikoszul" or m.startswith("trikoszul.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prog = SimpleNamespace(
        **{m: importlib.import_module(f"trikoszul.{m}") for m in MODULES}
    )
    if Path(prog.classify.__file__).resolve().parent != init.parent.resolve():
        raise ProgramMissing(f"trikoszul was imported from {prog.classify.__file__}")
    return prog


def digest(doc) -> str:
    """Short fingerprint of a JSON document, independent of key order."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Field every reference is built over; deep-dim runs over GF(32003), so its
# reference also checks that both fields give the same report.
REFERENCE_FIELD = "qq"


@dataclass(frozen=True)
class Workload:
    name: str
    # field the timed requests run over
    field: str
    warmup_requests: int
    # a traced run always processes this many requests, so its counters
    # repeat exactly from run to run
    trace_requests: int
    # inputs(prog, seed, start, count) -> items for requests start..start+count-1
    inputs: Callable
    # run(prog, item, field_name) -> output; this is the timed call
    run: Callable
    # check(prog, item, output, captured) -> list of problems, empty when
    # correct; captured is the (ideal, resolution) classify used, or None
    check: Callable
    # to_doc(output) -> the JSON document the reference digests
    to_doc: Callable
    # every run makes at least this many requests, whatever --seconds says
    min_requests: int = 100


# ---------------------------------------------------------------------------
# audit-mix


def _audit_config(prog):
    return prog.generators.GeneratorConfig(
        seed=AUDIT_FIRST_SEED, max_exponent=6, n_range=(4, 8)
    )


def audit_inputs(prog, seed: int, start: int, count: int) -> list[int]:
    first = AUDIT_FIRST_SEED + seed * AUDIT_SEED_STRIDE
    return [first + k for k in range(start, start + count)]


def audit_run(prog, audit_seed: int, field_name: str) -> dict:
    cfg = replace(_audit_config(prog), seed=audit_seed)
    return prog.audit.run_audit(cfg, 1, field=prog.fields.get_field(field_name))


_AUDIT_FAILURE_KINDS = ("error", "sampling_error", "unclassified")


def audit_check(prog, audit_seed: int, doc: dict, captured) -> list[str]:
    problems = []
    if doc["count"] != 1 or sum(doc["classified"].values()) != 1:
        problems.append(f"audit seed {audit_seed}: ideal was not classified")
    for f in doc["findings"]:
        if f["kind"] in _AUDIT_FAILURE_KINDS:
            problems.append(f"audit seed {audit_seed}: {f['kind']} finding")
    if captured is None:
        ideal = prog.generators.random_ideal(replace(_audit_config(prog), seed=audit_seed))
        captured = (ideal, prog.resolution.resolution_for(ideal))
    return problems + _resolution_problems(prog, *captured)


# ---------------------------------------------------------------------------
# classify workloads


def _resolution_problems(prog, ideal, res, betti=None) -> list[str]:
    problems = []
    if not prog.resolution.verify_resolution(res, ideal).all_ok:
        problems.append(f"{ideal}: resolution fails verify_resolution")
    if betti is not None and tuple(betti) != res.betti:
        problems.append(f"{ideal}: report betti {betti} != resolution betti {res.betti}")
    return problems


def classify_run(prog, ideal, field_name: str):
    return prog.classify.classify(ideal, field=prog.fields.get_field(field_name))


def classify_check(prog, ideal, report, captured) -> list[str]:
    """Structural checks that hold for every classified ideal.

    classify itself compares the homology dims with the resolution ranks
    (n, m+n-1, m) and p, r across both routes, and reports Unclassified when
    they disagree, so a non-Unclassified report carries those checks.  The
    resolution classify used (captured, or rebuilt when classify did not
    call resolution_for) is verified on its own."""
    problems = []
    if report.cls.tag == "Unclassified":
        problems.append(f"{ideal}: Unclassified ({report.cls.reason})")
    if report.n != ideal.n or report.mu[0] != report.m:
        problems.append(f"{ideal}: inconsistent report n={report.n} m={report.m} mu={report.mu}")
    res = captured[1] if captured is not None else prog.resolution.resolution_for(ideal)
    return problems + _resolution_problems(prog, ideal, res, report.betti)


def _pures(prog, a: int, b: int, c: int):
    M = prog.monomials.Monomial
    return [M(a, 0, 0), M(0, b, 0), M(0, 0, c)]


def _wide_ideal(prog, rng: random.Random, k: int):
    """Request k of wide-n: a six-request cycle of two generic ideals
    (n = 9 and 10) and four non-generic ones (n = 10, degree 4 and 5)."""
    mono = prog.monomials
    phase = k % 6
    while True:
        if phase in (0, 3):
            n = 9 if phase == 0 else 10
            # x strictly falls and y strictly rises along the mixed chain,
            # so it is an antichain; no positive exponent repeats in any
            # variable, so the ideal is generic
            m = n - 3
            xs = range(m - 1, -1, -1)
            ys = range(m)
            zpos = iter(rng.sample(range(1, m + 1), m))
            zs = [0 if x and y and rng.random() < 0.5 else next(zpos) for x, y in zip(xs, ys)]
            mixed = [mono.Monomial(*e) for e in zip(xs, ys, zs)]
            pure = tuple(top + 1 + rng.randint(0, 1) for top in (m - 1, m - 1, max(zs)))
            want_generic = True
        else:
            n = 10
            d = 4 if phase in (1, 4) else 5
            # distinct monomials of one total degree form an antichain
            cands = [
                mono.Monomial(i, j, d - i - j)
                for i in range(d)
                for j in range(d - i + 1)
                if d - i - j < d and (i > 0) + (j > 0) + (d - i - j > 0) >= 2
            ]
            mixed = rng.sample(cands, n - 3)
            pure = tuple(rng.randint(d, d + 2) for _ in range(3))
            want_generic = False
        ideal = mono.MonomialIdeal.from_monomials(_pures(prog, *pure) + mixed)
        if ideal.n != n or mono.is_generic(ideal) != want_generic:
            continue
        if mono.standard_monomials(ideal).dim <= 150:
            return ideal


def wide_inputs(prog, seed: int, start: int, count: int) -> list:
    return [
        _wide_ideal(prog, random.Random(f"wide-n:{seed}:{k}"), k)
        for k in range(start, start + count)
    ]


def _deep_ideal(prog, rng: random.Random, k: int):
    """Request k of deep-dim: a six-request cycle of n = 5, 6, 7 with dim R
    in [300, 600), then again with dim R in [600, 900]; pure powers 8..12 and
    mixed generators anywhere under them."""
    mono = prog.monomials
    n = 5 + k % 3
    low, high = (300, 599) if k % 6 < 3 else (600, 900)
    while True:
        a, b, c = (rng.randint(8, 12) for _ in range(3))
        mixed = set()
        while len(mixed) < n - 3:
            g = mono.Monomial(rng.randrange(a), rng.randrange(b), rng.randrange(c))
            if len(g.support()) >= 2:
                mixed.add(g)
        ideal = mono.MonomialIdeal.from_monomials(_pures(prog, a, b, c) + sorted(mixed))
        if ideal.n == n and low <= mono.standard_monomials(ideal).dim <= high:
            return ideal


def deep_inputs(prog, seed: int, start: int, count: int) -> list:
    return [
        _deep_ideal(prog, random.Random(f"deep-dim:{seed}:{k}"), k)
        for k in range(start, start + count)
    ]


def _report_doc(report) -> dict:
    return report.to_json()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="audit-mix",
            field="qq",
            warmup_requests=20,
            trace_requests=400,
            inputs=audit_inputs,
            run=audit_run,
            check=audit_check,
            to_doc=lambda doc: doc,
        ),
        Workload(
            name="wide-n",
            field="qq",
            warmup_requests=3,
            trace_requests=100,
            inputs=wide_inputs,
            run=classify_run,
            check=classify_check,
            to_doc=_report_doc,
        ),
        Workload(
            name="deep-dim",
            field="gf32003",
            warmup_requests=3,
            trace_requests=100,
            inputs=deep_inputs,
            run=classify_run,
            check=classify_check,
            to_doc=_report_doc,
        ),
    )
}


REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    """{workload: {"seed": s, "field": f, "digests": [...]}} for the
    default seed; request k of that seed must reproduce digests[k]."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
