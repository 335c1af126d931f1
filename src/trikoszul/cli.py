"""Command-line front end.

Subcommands: classify, resolve, homology, bass, corpus, audit, family.
Exit codes: 0 success/classified, 2 Unclassified, 1 input or corpus error,
3 an internal invariant check failed (a bug, reported in one error line);
usage errors (an unknown option, a bad option value, no subcommand) are input
errors and exit 1 with argparse's usage and error lines; --help exits 0.
Identical invocations (including seeds) produce byte-identical JSON output
up to the timings field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .audit import run_audit
from .classify import (
    canonical_betti_oracle,
    classify,
    family_bclass,
    family_staircase,
    family_tnongen,
)
from .corpus import load_corpus, run_corpus
from .errors import (
    DimensionCapError,
    FamilyConstraintError,
    IdealParseError,
    InternalInvariantError,
    NonGenericError,
    NotArtinianError,
)
from .fields import get_field
from .generators import GeneratorConfig
from .koszul import (
    build_homology_algebra,
    build_koszul_model,
    rank_a1_a2,
    rank_a1_squared,
    rank_delta2,
)
from .monomials import Monomial, parse_ideal
from .resolution import resolution_for, verify_resolution

_INPUT_ERRORS = (
    IdealParseError,
    NotArtinianError,
    DimensionCapError,
    NonGenericError,
    FamilyConstraintError,
    ValueError,
)

_E_NAMES = {1: ("e1", "e2", "e3"), 2: ("e12", "e13", "e23"), 3: ("e123",)}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _series_str(series) -> str:
    def poly(coeffs):
        parts = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            term = "t" if k == 1 else f"t^{k}" if k > 1 else ""
            mag = "" if abs(c) == 1 and k > 0 else str(abs(c))
            body = f"{mag}{term}" if term else str(abs(c))
            parts.append(("- " if c < 0 else "+ " if parts else "") + body)
        return " ".join(parts) if parts else "0"

    return f"({poly(series.numerator)}) / ({poly(series.denominator)})"


def _print_report(report, as_json: bool, timings_ms: dict) -> None:
    if as_json:
        doc = report.to_json()
        doc["timings_ms"] = timings_ms
        print(json.dumps(doc, indent=2))
        return
    print(f"ideal: {report.ideal}")
    print(
        f"n={report.n} m={report.m} l={report.l} betti={report.betti} dim_R={report.dim}"
    )
    print(f"generic: {'yes' if report.generic else 'no'}")
    print(f"p={report.p} q={report.q} r={report.r} rhat={report.rhat}")
    print(f"class: {report.cls.display()}   golod: {'yes' if report.golod else 'no'}")
    if report.bass is not None:
        print(f"bass series: {_series_str(report.bass)}")
    print("mu: " + ", ".join(str(v) for v in report.mu))
    if report.audit is not None:
        a = report.audit
        print(
            "audit: ires_pure_power={} ires_mu1={} compclass_match={}".format(
                a.ires_pure_power, a.ires_mu1, a.compclass_match
            )
        )
    for note in report.diagnostics:
        print(f"note: {note}")


def _entry_str(scalar, mono: Monomial) -> str:
    if scalar == 0:
        return "0"
    sign = "-" if scalar < 0 else ""
    mag = abs(scalar)
    body = str(mono)
    if mag != 1:
        body = f"{mag}*{body}" if body != "1" else str(mag)
    elif body == "1":
        body = "1"
    return sign + body


def _print_matrix_text(name: str, mat) -> None:
    print(f"{name} ({mat.rows} x {mat.cols}):")
    cells = []
    for r in range(mat.rows):
        row = []
        for c in range(mat.cols):
            s = mat.entries.get((r, c))
            row.append("0" if s is None else _entry_str(s, mat.monomial_at(r, c)))
        cells.append(row)
    widths = [
        max(len(cells[r][c]) for r in range(mat.rows)) for c in range(mat.cols)
    ]
    for row in cells:
        print("[ " + "  ".join(v.rjust(w) for v, w in zip(row, widths)) + " ]")


def _cmd_classify(args) -> int:
    t0 = time.perf_counter()
    try:
        ideal = parse_ideal(args.ideal)
        report = classify(
            ideal,
            field=get_field(args.field),
            dim_cap=args.dim_cap,
            mu_terms=args.mu_terms,
        )
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    timings = {"total": round((time.perf_counter() - t0) * 1000.0, 3)}
    _print_report(report, args.json, timings)
    return 2 if report.cls.tag == "Unclassified" else 0


def _cmd_resolve(args) -> int:
    try:
        ideal = parse_ideal(args.ideal)
        res = resolution_for(ideal)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    if args.format == "json":
        doc = res.to_json()
        doc["checks"] = verify_resolution(res, ideal).to_json()
        print(json.dumps(doc, indent=2))
    else:
        print(f"ideal: {ideal}")
        print(f"betti: {res.betti}")
        for name, mat in (("f1", res.f1), ("f2", res.f2), ("f3", res.f3)):
            _print_matrix_text(name, mat)
        checks = verify_resolution(res, ideal)
        print(f"checks: {checks.to_json()}")
    return 0


def _label_str(vec, model) -> str:
    parts = []
    for comp, u in sorted(vec):
        s = vec[(comp, u)]
        mono = model.r_basis.monomials[u]
        prefix = "-" if s == -1 else "" if s == 1 else f"{s}*"
        parts.append(f"{prefix}{mono}*{_E_NAMES[2][comp]}")
    return " + ".join(parts).replace("+ -", "- ")


def _cmd_homology(args) -> int:
    try:
        ideal = parse_ideal(args.ideal)
        field = get_field(args.field)
        model = build_koszul_model(ideal, field, args.dim_cap)
        alg = build_homology_algebra(model)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    print(f"ideal: {ideal}")
    print(f"dims: A1={alg.dims[0]} A2={alg.dims[1]} A3={alg.dims[2]}")
    print(
        f"p = rank(A1^2) = {rank_a1_squared(alg)}   "
        f"q = rank(A1.A2) = {rank_a1_a2(alg)}   "
        f"r = rank(delta_2) = {rank_delta2(alg)}"
    )
    if args.show_tables:
        labels1 = [
            f"{mono}*{_E_NAMES[1][comp]}" for mono, comp in alg.a1_labels
        ]
        print("A1 generators: " + ", ".join(labels1))
        print("A1 * A1 (entries are A2-class coordinates):")
        for i in range(len(alg.a1)):
            row = []
            for j in range(len(alg.a1)):
                if i == j:
                    row.append("0")
                    continue
                key = (min(i, j), max(i, j))
                coords = alg.mult_11.get(key, {})
                if not coords:
                    row.append("0")
                else:
                    sign = "-" if i > j else ""
                    row.append(
                        sign
                        + "+".join(f"{s}*[A2_{b}]" for b, s in sorted(coords.items()))
                    )
            print(f"  {labels1[i]:>16s} | " + "  ".join(row))
        print("A2 basis:")
        for b, vec in enumerate(alg.a2):
            print(f"  A2_{b} = {_label_str(vec, model)}")
        print("A1 * A2 (entries are A3 socle coordinates):")
        socle = [str(model.r_basis.monomials[u]) for u in alg.a3]
        print("  A3 socle basis: " + ", ".join(socle))
        for b in range(len(alg.a2)):
            row = []
            for i in range(len(alg.a1)):
                coords = alg.mult_12.get((i, b), {})
                row.append(
                    "0"
                    if not coords
                    else "+".join(f"{s}*[{socle[k]}]" for k, s in sorted(coords.items()))
                )
            print(f"  A2_{b} | " + "  ".join(row))
    return 0


def _cmd_bass(args) -> int:
    try:
        ideal = parse_ideal(args.ideal)
        field = get_field(args.field)
        report = classify(ideal, field=field, dim_cap=args.dim_cap, mu_terms=args.terms)
        oracle = (
            canonical_betti_oracle(ideal, args.oracle, field, args.dim_cap)
            if args.oracle >= 0
            else None
        )
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    print(f"ideal: {ideal}")
    print(f"class: {report.cls.display()}")
    if report.bass is not None:
        print(f"bass series: {_series_str(report.bass)}")
        print("mu expansion: " + ", ".join(str(v) for v in report.mu))
    else:
        print("bass series: none tabulated for this class")
    if oracle is not None:
        print("betti oracle (canonical module): " + ", ".join(str(v) for v in oracle))
    return 2 if report.cls.tag == "Unclassified" else 0


def _cmd_corpus(args) -> int:
    try:
        entries = load_corpus(args.path)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    results = run_corpus(entries, field=get_field(args.field))
    bad = [r for r in results if not r.ok]
    if args.json:
        doc = {
            "entries": len(results),
            "mismatches": [
                {
                    "name": r.entry.name,
                    "ideal": r.entry.ideal_text,
                    "error": r.error,
                    "mismatches": list(r.mismatches),
                }
                for r in bad
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            status = "ok" if r.ok else "MISMATCH"
            detail = "" if r.ok else " | " + (r.error or "; ".join(r.mismatches))
            got = r.report.cls.display() if r.report else "-"
            print(f"{status:8s} {r.entry.name:18s} {got:8s}{detail}")
        print(f"{len(results)} entries, {len(bad)} mismatches")
    return 1 if bad else 0


def _cmd_audit(args) -> int:
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            max_exponent=args.max_exponent,
            n_range=(args.n_min, args.n_max),
            generic_only=args.generic_only,
        )
        doc = run_audit(cfg, args.count, field=get_field(args.field), jobs=args.jobs)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(
            f"audited {doc['count']} ideals, {len(doc['findings'])} findings -> {args.out}"
        )
    else:
        print(text)
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        a, _, b = part.partition(":")
        pairs.append((int(a), int(b)))
    return pairs


def _cmd_family(args) -> int:
    try:
        if args.kind == "bclass":
            a_list = [int(v) for v in args.alist.split(",")]
            b_list = [int(v) for v in args.blist.split(",")]
            ideal = family_bclass(args.a, args.b, args.c, args.cprime, a_list, b_list)
        elif args.kind == "tnongen":
            ideal = family_tnongen(
                args.a, args.b, args.c, args.cprime, _parse_pairs(args.pairs)
            )
        else:
            ideal = family_staircase(args.a, args.b, args.c, _parse_pairs(args.pairs))
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    print(f"ideal: {ideal}")
    if args.classify:
        report = classify(ideal, field=get_field(args.field), dim_cap=args.dim_cap)
        _print_report(report, args.json, {})
        return 2 if report.cls.tag == "Unclassified" else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trikoszul",
        description=(
            "Koszul algebra classification for m-primary monomial ideals in k[x,y,z]"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # shared options; each subcommand takes only the ones it reads
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default="qq", choices=("qq", "gf32003"))
    dim_cap = argparse.ArgumentParser(add_help=False)
    dim_cap.add_argument("--dim-cap", type=int, default=20000)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "classify",
        parents=[field, dim_cap, as_json],
        help="classify an ideal and print the report",
    )
    p.add_argument("ideal", help='e.g. "x^3, x^2*y, y^3, z^3, x^2*z^2"')
    p.add_argument("--mu-terms", type=int, default=5)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("resolve", help="print the minimal free resolution")
    p.add_argument("ideal")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser(
        "homology", parents=[field, dim_cap], help="Koszul homology dims and ranks"
    )
    p.add_argument("ideal")
    p.add_argument("--show-tables", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser(
        "bass", parents=[field, dim_cap], help="Bass series and expansion"
    )
    p.add_argument("ideal")
    p.add_argument("--terms", type=int, default=6)
    p.add_argument(
        "--oracle", type=int, default=-1, help="also run the Betti oracle to this depth"
    )
    p.set_defaults(func=_cmd_bass)

    p = sub.add_parser(
        "corpus", parents=[field, as_json], help="run the regression corpus"
    )
    p.add_argument("path", nargs="?", default=None)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser(
        "audit",
        parents=[field],
        help="classify seeded random ideals, audit conjectures",
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-exponent", type=int, default=6)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--generic-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="bounded worker pool size")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "family", parents=[field, dim_cap, as_json], help="emit a theorem-family ideal"
    )
    p.add_argument("kind", choices=("bclass", "tnongen", "staircase"))
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--cprime", type=int, default=1)
    p.add_argument("--alist", default="", help="bclass: comma list of a_i")
    p.add_argument("--blist", default="", help="bclass: comma list of b_i")
    p.add_argument("--pairs", default="", help="tnongen/staircase: a:b,c:d,...")
    p.add_argument("--classify", action="store_true")
    p.set_defaults(func=_cmd_family)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage and error lines; a usage error is bad input
        return 1 if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
