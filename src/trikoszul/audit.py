"""The fuzzing/audit driver: classify seeded random ideals and collect
conjecture findings with full reproduction data.

Each seed is an independent unit of work, so the driver can fan out over a
bounded process pool; findings are merged order-independently and sorted
before writing, making the output identical at any worker count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .classify import classify
from .fields import QQ, get_field
from .generators import GeneratorConfig, random_ideal
from .monomials import format_ideal
from .resolution import resolution_for


def _audit_one(cfg: GeneratorConfig, seed: int, field_name: str) -> tuple[str | None, list[dict]]:
    """Classify the ideal for one seed; returns (class display, findings)."""
    field = get_field(field_name)
    icfg = replace(cfg, seed=seed)
    repro = {
        "seed": seed,
        "max_exponent": cfg.max_exponent,
        "n_range": list(cfg.n_range),
        "generic_only": cfg.generic_only,
    }
    try:
        ideal = random_ideal(icfg)
    except Exception as exc:
        return None, [
            {
                "kind": "sampling_error",
                "seed": seed,
                "config": repro,
                "message": f"{type(exc).__name__}: {exc}",
            }
        ]
    text = format_ideal(ideal)
    try:
        report = classify(ideal, field=field)
    except Exception as exc:
        return None, [
            {
                "kind": "error",
                "seed": seed,
                "config": repro,
                "ideal": text,
                "message": f"{type(exc).__name__}: {exc}",
            }
        ]
    findings: list[dict] = []
    if report.cls.tag == "Unclassified":
        findings.append(
            {
                "kind": "unclassified",
                "seed": seed,
                "config": repro,
                "ideal": text,
                "report": report.to_json(),
            }
        )
    if report.cls.tag == "G":
        findings.append(
            {
                "kind": "gr_hit",
                "seed": seed,
                "config": repro,
                "ideal": text,
                "report": report.to_json(),
            }
        )
    audit = report.audit
    if audit is not None and not (audit.ires_pure_power and audit.ires_mu1):
        findings.append(
            {
                "kind": "ires_violation",
                "seed": seed,
                "config": repro,
                "ideal": text,
                "report": report.to_json(),
                "resolution": resolution_for(ideal).to_json(),
            }
        )
    if audit is not None and audit.compclass_match is False:
        findings.append(
            {
                "kind": "compclass_mismatch",
                "seed": seed,
                "config": repro,
                "ideal": text,
                "report": report.to_json(),
            }
        )
    return report.cls.display(), findings


def run_audit(cfg: GeneratorConfig, count: int, field=QQ, jobs: int = 1) -> dict:
    """Classify `count` ideals seeded from cfg.seed upward.

    Returns a deterministic findings document; per-ideal errors are logged,
    never fatal."""
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    seeds = [cfg.seed + k for k in range(count)]
    if jobs > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    _audit_one,
                    [cfg] * count,
                    seeds,
                    [field.name] * count,
                    chunksize=max(1, count // (4 * jobs)),
                )
            )
    else:
        results = [_audit_one(cfg, seed, field.name) for seed in seeds]
    class_counts: Counter[str] = Counter()
    findings: list[dict] = []
    for display, found in results:
        if display is not None:
            class_counts[display] += 1
        findings.extend(found)
    findings.sort(key=lambda f: (f["seed"], f["kind"]))
    return {
        "config": {
            "seed": cfg.seed,
            "max_exponent": cfg.max_exponent,
            "n_range": list(cfg.n_range),
            "generic_only": cfg.generic_only,
        },
        "count": count,
        "classified": dict(sorted(class_counts.items())),
        "findings": findings,
    }
