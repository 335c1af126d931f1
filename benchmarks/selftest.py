"""Self-tests of the benchmark harness; they are not part of the program's
test suite.

    python3 -m pytest -q benchmarks/selftest.py
"""

import json
from dataclasses import replace

import pytest

import run
from workloads import ROOT, WORKLOADS, digest, load_program, load_reference

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    return load_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(prog, name):
    wl = WORKLOADS[name]
    first = wl.inputs(prog, 5, 0, 6)
    assert wl.inputs(prog, 5, 0, 6) == first
    assert wl.inputs(prog, 5, 3, 3) == first[3:], "inputs depend on chunking"
    assert wl.inputs(prog, 6, 0, 6) != first


def test_wide_n_mixes_generic_and_non_generic(prog):
    ideals = WORKLOADS["wide-n"].inputs(prog, 0, 0, 12)
    mono = prog.monomials
    assert [mono.is_generic(i) for i in ideals] == [k % 3 == 0 for k in range(12)]
    assert all(i.n in (9, 10) for i in ideals)
    assert all(mono.standard_monomials(i).dim <= 150 for i in ideals)


def test_deep_dim_sizes(prog):
    ideals = WORKLOADS["deep-dim"].inputs(prog, 0, 0, 6)
    assert [i.n for i in ideals] == [5, 6, 7, 5, 6, 7]
    dims = [prog.monomials.standard_monomials(i).dim for i in ideals]
    assert all(300 <= d < 600 for d in dims[:3]) and all(600 <= d <= 900 for d in dims[3:])


def test_reference_covers_runs():
    ref = load_reference()
    assert sorted(ref) == sorted(WORKLOADS)
    for name, entry in ref.items():
        assert entry["seed"] == 0
        assert len(entry["digests"]) >= 4 * WORKLOADS[name].min_requests


def _perturb(output):
    if isinstance(output, dict):  # an audit document
        return {**output, "classified": {"H(9,9)": 1}}
    return replace(output, p=output.p + 1)


@pytest.mark.parametrize("name", ["audit-mix", "deep-dim"])
def test_perturbed_output_counts_as_failed(prog, name):
    wl = WORKLOADS[name]
    item = wl.inputs(prog, 0, 0, 1)[0]
    output = wl.run(prog, item, wl.field)
    checker = run.Checker(wl, prog, 0)
    checker.record(0, item, output, None)
    assert checker.failed == 0, checker.problems
    checker.record(0, item, _perturb(output), None)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "reference" in checker.problems[0]


def test_unclassified_fails_structural_check_on_any_seed(prog):
    wl = WORKLOADS["deep-dim"]
    item = wl.inputs(prog, 12345, 0, 1)[0]
    output = wl.run(prog, item, wl.field)
    bad = replace(output, cls=prog.classify.KoszulClass.unclassified("injected"))
    assert wl.check(prog, item, output, None) == []
    assert any("Unclassified" in p for p in wl.check(prog, item, bad, None))


def test_failed_frac_counts_every_perturbed_request(prog):
    wl = WORKLOADS["audit-mix"]
    perturbed = replace(
        wl,
        run=lambda prog, item, field: _perturb(wl.run(prog, item, field)),
        warmup_requests=0,
        min_requests=5,
    )
    metrics, wall, checker = run.run_untraced(perturbed, 0, 0.0)
    result = run.report(perturbed, 0, metrics, wall, checker)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 5
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_run_makes_at_least_100_requests(name):
    wl = WORKLOADS[name]
    assert wl.min_requests >= 100 and wl.trace_requests >= 100
    stub = replace(
        wl,
        run=lambda prog, item, field: {},
        check=lambda prog, item, output, captured: [],
        to_doc=lambda output: output,
        warmup_requests=0,
    )
    _, _, checker = run.run_untraced(stub, 7, 0.0)
    assert checker.attempted == wl.min_requests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    wl = WORKLOADS[name]
    wl = replace(wl, trace_requests=20 if name == "audit-mix" else 3)
    first, _, checker = run.run_traced(wl, 0, None)
    second, _, _ = run.run_traced(wl, 0, None)
    assert checker.failed == 0, checker.problems
    counts = {k: v for k, v in first.items() if v[1] != "ms" and not k.startswith("trace.")}
    assert counts == {k: second[k] for k in counts}
    assert first["fields.ops"][0] > 0 and first["linalg.echelon_inserts"][0] > 0
    assert first["trace.attributed_frac"][0] > 0.95
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_digest_ignores_key_order():
    assert digest({"a": 1, "b": [2]}) == digest({"b": [2], "a": 1})
