import json

import pytest

from trikoszul.cli import main
from trikoszul.corpus import CorpusEntry, load_corpus, parse_corpus, run_corpus

EX31 = "x^3, x^2*y, y^3, z^3, x^2*z^2"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ classify


def test_classify_worked_example(capsys):
    code, out, _ = run(capsys, ["classify", EX31, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class"]["tag"] == "B"
    assert doc["mu"][:2] == [2, 4]
    assert "timings_ms" in doc


def test_classify_complete_intersection(capsys):
    code, out, _ = run(capsys, ["classify", "x^2,y^2,z^2"])
    assert code == 0
    assert "C(3)" in out


def test_classify_rejects_non_primary(capsys):
    code, _, err = run(capsys, ["classify", "x,y"])
    assert code == 1
    assert "error" in err


def test_classify_parse_error_exit(capsys):
    code, _, err = run(capsys, ["classify", "x^2 y"])
    assert code == 1
    assert "position" in err


def test_classify_json_deterministic(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["classify", EX31, "--json"])
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings_ms")
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_classify_prime_field(capsys):
    code, out, _ = run(capsys, ["classify", EX31, "--field", "gf32003", "--json"])
    assert code == 0
    assert json.loads(out)["class"]["tag"] == "B"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "x^2, y^2, z^2", "--field", "bogus"],
        ["classify", "x^2, y^2, z^2", "--mu-terms", "abc"],
        ["classify", "x^2, y^2, z^2", "--no-such-flag"],
        [],
        # each subcommand takes only the shared options it reads
        ["resolve", EX31, "--json"],
        ["homology", EX31, "--json"],
        ["audit", "--count", "0", "--dim-cap", "5"],
    ],
)
def test_usage_error_exits_1(capsys, argv):
    # 2 is reserved for Unclassified
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage:" in err and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "usage:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "x^2, y^2, z^2", "--mu-terms", "-3"],
        ["bass", EX31, "--terms", "-2"],
        ["bass", "x^2, y^2, z^2", "--terms", "-2"],
        ["bass", EX31, "--oracle", "9"],
        ["audit", "--max-exponent", "1"],
        ["audit", "--n-min", "2"],
        ["audit", "--count", "-1"],
    ],
)
def test_bad_value_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "homology"])
def test_internal_invariant_failure_exits_3(capsys, monkeypatch, command):
    import trikoszul.koszul as koszul

    # a wrong d3 sign table breaks d2 . d3 = 0, a fault of the program
    monkeypatch.setattr(koszul, "_D3_SIGNS", (+1, +1, +1))
    code, out, err = run(capsys, [command, EX31])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_classify_unclassified_exit_code(capsys, monkeypatch):
    import trikoszul.cli as cli_mod
    from trikoszul.classify import classify as real_classify
    from trikoszul.classify import KoszulClass

    def fake_classify(ideal, **kw):
        rep = real_classify(ideal, **kw)
        rep.cls = KoszulClass.unclassified("forced for the exit-code contract")
        return rep

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    code, _, _ = run(capsys, ["classify", "x^2,y^2,z^2"])
    assert code == 2


# ------------------------------------------------------------------- resolve


def test_resolve_json(capsys):
    code, out, _ = run(capsys, ["resolve", EX31, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [1, 5, 6, 2]
    assert doc["checks"]["all_ok"]
    entry = doc["f2"]["entries"][0]
    assert len(entry) == 4 and isinstance(entry[3], list) and len(entry[3]) == 3


def test_resolve_text(capsys):
    code, out, _ = run(capsys, ["resolve", "x^2,y^2,z^2"])
    assert code == 0
    assert "betti: (1, 3, 3, 1)" in out
    assert "[" in out and "x^2" in out


# ------------------------------------------------------------------ homology


def test_homology_tables(capsys):
    code, out, _ = run(capsys, ["homology", EX31, "--show-tables"])
    assert code == 0
    assert "dims: A1=5 A2=6 A3=2" in out
    assert "p = rank(A1^2) = 1" in out
    assert "A1 * A1" in out and "A1 * A2" in out
    assert (
        "A2 basis:\n"
        "  A2_0 = x^2*e12\n"
        "  A2_1 = x*z^2*e13\n"
        "  A2_2 = -x*z^2*e12 + x*y*z*e13\n"
        "  A2_3 = x*y^2*e12\n"
        "  A2_4 = x^2*z*e13\n"
        "  A2_5 = y^2*z^2*e23\n"
    ) in out


# ---------------------------------------------------------------------- bass


def test_bass_with_oracle(capsys):
    code, out, _ = run(capsys, ["bass", EX31, "--oracle", "1"])
    assert code == 0
    assert "class: B" in out
    assert "betti oracle (canonical module): 2, 4" in out


# -------------------------------------------------------------------- corpus


def test_corpus_shipped_all_match(capsys):
    code, out, _ = run(capsys, ["corpus"])
    assert code == 0
    assert "0 mismatches" in out


def test_corpus_wrong_label_reported(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("wrong ; x^2, y^2, z^2 ; B ; \n")
    code, out, _ = run(capsys, ["corpus", str(bad)])
    assert code == 1
    assert "MISMATCH" in out


def test_corpus_empty(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, ["corpus", str(empty)])
    assert code == 0
    assert "0 entries" in out


def test_corpus_missing_file(capsys):
    code, _, err = run(capsys, ["corpus", "/nonexistent/corpus.txt"])
    assert code == 1
    assert "error" in err


def test_corpus_numbers_checked():
    entries = parse_corpus("bad ; x^3, x^2*y, y^3, z^3, x^2*z^2 ; B ; [1,1,2,2,5]\n")
    results = run_corpus(entries)
    assert not results[0].ok
    assert any("numbers" in m for m in results[0].mismatches)


def test_corpus_shipped_has_required_entries():
    names = {e.name for e in load_corpus()}
    assert len(names) >= 12
    for required in ("ex3.1", "ex4.1.i", "ex4.1.ii", "ex4.2", "table2.row1",
                     "table2.m2", "table2.m3", "bclass.rho2", "staircase.n5"):
        assert required in names


def test_corpus_entry_roundtrip():
    entry = CorpusEntry("n", "x^2, y^2, z^2", "C(3)", (3, 1, 3, 1, 0))
    assert parse_corpus(entry.to_line()) == [entry]


# --------------------------------------------------------------------- audit


def test_audit_zero_count(tmp_path, capsys):
    out_file = tmp_path / "findings.json"
    code, out, _ = run(capsys, ["audit", "--count", "0", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["count"] == 0
    assert doc["findings"] == []


def test_audit_deterministic(tmp_path, capsys):
    texts = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        code, _, _ = run(
            capsys, ["audit", "--count", "8", "--seed", "5", "--out", str(out_file)]
        )
        assert code == 0
        texts.append(out_file.read_text())
    assert texts[0] == texts[1]


# -------------------------------------------------------------------- family


def test_family_bclass_cli(capsys):
    code, out, _ = run(
        capsys,
        [
            "family", "bclass", "--a", "4", "--b", "4", "--c", "4",
            "--cprime", "2", "--alist", "3,2", "--blist", "2,3", "--classify",
        ],
    )
    assert code == 0
    assert "x^4, y^4, z^4, x^3*z^2, x^2*y^2*z^2, y^3*z^2" in out
    assert "class: B" in out


def test_family_constraint_error_cli(capsys):
    code, _, err = run(
        capsys,
        ["family", "staircase", "--a", "3", "--b", "2", "--c", "3", "--pairs", "2:1"],
    )
    assert code == 1
    assert "b_rho < b" in err
