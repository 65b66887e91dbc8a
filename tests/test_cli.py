import json

from symprod.cli import main
from symprod.fixtures import packaged_fixture_dir
from symprod.rings import ring_from_dict
from symprod.sympower import table_from_dict
from symprod.fixtures import sphere2_ring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_line(capsys):
    code, out, _ = run(capsys, "betti", "--g", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "1 4 7 4 1"


def test_nf_example(capsys):
    code, out, _ = run(capsys, "nf", "--g", "1", "--n", "2", "x1.x'1.y")
    assert code == 0
    assert out.strip() == "+1*y^2"


def test_sym_basis_sphere(capsys):
    code, out, _ = run(capsys, "sym-basis", "sphere2.ring", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert [line.split("degree=")[1] for line in lines] == ["2", "4", "6"]


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "torus.ring")
    assert code == 0
    assert "ok" in out


def test_validate_reports_violation(tmp_path, capsys):
    bad = {
        "generators": [{"name": "a1", "degree": 1}, {"name": "a2", "degree": 1},
                       {"name": "b", "degree": 2}],
        "products": [
            {"left": "a1", "right": "a2", "result": [{"gen": "b", "coeff": 1}]},
            {"left": "a2", "right": "a1", "result": [{"gen": "b", "coeff": 1}]},
        ],
    }
    path = tmp_path / "bad.ring"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "FAILED" in out and "graded commutativity" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.ring"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "no_such.ring")
    assert code == 2


def test_bad_poly_exit_code(capsys):
    code, _, err = run(capsys, "nf", "--g", "1", "--n", "2", "x1.x1")
    assert code == 2
    assert "repeated" in err


def test_invalid_mode_exit_code(capsys):
    code, _, err = run(capsys, "relations", "--g", "2", "--n", "2",
                       "--mode", "stable")
    assert code == 2


def test_relations_counts(capsys):
    code, out, _ = run(capsys, "relations", "--g", "2", "--n", "2",
                       "--mode", "minimal_even", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5


def test_sym_table_json_reingests_as_ring(capsys):
    code, out, _ = run(capsys, "sym-table", "sphere2.ring", "--n", "2",
                       "--max-degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ring = ring_from_dict(doc)
    assert ring.validate().ok
    table = table_from_dict(sphere2_ring(), doc)
    assert len(table.basis) == 2


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--n", "2")
    assert code == 0
    assert "ok" in out.strip().splitlines()[-1]


def test_bridge_json_and_exit_codes(capsys):
    code, out, _ = run(capsys, "bridge", "--g", "1", "--n", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "isomorphism"
    assert doc["multiplicative_spot_check"] is True


def test_bridge_partial_resource_exit(capsys):
    code, out, _ = run(capsys, "bridge", "--g", "1", "--n", "2",
                       "--max-degree", "1")
    assert code == 4
    assert "partial" in out


def test_bridge_parallel_jobs(capsys):
    code, out, _ = run(capsys, "bridge", "--g", "1", "--n", "2", "--jobs", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphism"


def test_mac_alias(capsys):
    code, out, _ = run(capsys, "mac", "--g", "1", "--n", "3", "--mode", "stable")
    assert code == 0
    assert "1 generators (stable)" in out


def test_failed_certificate_exit_code(capsys, monkeypatch):
    # wire check: a failing minimality report must exit with the
    # theorem-violation code
    from symprod.quotient import MinimalityReport

    def broken(g, n):
        return MinimalityReport(g, n, "minimal_even", rank_q0=3, expected_rank=4,
                                degrees_equal=[(0, True)])

    monkeypatch.setattr("symprod.cli.quotient.verify_minimality", broken)
    code, out, _ = run(capsys, "verify", "--g", "2", "--n", "2")
    assert code == 3
    assert "FAILED" in out


def test_internal_inconsistency_exit_code(capsys, monkeypatch):
    from symprod.sympower import InternalInconsistencyError

    def broken(ring, slots):
        raise InternalInconsistencyError(f"odd generator repeated in {slots}")

    monkeypatch.setattr("symprod.sympower.index_from_sorted_slots", broken)
    code, _, err = run(capsys, "sym-table", "torus.ring", "--n", "2",
                       "--max-degree", "4")
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("internal inconsistency: odd generator repeated")


def test_quotient_invariant_exit_code(capsys, monkeypatch):
    from math import comb
    monkeypatch.setattr("symprod.quotient.comb", lambda a, b: comb(a, b) + 1)
    code, _, err = run(capsys, "relations", "--g", "2", "--n", "2",
                       "--mode", "minimal_even")
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("internal inconsistency:")


def test_non_integer_structure_constant_exit_code(capsys, monkeypatch):
    from symprod import sympower
    whole = sympower.signed_arrangements
    monkeypatch.setattr(sympower, "signed_arrangements",
                        lambda ring, slots: list(whole(ring, slots))[:-1])
    code, _, err = run(capsys, "sym-table", "sphere2.ring", "--n", "3",
                       "--max-degree", "6")
    assert code == 3
    assert err.startswith("theorem violation: non-integer structure constant 1/2")


def test_sym_table_rejects_parity_breaking_ring(tmp_path, capsys):
    bad = {
        "generators": [{"name": "a", "degree": 1}, {"name": "u", "degree": 2}],
        "products": [{"left": "a", "right": "a", "result": [{"gen": "a", "coeff": 1}]}],
    }
    path = tmp_path / "parity.ring"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "sym-table", str(path), "--n", "2", "--max-degree", "2")
    assert code == 2
    assert "degree parity" in err


def test_fixture_env_var(tmp_path, capsys, monkeypatch):
    # a spec resolved through the fixture-path environment variable
    src = packaged_fixture_dir() + "/torus.ring"
    dst = tmp_path / "mine.ring"
    dst.write_text(open(src).read())
    monkeypatch.setenv("SYMPROD_FIXTURES", str(tmp_path))
    code, out, _ = run(capsys, "validate", "mine.ring")
    assert code == 0 and "ok" in out


def test_json_outputs_reparse_identically(capsys):
    # emitted JSON must re-parse to the same document
    for argv in (["betti", "--g", "1", "--n", "3", "--format", "json"],
                 ["relations", "--g", "1", "--n", "2", "--format", "json"],
                 ["verify", "--g", "2", "--n", "2", "--format", "json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
