import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symprod.cli import json_text, main, table_json
from symprod.fixtures import packaged_fixture_dir, resolve_spec_path
from symprod.rings import Generator, Ring, RingSpecError, load_ring, ring_from_dict
from symprod.sympower import structure_constants, table_to_dict
from symprod.fixtures import sphere2_ring
from oracles import table_from_dict
from query_references import build_parser_reference, relations_doc_reference
from test_kernel import NONCOMMUTATIVE_TORUS


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


def test_nf_leading_minus_without_dashes(capsys):
    poly = "-x1.x'1.y"
    code, out, _ = run(capsys, "nf", "--g", "2", "--n", "2", poly)
    assert (code, out.strip()) == (0, "-1*y^2")
    dashed = run(capsys, "nf", "--g", "2", "--n", "2", "--format", "json", "--", poly)
    assert dashed[0] == 0 and json.loads(dashed[1])["input"] == poly
    for argv in (["--g", "2", "--n", "2", poly, "--format", "json"],
                 [poly, "--g", "2", "--n", "2", "--format", "json"]):
        assert run(capsys, "nf", *argv) == dashed


def test_nf_missing_or_extra_poly_exit_code(capsys):
    for argv in (["--g", "2", "--n", "2"], ["--g", "2", "--n", "2", "-x1", "-x2"],
                 ["--g", "2", "--n", "2", "x1", "-x2"]):
        with pytest.raises(SystemExit) as exc:
            main(["nf", *argv])
        assert exc.value.code == 2, argv


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


def test_missing_relative_spec_names_every_path_tried(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMPROD_FIXTURES", str(tmp_path / "fixtures"))
    code, out, err = run(capsys, "validate", "no_such.ring")
    searched = ["no_such.ring", str(tmp_path / "fixtures" / "no_such.ring"),
                os.path.join(packaged_fixture_dir(), "no_such.ring")]
    assert (code, out) == (2, "")
    assert err == f"error: no ring-spec file 'no_such.ring' found (searched {searched})\n"
    # a relative spec that exists is its literal path, before the fixtures
    (tmp_path / "fixtures" / "out").mkdir(parents=True)
    (tmp_path / "out").mkdir()
    for d in (tmp_path, tmp_path / "fixtures"):
        (d / "out" / "torus.ring").write_text((Path(packaged_fixture_dir()) / "torus.ring").read_text())
    monkeypatch.chdir(tmp_path)
    assert resolve_spec_path(os.path.join("out", "torus.ring")) == os.path.join("out", "torus.ring")


def test_missing_absolute_spec_names_only_its_path(tmp_path, monkeypatch, capsys):
    # an absolute spec is looked up nowhere else: joined onto a fixture
    # directory it is itself again
    monkeypatch.setenv("SYMPROD_FIXTURES", str(tmp_path))
    for spec in (str(tmp_path), str(tmp_path / "no_such.ring")):
        code, out, err = run(capsys, "validate", spec)
        assert (code, out) == (2, "")
        assert err == f"error: no ring-spec file {spec!r} found (searched {[spec]})\n"


def test_directory_spec_exits_2(tmp_path, capsys):
    # a directory is no ring spec: a diagnostic, not an IsADirectoryError
    for argv in (["validate", str(tmp_path)],
                 ["sym-basis", str(tmp_path), "--n", "2"],
                 ["sym-table", str(tmp_path), "--n", "2", "--max-degree", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    with pytest.raises(RingSpecError, match="Is a directory"):
        load_ring(tmp_path)


def test_bad_poly_exit_code(capsys):
    code, _, err = run(capsys, "nf", "--g", "1", "--n", "2", "x1.x1")
    assert code == 2
    assert "repeated" in err


def test_invalid_mode_exit_code(capsys):
    code, _, err = run(capsys, "relations", "--g", "2", "--n", "2",
                       "--mode", "stable")
    assert code == 2


@pytest.mark.parametrize("command", [
    [], ["validate"], ["sym-basis"], ["sym-table"], ["betti"], ["relations"],
    ["mac"], ["nf"], ["verify"], ["bridge"]], ids=lambda c: c[0] if c else "top")
def test_help_matches_reference_parser(monkeypatch, capsys, command):
    # texts, not a stored digest: argparse lays help out differently
    # across Python versions
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*command, "--help"]
    with pytest.raises(SystemExit) as exc:
        build_parser_reference().parse_args(argv)
    assert exc.value.code == 0
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == want
    assert want.out.startswith("usage: symprod")


@pytest.mark.parametrize("command", ["relations", "mac", "bridge"])
def test_unknown_mode_names_the_modes(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--g", "2", "--n", "2", "--mode", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    listed = err[err.index("invalid choice"):]
    places = [listed.find(m) for m in ("nosuch", "full", "stable", "minimal_odd", "minimal_even")]
    assert -1 not in places and places == sorted(places), err


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


def test_bridge_ignores_jobs(capsys):
    # --jobs still parses, for old command lines, and changes nothing
    argv = ["bridge", "--g", "2", "--n", "4", "--format", "json"]
    outs = set()
    for jobs in ([], ["--jobs", "2"], ["--jobs", "1"], ["--jobs", "-3"]):
        code, out, err = run(capsys, *argv, *jobs)
        assert (code, err) == (0, ""), jobs
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["verdict"] == "isomorphism"


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

    # the kernel's lookup of a result index; a table's results are its own
    # basis objects, so `index_from_sorted_slots` is not reached
    def broken(product, slots):
        raise InternalInconsistencyError(f"odd generator repeated in {slots}")

    monkeypatch.setattr("symprod.sympower.IndexProduct._index", broken)
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


def _spec(gen=None, term=None, product=None, **fields):
    """A valid ring spec with the given fields of its first generator, its
    one product term, its one product entry or the spec itself replaced."""
    doc = {"generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1},
                          {"name": "v", "degree": 2}],
           "products": [{"left": "a", "right": "b",
                         "result": [{"gen": "v", "coeff": 1}]}]}
    doc["generators"][0].update(gen or {})
    doc["products"][0]["result"][0].update(term or {})
    doc["products"][0].update(product or {})
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc, field", [
    (_spec(products=None), "'products'"),
    (_spec(products=[5]), "product entry"),
    (_spec(products=[[5]]), "product entry"),
    (_spec(product={"result": 7}), "'result'"),
    (_spec(product={"left": ["a"]}), "'left'"),
    (_spec(term={"gen": ["v"]}), "'gen'"),
    (_spec(gen={"degree": True}), "'degree'"),
    (_spec(term={"coeff": True}), "'coeff'"),
    (_spec(gen={"name": {"x": 1}}), "'name'"),
    (_spec(name=["t"]), "'name'"),
    ({"generators": [], "products": [5]}, "product entry"),
])
def test_malformed_spec_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "malformed.ring"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)],
                 ["sym-table", str(path), "--n", "2", "--max-degree", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and field in err, (argv, err)
        assert "Traceback" not in err


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


def test_bridge_hostile_input_exit_code(capsys, monkeypatch):
    # rejected before any map is built
    monkeypatch.setattr("symprod.bridge.surface_power_map", None)
    for argv, message in (
            (["--g", "1", "--n", "0"], "need g >= 1 and n >= 2, got g=1, n=0"),
            (["--g", "0", "--n", "3"], "need g >= 1 and n >= 2, got g=0, n=3"),
            (["--g", "2", "--n", "1", "--format", "json"],
             "need g >= 1 and n >= 2, got g=2, n=1"),
            (["--g", "1", "--n", "2", "--max-degree", "-2"],
             "need max_degree >= 0, got max_degree=-2"),
            (["--g", "3", "--n", "4", "--mode", "stable"],
             "stable mode needs n >= 2g-1, got g=3, n=4")):
        code, out, err = run(capsys, "bridge", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_betti_rejects_negative_input(capsys):
    for argv, name in ((["--g", "1", "--n", "-1"], "n=-1"),
                       (["--g", "-2", "--n", "2"], "g=-2"),
                       (["--g", "-2", "--n", "-1"], "g=-2")):
        code, out, err = run(capsys, "betti", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: need ") and err.strip().endswith(name), argv
    # CP^n, a point and the surface itself stay valid
    for argv, line in ((["--g", "0", "--n", "3"], "1 0 1 0 1 0 1"),
                       (["--g", "0", "--n", "0"], "1"),
                       (["--g", "3", "--n", "0"], "1"),
                       (["--g", "3", "--n", "1"], "1 6 1")):
        assert run(capsys, "betti", *argv) == (0, line + "\n", ""), argv


def test_negative_degree_bounds_exit_2(capsys):
    # a negative bound names its argument, in both formats, and prints nothing
    cases = ((["sym-table", "torus.ring", "--n", "2", "--max-degree", "-1"],
              "max_degree=-1"),
             (["sym-basis", "sphere2.ring", "--n", "3", "--degree", "-4"], "degree=-4"))
    for argv, name in cases:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, ""), (argv, fmt)
            assert err.startswith("error: need ") and err.strip().endswith(name), (argv, fmt)
    # degree 0 is a bound like any other: the empty table, and no classes
    code, out, _ = run(capsys, "sym-table", "torus.ring", "--n", "2", "--max-degree", "0",
                       "--format", "json")
    assert code == 0 and json.loads(out)["products"] == []
    assert run(capsys, "sym-basis", "sphere2.ring", "--n", "3", "--degree", "0") == (0, "", "")


json_leaves = (st.none() | st.booleans()
               | st.integers() | st.integers(-10**40, 10**40)
               | st.floats()
               | st.text(max_size=8)
               | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                                  "\u2028", "\U0001f600", "a\"b\\c\n\t"])
               | st.lists(st.integers(), min_size=1, max_size=6)
               | st.lists(st.booleans(), min_size=1, max_size=3))
json_docs = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=16)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=json_docs)
@example(doc={"degrees_equal": [(0, True), (1, False)], "empty": {"a": [], "b": ()}})
@example(doc=[[1, -2], [True, 1], (3, 4), [10**30, -10**30], [0.5, 1]])
@example(doc=[-0.0, float("nan"), float("inf"), float("-inf"), "", None])
def test_json_text_equals_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_of_a_table_never_calls_json_dumps(monkeypatch):
    # a table holds only strings, ints and containers, many of them empty
    # (odd, even, result): none of it should reach json.dumps
    ring = load_ring(resolve_spec_path("surface_g2.ring"))
    doc = table_to_dict(structure_constants(ring, 4, 8))

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    with monkeypatch.context() as patch:
        patch.setattr("symprod.cli.json.dumps", refuse)
        text = json_text(doc)
    assert text == json.dumps(doc, indent=2, sort_keys=True)


def test_every_subcommand_json_equals_json_dumps(capsys, monkeypatch):
    # the document each subcommand builds is printed as json.dumps would;
    # sym-table and relations build none and are held to table_to_dict's
    # and the reference relations document
    docs = []

    def recording(doc):
        docs.append(doc)
        return json_text(doc)

    monkeypatch.setattr("symprod.cli.json_text", recording)
    torus = load_ring(resolve_spec_path("torus.ring"))
    table_doc = table_to_dict(structure_constants(torus, 2, 4))
    for argv in (["validate", "torus.ring"],
                 ["sym-basis", "sphere2.ring", "--n", "3"],
                 ["sym-table", "torus.ring", "--n", "2", "--max-degree", "4"],
                 ["betti", "--g", "2", "--n", "3"],
                 ["relations", "--g", "2", "--n", "2", "--mode", "minimal_even"],
                 ["mac", "--g", "1", "--n", "3", "--mode", "stable"],
                 ["nf", "--g", "2", "--n", "2", "-x1.x'1.y"],
                 ["verify", "--g", "2", "--n", "2"],
                 ["bridge", "--g", "2", "--n", "2"]):
        docs.clear()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        if argv[0] == "sym-table":
            assert docs == [], argv
            want = table_doc
        elif argv[0] in ("relations", "mac"):
            # written straight from the masks, and held to the reference document
            assert docs == [], argv
            want = relations_doc_reference(int(argv[2]), int(argv[4]), argv[6])
        else:
            assert len(docs) == 1, argv
            want = docs[0]
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n", argv


def refusing_json_dumps(*args, **kwargs):
    raise AssertionError("json.dumps called")


def assert_table_json_is_json_dumps(table, monkeypatch):
    want = json.dumps(table_to_dict(table), indent=2, sort_keys=True)
    with monkeypatch.context() as patch:
        patch.setattr("symprod.cli.json.dumps", refusing_json_dumps)
        got = table_json(table)
    assert got == want


FIXTURE_SPECS = sorted(f for f in os.listdir(packaged_fixture_dir()) if f.endswith(".ring"))


@pytest.mark.parametrize("spec", FIXTURE_SPECS)
def test_table_json_equals_json_dumps_on_fixtures(spec, monkeypatch):
    ring = load_ring(resolve_spec_path(spec))
    for n in (2, 3, 4):
        assert_table_json_is_json_dumps(structure_constants(ring, n, 6), monkeypatch)


def test_table_json_of_a_table_that_shares_no_entry(monkeypatch):
    # both orders are multiplied, so every (i, j) has its own result dict
    table = structure_constants(NONCOMMUTATIVE_TORUS, 3, 6)
    assert len({id(e) for e in table.entries.values()}) == len(table.entries)
    assert_table_json_is_json_dumps(table, monkeypatch)


def test_table_json_of_an_empty_table(capsys, monkeypatch):
    table = structure_constants(load_ring(resolve_spec_path("torus.ring")), 2, 0)
    assert table.basis == [] and table.entries == {}
    assert_table_json_is_json_dumps(table, monkeypatch)
    code, out, _ = run(capsys, "sym-table", "torus.ring", "--n", "2",
                       "--max-degree", "0", "--format", "json")
    assert (code, out) == (0, table_json(table) + "\n")


def test_table_json_escapes_names(monkeypatch):
    odd1, odd2, even = 'a"1', "a\\2", "b \u00e9"
    ring = Ring([Generator(odd1, 1), Generator(odd2, 1), Generator(even, 2)],
                {(odd1, odd2): {even: 1}, (odd2, odd1): {even: -1}},
                name='t "\\ \u00e9')
    table = structure_constants(ring, 3, 6)
    assert table.entries
    assert_table_json_is_json_dumps(table, monkeypatch)


def test_colliding_labels_are_rejected(tmp_path, capsys):
    # chi[b^2] is both b twice and the generator named b^2 once
    ring = Ring([Generator("b", 2), Generator("b^2", 4)], {}, name="collide")
    table = structure_constants(ring, 2, 4)
    for writer in (table_to_dict, table_json):
        with pytest.raises(RingSpecError) as info:
            writer(table)
        message = str(info.value)
        assert "[['b', 2]]" in message and "[['b^2', 1]]" in message
        assert "'chi[b^2]'" in message
    path = tmp_path / "collide.ring"
    path.write_text(json.dumps({"name": "collide", "products": [],
                                "generators": [{"name": "b", "degree": 2},
                                               {"name": "b^2", "degree": 4}]}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "sym-table", str(path), "--n", "2",
                             "--max-degree", "4", "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err.startswith("error: basis classes ") and "'chi[b^2]'" in err, fmt
    # below degree 4 only b itself is a class, and the table reads back
    code, out, _ = run(capsys, "sym-table", str(path), "--n", "2",
                       "--max-degree", "3", "--format", "json")
    assert code == 0 and ring_from_dict(json.loads(out)).validate().ok


def test_back_to_back_requests_match_fresh_processes(capsys):
    # one process serves the requests in turn on one parser: a subcommand's
    # defaults and a leading-minus polynomial are read afresh each time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    requests = [
        ["relations", "--g", "1", "--n", "3", "--mode", "stable", "--format", "json"],
        ["bridge", "--g", "1", "--n", "3", "--format", "json"],
        ["betti", "--g", "2", "--n", "3"],
        ["nf", "--g", "2", "--n", "2", "-x1.x'1.y", "--format", "json"],
        ["mac", "--g", "2", "--n", "2", "--mode", "minimal_even"],
        ["relations", "--g", "2", "--n", "2"],
        ["verify", "--g", "2", "--n", "3", "--format", "json"],
        ["nf", "--g", "2", "--n", "2", "x1.x'1.y"],
    ]
    in_process = [run(capsys, *argv) for argv in requests]
    assert json.loads(in_process[1][1])["mode"] == "full"
    for argv, got in zip(requests, in_process):
        fresh = subprocess.run([sys.executable, "-m", "symprod.cli", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_nf_rejects_negative_genus(capsys):
    # named as betti names it, not as an index beyond g
    for poly in ("y", "-y^2", "3"):
        assert run(capsys, "nf", "--g", "-1", "--n", "2", poly) == (
            2, "", "error: need g >= 0, got g=-1\n"), poly


def test_closed_stdout_pipe_exits_1_without_traceback():
    # `symprod relations ... | head`: the reader stops after one line while
    # the CLI still has far more than a pipe buffer of JSON to write
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["relations", "--g", "8", "--n", "3", "--mode", "minimal_odd", "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-m", "symprod.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
