"""End to end command line tests, run in process."""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import orbinov
from orbinov import actions
from orbinov.actions import SimplicialAction, quotient_complex
from orbinov import ValidationError, cli
from orbinov.cli import corpus_names, main
from orbinov.cochains import PeriodSpace, descend_cochain, is_invariant
from orbinov.complexes import (bfs_forest, cycle_periods,
                               dual_forest_reduction, homology_of_matrices,
                               sparse_product_is_zero)
from orbinov.documents import loads_document
from orbinov.lmatrix import fraction_field_rank, invariant_factors
from orbinov.nerve import NerveModel
from orbinov.periods import H1Presentation
from orbinov.snf import eliminate_units, smith_normal_form
from orbinov.twisted import integralize


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    assert err == ""
    return code, json.loads(out)


def test_corpus_is_bundled():
    assert corpus_names() == ["circle", "hexagon_z2", "klein",
                              "mirror_cylinder", "mirror_square",
                              "pillowcase", "rp2", "torus7"]


def test_homology_circle_text():
    code, out, err = run(["homology", "circle"])
    assert code == 0 and err == ""
    assert "degree 0: betti 1" in out
    assert "degree 1: betti 1" in out
    assert "euler characteristic: 0" in out


def test_homology_rp2_json():
    code, data = run_json(["homology", "rp2"])
    assert code == 0
    assert data["betti"] == [1, 0, 0]
    assert data["torsion"] == [[], [2], []]
    assert data["euler"] == 1
    assert data["subdivision_stages"] is None


def test_homology_quotient_reports_stages():
    code, data = run_json(["homology", "pillowcase"])
    assert code == 0
    assert data["betti"] == [1, 0, 1]
    assert isinstance(data["subdivision_stages"], int)


def test_homology_transforms_certify_the_diagonal():
    code, data = run_json(["homology", "circle", "--transforms"])
    assert code == 0
    block = data["transforms"]["boundary_1"]
    S, T = block["row_transform"], block["col_transform"]
    doc_code, hom = run_json(["homology", "circle"])
    assert doc_code == 0
    # S * boundary * T must reproduce the stored diagonal
    from orbinov import build_complex
    from orbinov.snf import mat_mul
    X = build_complex([("a", "b"), ("b", "c"), ("a", "c")])
    A = X.boundary_matrix(1)
    product = mat_mul(mat_mul(S, A), T)
    for i, row in enumerate(product):
        for j, entry in enumerate(row):
            want = block["diagonal"][i] if i == j else 0
            if i == j and i >= len(block["diagonal"]):
                want = 0
            assert entry == want


def test_periods_rank_one_and_rank_two():
    code, data = run_json(["periods", "torus7", "--class", "e1"])
    assert code == 0
    assert data["rank"] == 1 and data["integral"] is True
    assert data["h1_free_rank"] == 2
    code, data = run_json(["periods", "torus7", "--class", "irr"])
    assert code == 0
    assert data["rank"] == 2 and data["integral"] is False
    assert sorted(data["gamma_basis"]) == [["0", "1"], ["1", "0"]]


def test_novikov_circle_class():
    code, data = run_json(["novikov", "circle", "--class", "dtheta"])
    assert code == 0
    assert data["rank"] == 1 and data["route"] == "rank-one"
    assert data["betti"] == [0, 0] and data["torsion"] == [0, 0]
    flat = data["inequalities"]["flat"]
    assert flat["holds"] is True
    assert all(row["slack"] == 0 for row in flat["rows"])


def test_novikov_zero_class_matches_homology():
    code, data = run_json(["novikov", "klein", "--class", "zero"])
    assert code == 0
    assert data["route"] == "integral"
    assert data["betti"] == [1, 1, 0] and data["torsion"] == [0, 1, 0]


def test_novikov_rank_two_prints_then_exits_3():
    code, out, err = run(["novikov", "torus7", "--class", "irr"])
    assert code == 3
    assert "torsion unavailable" in out
    code, data = run_json(["novikov", "torus7", "--class", "irr"])
    assert code == 3
    assert data["betti"] == [0, 0, 0] and data["torsion"] is None
    assert data["note"]


def test_check_inequalities_pass_and_fail(tmp_path):
    code, out, err = run(["check-inequalities", "pillowcase",
                          "--class", "zero"])
    assert code == 0 and "holds" in out
    data = json.loads(open_corpus("pillowcase"))
    data["critical_data"]["starved"] = {"counts": [0, 0, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["check-inequalities", str(path),
                          "--class", "zero"])
    assert code == 2
    assert "VIOLATED" in out
    assert "Traceback" not in out + err


def open_corpus(name):
    import importlib.resources as res
    return (res.files("orbinov") / "corpus" / (name + ".json")) \
        .read_text(encoding="utf-8")


def test_check_inequalities_needs_critical_data(tmp_path):
    data = json.loads(open_corpus("circle"))
    data["critical_data"] = {}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["check-inequalities", str(path),
                          "--class", "dtheta"])
    assert code == 1
    assert "document error" in err


def test_empty_simplex_is_a_document_error(tmp_path):
    data = {"name": "tri", "orbit": {"vertices": ["a", "b", "c"],
                                     "simplices": [["a", "b", "c"], []]}}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["homology", str(path)])
    assert code == 1 and out == ""
    assert "document error" in err and "empty simplex" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe",
    b"[" * 200000 + b"]" * 200000,
], ids=["not_utf8", "nested_too_deep"])
def test_malformed_file_is_a_document_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(["homology", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("document error:")


@contextlib.contextmanager
def sys_int_limit(digits):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _circle_with(edit):
    data = {"name": "tri", "description": "",
            "orbit": {"vertices": ["a", "b", "c"],
                      "simplices": [["a", "b"], ["b", "c"], ["a", "c"]]},
            "cocycles": {"w": {"symbols": ["alpha"],
                               "shadows": {"alpha": "1.5"},
                               "edges": [["a", "b", ["0", "1"]],
                                         ["b", "c", ["0", "1"]],
                                         ["c", "a", ["0", "1"]]]}},
            "critical_data": {"flat": {"counts": [0, 0]}}}
    edit(data)
    return data


def _long_count(data):
    data["critical_data"]["flat"]["counts"][1] = 10 ** 4999


def _long_fraction(data):
    data["cocycles"]["w"]["edges"][0][2][0] = "1/" + "3" * 5000


def _long_shadow(data):
    data["cocycles"]["w"]["shadows"]["alpha"] = "1." + "5" * 5000


@pytest.mark.parametrize("edit,argv,where", [
    (_long_count, ["homology"], "critical_data.flat.counts[1]"),
    (_long_fraction, ["novikov", "--class", "w"], "cocycles.w.edges[0]"),
    (_long_shadow, ["periods", "--class", "w"], "cocycles.w.shadows.alpha"),
], ids=["json-literal", "fraction", "shadow"])
def test_over_long_integers_are_document_errors(tmp_path, edit, argv,
                                                where):
    # int() refuses more than sys.get_int_max_str_digits() digits; the
    # refusal names the field and the digit count instead of escaping
    # as a ValueError
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    path = tmp_path / "long.json"
    with sys_int_limit(10 ** 6):
        path.write_text(json.dumps(_circle_with(edit)), encoding="utf-8")
    code, out, err = run(argv[:1] + [str(path)] + argv[1:])
    assert code == 1 and out == ""
    assert err == ("document error: %s: an integer of 5000 digits is over "
                   "the %d-digit limit\n" % (where, limit))


def test_validate_corpus_document():
    code, out, err = run(["validate", "hexagon_z2", "--depth", "3"])
    assert code == 0 and "all checks pass" in out


def test_validate_cyclic_oracle():
    code, data = run_json(["validate", "circle", "--depth", "3",
                           "--cyclic", "3"])
    assert code == 0
    cyclic = [c for c in data["checks"] if "cyclic" in c["check"]]
    statuses = {c["check"]: c["status"] for c in cyclic}
    assert statuses["cocycle dtheta: cyclic cover p=3"] == "pass"
    assert statuses["cocycle zero: cyclic cover p=3"] == "skip"


@pytest.mark.parametrize("name, p", [("rp2", 99), ("rp2", -5),
                                     ("circle", 13)])
def test_validate_refuses_cover_degrees_out_of_range(monkeypatch, name, p):
    # refused before any class is lifted, whatever the classes' ranks
    lifted = []
    monkeypatch.setattr(cli, "integralize", lifted.append)
    code, out, err = run(["validate", name, "--cyclic", str(p)])
    assert (code, out, lifted) == (3, "", [])
    assert err == ("unsupported: cover degree %d out of the supported "
                   "range 2..12\n" % (p,))


def test_validate_catches_unclosed_cocycle(tmp_path):
    data = json.loads(open_corpus("rp2"))
    data["cocycles"]["leaky"] = {
        "symbols": [], "shadows": {},
        "edges": [["v1", "v2", ["1/2"]]]}
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["validate", str(path)])
    assert code == 2
    assert "[fail] cocycle leaky: closed" in out
    assert "FAILED" in out


def test_validate_catches_non_invariant_cocycle(tmp_path):
    data = json.loads(open_corpus("hexagon_z2"))
    data["cocycles"]["lop"] = {
        "symbols": [], "shadows": {},
        "edges": [["h0", "h1", ["1"]], ["h1", "h2", ["-1"]]]}
    path = tmp_path / "lop.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["validate", str(path)])
    assert code == 2
    assert "[fail] cocycle lop: invariant" in out


def test_validate_does_not_blame_invariance_for_a_descent_guard(
        monkeypatch):
    # the invariant row comes from the descent's own check; a descent
    # that fails on an invariant cocycle is a broken guard, exit 2
    def broken(qres, cochain):
        raise ValidationError("descent guard tripped")

    monkeypatch.setattr(cli, "descend_cochain", broken)
    code, out, err = run(["validate", "hexagon_z2"])
    assert code == 2
    assert out == ""
    assert err.strip() == "validation error: descent guard tripped"


def test_perturb_rational_class_is_unchanged():
    code, data = run_json(["perturb", "circle", "--class", "dtheta"])
    assert code == 0
    assert data["unchanged"] is True


def test_perturb_flattens_symbolic_class():
    code, data = run_json(["perturb", "torus7", "--class", "irr"])
    assert code == 0
    assert data["unchanged"] is False
    for u, v, value in data["result"]["edges"]:
        assert len(value) == 1 and "." not in value[0]
    code2, data2 = run_json(["perturb", "torus7", "--class", "irr",
                             "--precision", "2"])
    assert code2 == 0
    assert data2["result"]["edges"] != data["result"]["edges"]


def test_usage_errors_exit_1():
    for argv in ([], ["frobnicate", "circle"],
                 ["novikov", "circle"],
                 ["validate", "circle", "--depth", "x"]):
        code, out, err = run(argv)
        assert code == 1, argv


def test_parser_is_built_once_and_reused_safely():
    assert cli.build_parser() is cli.build_parser()
    # a usage error before and after a successful call
    assert run(["novikov", "circle"])[0] == 1
    code, data = run_json(["validate", "circle", "--cyclic", "3"])
    assert code == 0 and data["cyclic"] == 3
    # values parsed by one call do not leak into the next
    code, data = run_json(["validate", "circle"])
    assert code == 0
    assert data["cyclic"] is None and data["seed"] == 0
    assert run(["novikov", "circle"])[0] == 1
    listing = ", ".join(corpus_names())
    for sub in ("homology", "periods", "novikov", "check-inequalities",
                "validate", "perturb"):
        code, out, _ = run([sub, "--help"])
        assert code == 0
        assert listing in " ".join(out.split()), sub


@pytest.mark.parametrize("argv, option", [
    (["validate", "circle", "--depth", "-1"], "--depth"),
    (["perturb", "torus7", "--class", "irr", "--precision", "-1"],
     "--precision"),
])
def test_negative_counts_are_usage_errors(argv, option):
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    message = err.splitlines()[-1]
    assert message.endswith("error: argument %s: must be at least 0, got -1"
                            % (option,))


def test_unknown_document_exit_1():
    code, out, err = run(["homology", "no_such_thing"])
    assert code == 1
    assert "document error" in err
    assert "circle" in err  # the message lists the corpus


def test_output_is_deterministic():
    for argv in (["homology", "pillowcase", "--json"],
                 ["novikov", "torus7", "--class", "e1", "--json"],
                 ["validate", "circle", "--depth", "3"]):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_round_trip_through_serialize(tmp_path):
    for name in corpus_names():
        text = open_corpus(name)
        doc = loads_document(text)
        assert doc.serialize() == text
        path = tmp_path / (name + ".json")
        path.write_text(text, encoding="utf-8")
        code, data = run_json(["homology", str(path)])
        assert code == 0 and data["document"] == name


def stage_counts(monkeypatch, argv):
    """Calls of each analysis stage made by one successful command.

    Every binding of a stage function in the orbinov modules is
    replaced, so calls through any import path are counted.
    """
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(H1Presentation, "__init__",
                        counted("H1Presentation", H1Presentation.__init__))
    monkeypatch.setattr(SimplicialAction, "vertex_orbit",
                        counted("vertex_orbit", SimplicialAction.vertex_orbit))
    monkeypatch.setattr(PeriodSpace, "vector",
                        counted("vector", PeriodSpace.vector))
    monkeypatch.setattr(NerveModel, "cell", counted("cell", NerveModel.cell))
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "orbinov" or name.startswith("orbinov.")]
    for fn in (bfs_forest, smith_normal_form, quotient_complex,
               actions._orbit_classes,
               descend_cochain, integralize, is_invariant,
               sparse_product_is_zero, invariant_factors,
               fraction_field_rank, cycle_periods, eliminate_units,
               dual_forest_reduction, homology_of_matrices):
        wrapper = counted(fn.__name__, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)
    code, _, err = run(argv)
    assert code == 0, err
    return counts


@pytest.mark.parametrize("argv, want", [
    # the lift reads the period lattice off the spanning forest, so
    # no Novikov path presents H_1 or runs a dense Smith form
    (["novikov", "klein", "--class", "dy"],
     {"H1Presentation": 0, "bfs_forest": 1, "smith_normal_form": 0}),
    (["novikov", "pillowcase", "--class", "zero"],
     {"H1Presentation": 0, "bfs_forest": 1, "quotient_complex": 1}),
    (["check-inequalities", "rp2", "--class", "zero"], {"bfs_forest": 1}),
    # one quotient per document; one descent and one lift per class,
    # shared by the nerve model and the cover oracle; the descent is
    # the invariance check, so is_invariant only classifies failures;
    # one spanning forest per lift, and one for the one explicit cover
    # (hexagon_z2 has a single rank-one class)
    (["validate", "hexagon_z2", "--cyclic", "3"],
     {"quotient_complex": 1, "H1Presentation": 0, "bfs_forest": 3,
      "descend_cochain": 2, "integralize": 2, "is_invariant": 0}),
    # an orbit document is quotiented by the trivial action, once
    (["validate", "klein", "--cyclic", "3"],
     {"quotient_complex": 1, "H1Presentation": 0, "integralize": 2}),
    # the block boundaries are compared with the explicit cover's, and
    # only the cover takes homology, once: it pairs d_1 by its own
    # spanning forest and its top boundary by its dual forest, so a
    # one-dimensional cover eliminates nothing and a surface's only
    # the residual of its d_2
    (["validate", "circle", "--cyclic", "3"],
     {"dual_forest_reduction": 0, "eliminate_units": 0,
      "homology_of_matrices": 1}),
    (["validate", "hexagon_z2", "--cyclic", "3"], {"eliminate_units": 0}),
    (["validate", "klein", "--cyclic", "3"],
     {"dual_forest_reduction": 1, "eliminate_units": 1,
      "homology_of_matrices": 1}),
    # periods prints the H_1 presentation and builds no lift
    (["periods", "klein", "--class", "dy"],
     {"H1Presentation": 1, "bfs_forest": 1, "integralize": 0}),
    # a basic class is recognised by its one descent alone; parsed and
    # descended values are not coerced again
    (["novikov", "hexagon_z2", "--class", "dtheta"],
     {"descend_cochain": 1, "is_invariant": 0, "vector": 0}),
    # the twisted d o d guard runs on signed monomials, not through
    # the integer product check
    (["novikov", "klein", "--class", "dy"], {"sparse_product_is_zero": 0}),
    # one orbit-class pass per subdivision stage tests regularity and
    # yields the orbit space; no vertex orbit is recomputed
    (["novikov", "mirror_square", "--class", "zero"],
     {"_orbit_classes": 2, "vertex_orbit": 0}),
    # d_1's pivots come from the lift's spanning forest: a circle
    # makes no Laurent elimination; a surface pairs d_2 along its dual
    # forest and eliminates only the residual
    (["novikov", "circle", "--class", "dtheta"],
     {"invariant_factors": 0, "fraction_field_rank": 0, "bfs_forest": 1,
      "dual_forest_reduction": 0}),
    (["novikov", "klein", "--class", "dy"],
     {"dual_forest_reduction": 1, "invariant_factors": 1,
      "fraction_field_rank": 0}),
    # the lift's periods are walked once, in integralize; forest_pairs
    # reads them off the off-tree exponents
    (["novikov", "klein", "--class", "dy"], {"cycle_periods": 1,
                                            "vector": 0}),
    # the identity check builds its unit cells from stored cells and
    # group elements, valid by construction, so none is validated again
    (["validate", "hexagon_z2", "--cyclic", "3"], {"cell": 0}),
])
def test_each_stage_runs_once_per_class(monkeypatch, argv, want):
    counts = stage_counts(monkeypatch, argv)
    assert {name: counts[name] for name in want} == want


def tiny_document(edges):
    """A filled triangle abc and an isolated vertex d, with class w."""
    return {"name": "tri", "description": "",
            "orbit": {"vertices": ["a", "b", "c", "d"],
                      "simplices": [["a", "b", "c"], ["d"]]},
            "cocycles": {"w": {"edges": edges}}, "critical_data": {}}


CLOSED = [["a", "b", ["1/3"]], ["b", "c", ["1/3"]], ["a", "c", ["2/3"]]]


@pytest.mark.parametrize("edges, code, message", [
    (CLOSED + [["c", "b", ["0"]]], 1,
     "document error: cocycles.w.edges[3]: edge assigned twice\n"),
    ([CLOSED[0], ["a", "d", ["1/3"]], CLOSED[2]], 1,
     "document error: cocycles.w.edges[1]: ('a', 'd') is not an edge\n"),
    (CLOSED[:2] + [["a", "c", ["1/3"]]], 2,
     "validation error: cochain is not closed on triangle "
     "('a', 'b', 'c')\n"),
], ids=["reversed_duplicate", "non_edge", "open_triangle"])
def test_bad_cocycles_keep_their_exit_codes_and_messages(tmp_path, edges,
                                                         code, message):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tiny_document(edges)))
    assert run(["novikov", str(path), "--class", "w"]) == (code, "", message)


def test_closed_stdout_ends_quietly(tmp_path):
    # the report of a 20,000-edge cycle is far larger than a pipe's
    # buffer, so the command is still writing when the reader goes away
    # after its first line
    n = 20000
    names = ["v%05d" % i for i in range(n)]
    edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
    doc = {"name": "ring", "description": "a long cycle",
           "orbit": {"vertices": names, "simplices": edges},
           "cocycles": {"w": {"edges": [e + ["1"] for e in edges]}}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(orbinov.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from orbinov.cli import main; sys.exit(main())",
         "perturb", str(path), "--class", "w"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=120)
    proc.stderr.close()
    assert first == b"ring, cocycle w: rank one perturbation (precision 6)\n"
    assert b"Traceback" not in err and err == b""
    # exit 1: the README's code for a report that could not be delivered
    assert proc.returncode == 1
