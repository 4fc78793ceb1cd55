"""Strict parsing and canonical serialization of orbifold documents."""

import copy
import json
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from orbinov import CriticalData, ValidationError
from orbinov.cli import corpus_names
from orbinov.documents import (OrbifoldDocument, format_fraction,
                               load_document, loads_document,
                               parse_fraction)
from orbinov.errors import DocumentError
from oracles import reference_document


def minimal_orbit():
    return {
        "name": "seg",
        "description": "one edge",
        "orbit": {"vertices": ["a", "b"], "simplices": [["a", "b"]]},
        "cocycles": {"zero": {"symbols": [], "shadows": {}, "edges": []}},
        "critical_data": {},
    }


def circle_orbit():
    return {
        "name": "tri",
        "description": "triangle circle",
        "orbit": {"vertices": ["a", "b", "c"],
                  "simplices": [["a", "b"], ["b", "c"], ["a", "c"]]},
        "cocycles": {
            "w": {"symbols": [], "shadows": {},
                  "edges": [["a", "b", ["1/3"]],
                            ["b", "c", ["1/3"]],
                            ["c", "a", ["1/3"]]]},
        },
        "critical_data": {"flat": {"counts": [0, 0]}},
    }


def swap_action():
    return {
        "name": "swapped",
        "description": "interval with a flip",
        "action": {
            "group": {"elements": ["e", "m"],
                      "table": [["e", "m"], ["m", "e"]]},
            "space": {"vertices": ["a", "b", "c"],
                      "simplices": [["a", "b"], ["b", "c"]]},
            "vertex_maps": {"m": {"a": "c", "c": "a", "b": "b"}},
        },
        "cocycles": {"zero": {"symbols": [], "shadows": {}, "edges": []}},
        "critical_data": {},
    }


def test_parse_fraction_strictness():
    assert parse_fraction("7", "x") == Fraction(7)
    assert parse_fraction("-3/6", "x") == Fraction(-1, 2)
    for bad in ("1.5", "1/0", "1/-2", "+3", " 1", "a/b", ""):
        with pytest.raises(DocumentError):
            parse_fraction(bad, "x")


def test_parse_fraction_matches_fraction_of_the_text():
    # the value comes from the matched digit groups, not a second parse
    for text in ("0", "-0", "-0/7", "007", "-007/12", "12/8", "-12/8"):
        got = parse_fraction(text, "x")
        assert got == Fraction(text) and type(got) is Fraction
    # only ASCII digits, although Fraction itself reads the others
    for bad, shown in (("٣", "'٣'"), ("-١٢/8", "'-١٢/8'"),
                       ("4/1٣", "'4/1٣'"), ("1/٣", "'1/٣'"),
                       ("1/02", "'1/02'"), (3, "3"), (None, "None")):
        with pytest.raises(DocumentError) as err:
            parse_fraction(bad, "x.y")
        assert str(err.value) == "x.y: expected a p/q string, got " + shown


def test_format_fraction_round_trips():
    for fr in (Fraction(0), Fraction(5), Fraction(-1, 2), Fraction(22, 7)):
        assert parse_fraction(format_fraction(fr), "x") == fr


def test_round_trip_is_identity_on_canonical_documents():
    for data in (minimal_orbit(), circle_orbit(), swap_action()):
        text = OrbifoldDocument.from_dict(data).serialize()
        assert loads_document(text).serialize() == text


def test_serialization_canonicalizes_edge_orientation():
    doc = OrbifoldDocument.from_dict(circle_orbit())
    edges = doc.to_dict()["cocycles"]["w"]["edges"]
    # ("c", "a") is stored flipped with a negated value
    assert ["a", "c", ["-1/3"]] in edges
    assert edges == sorted(edges)


def test_unknown_keys_are_rejected_with_field_path():
    data = minimal_orbit()
    data["extra"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        OrbifoldDocument.from_dict(data)
    data = minimal_orbit()
    data["cocycles"]["zero"]["scale"] = 2
    with pytest.raises(DocumentError, match="zero"):
        OrbifoldDocument.from_dict(data)


def test_exactly_one_of_action_and_orbit():
    data = minimal_orbit()
    data["action"] = swap_action()["action"]
    with pytest.raises(DocumentError):
        OrbifoldDocument.from_dict(data)
    del data["action"]
    del data["orbit"]
    with pytest.raises(DocumentError):
        OrbifoldDocument.from_dict(data)


def test_decimal_edge_values_are_rejected():
    data = circle_orbit()
    data["cocycles"]["w"]["edges"][0][2] = ["0.33"]
    with pytest.raises(DocumentError, match="p/q"):
        OrbifoldDocument.from_dict(data)


def test_bad_shadows_are_rejected():
    data = circle_orbit()
    data["cocycles"]["w"]["symbols"] = ["alpha"]
    data["cocycles"]["w"]["edges"] = []
    data["cocycles"]["w"]["shadows"] = {"beta": "1.0"}
    with pytest.raises(DocumentError, match="declared symbol"):
        OrbifoldDocument.from_dict(data)
    data["cocycles"]["w"]["shadows"] = {"alpha": "unknown"}
    with pytest.raises(DocumentError, match="decimal"):
        OrbifoldDocument.from_dict(data)


def test_duplicate_and_unknown_edges_are_rejected():
    data = circle_orbit()
    data["cocycles"]["w"]["edges"].append(["b", "a", ["0"]])
    with pytest.raises(DocumentError, match="twice"):
        OrbifoldDocument.from_dict(data)
    data = circle_orbit()
    data["cocycles"]["w"]["edges"][0] = ["a", "z", ["1/3"]]
    with pytest.raises(DocumentError, match="unknown vertex"):
        OrbifoldDocument.from_dict(data)
    data = circle_orbit()
    data["orbit"]["simplices"].append(["d"])
    data["orbit"]["vertices"].append("d")
    data["cocycles"]["w"]["edges"][0] = ["a", "d", ["1/3"]]
    with pytest.raises(DocumentError, match="not an edge"):
        OrbifoldDocument.from_dict(data)


def test_value_length_must_match_symbols():
    data = circle_orbit()
    data["cocycles"]["w"]["symbols"] = ["alpha"]
    with pytest.raises(DocumentError, match="coordinates"):
        OrbifoldDocument.from_dict(data)


def test_bare_string_shorthand_for_rational_values():
    data = circle_orbit()
    data["cocycles"]["w"]["edges"] = [["a", "b", "1/3"],
                                      ["b", "c", "1/3"],
                                      ["c", "a", "1/3"]]
    doc = OrbifoldDocument.from_dict(data)
    om = doc.cochain("w")
    assert om.value("a", "b") == (Fraction(1, 3),)
    # canonical form spells the value as a list again
    assert doc.to_dict()["cocycles"]["w"]["edges"][0][2] == ["1/3"]


def test_cochain_materialization_checks_closedness():
    data = circle_orbit()
    data["orbit"]["simplices"] = [["a", "b", "c"]]
    doc = OrbifoldDocument.from_dict(data)
    with pytest.raises(ValidationError):
        doc.cochain("w")


def test_critical_blocks():
    data = circle_orbit()
    data["critical_data"]["hill"] = {"counts": [1, 1],
                                     "provenance": "by hand"}
    doc = OrbifoldDocument.from_dict(data)
    assert doc.critical_names() == ["flat", "hill"]
    block = doc.critical("hill")
    assert isinstance(block, CriticalData)
    assert block.counts == [1, 1] and block.provenance == "by hand"
    with pytest.raises(DocumentError, match="no critical data"):
        doc.critical("nope")
    data["critical_data"]["bad"] = {"counts": [1, True]}
    with pytest.raises(DocumentError, match="integers"):
        OrbifoldDocument.from_dict(data)


def test_period_space_carries_shadows():
    data = circle_orbit()
    data["cocycles"]["w"]["symbols"] = ["alpha"]
    data["cocycles"]["w"]["shadows"] = {"alpha": "1.5"}
    for edge in data["cocycles"]["w"]["edges"]:
        edge[2] = ["1/3", "0"]
    doc = OrbifoldDocument.from_dict(data)
    space = doc.period_space("w")
    assert space.symbols == ("alpha",)
    assert space.shadows["alpha"] == Fraction(3, 2)


def test_action_documents_build_simplicial_actions():
    doc = OrbifoldDocument.from_dict(swap_action())
    act = doc.action
    assert act.apply_vertex("m", "a") == "c"
    # identity map for "e" was filled in without being spelled out
    assert act.apply_vertex("e", "b") == "b"
    out = doc.to_dict()
    assert "e" not in out["action"]["vertex_maps"]


def test_vertex_maps_must_cover_moved_vertices():
    data = swap_action()
    del data["action"]["vertex_maps"]["m"]["c"]
    with pytest.raises(DocumentError):
        OrbifoldDocument.from_dict(data)


def _set_element(data, value):
    data["action"]["group"]["elements"][1] = value


def _set_table_entry(data, value):
    data["action"]["group"]["table"][0][1] = value


def _set_table_row(data, value):
    data["action"]["group"]["table"][1] = value


def _set_image(data, value):
    data["action"]["vertex_maps"]["m"]["a"] = value


@pytest.mark.parametrize("mutate,value,where", [
    (_set_element, ["m"], "action.group.elements"),
    (_set_element, {"m": "m"}, "action.group.elements"),
    (_set_table_entry, ["m"], r"action.group.table\[0\]"),
    (_set_table_entry, {"m": "m"}, r"action.group.table\[0\]"),
    (_set_table_row, "me", r"action.group.table\[1\]"),
    (_set_table_row, 2, r"action.group.table\[1\]"),
    (_set_image, ["c"], "action.vertex_maps.m"),
    (_set_image, {"c": "c"}, "action.vertex_maps.m"),
], ids=["element-list", "element-object", "entry-list", "entry-object",
        "row-string", "row-int", "image-list", "image-object"])
def test_mistyped_action_data_is_a_document_error(mutate, value, where):
    data = swap_action()
    mutate(data, value)
    with pytest.raises(DocumentError, match="^" + where + ": expected"):
        OrbifoldDocument.from_dict(data)


def test_malformed_json_reports_position():
    with pytest.raises(DocumentError, match="line"):
        loads_document("{\n  \"name\": oops\n}")


def test_load_document_missing_file():
    with pytest.raises(DocumentError, match="cannot read"):
        load_document("/nonexistent/file.json")


def test_load_document_reads_files(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(OrbifoldDocument.from_dict(circle_orbit()).serialize(),
                    encoding="utf-8")
    doc = load_document(str(path))
    assert doc.name == "tri"
    assert doc.cocycle_names() == ["w"]


def test_serialize_is_sorted_json_with_trailing_newline():
    text = OrbifoldDocument.from_dict(minimal_orbit()).serialize()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == sorted(data)


# one value of each JSON type; a mutation swaps a node for another type
JSON_VALUES = [None, True, 2, 0.5, "e", ["e"], {"e": "e"}]


def _json_type(value):
    return next(i for i, v in enumerate(JSON_VALUES)
                if type(v) is type(value))


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _outcome(parse, data):
    """The serialized document, or the refusal's class and text."""
    try:
        return parse(data).serialize()
    except (DocumentError, ValidationError) as exc:
        return type(exc), str(exc)


def _mutate(rng, data, path, rename=False):
    """Swap the node at path for a value of another JSON type or, with
    rename, a string node for a name that nothing declares."""
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if rename and isinstance(old, str):
        parent[path[-1]] = old + "_unknown"
        return
    parent[path[-1]] = copy.deepcopy(rng.choice(
        [v for i, v in enumerate(JSON_VALUES) if i != _json_type(old)]))


def test_mutated_corpus_documents_fail_only_as_document_errors():
    # each mutation is also parsed by the loader as it was before the
    # one-expression shape tests (tests/oracles.py): the same document,
    # or the same exception class with the same text
    rng = random.Random(0)
    corpus = [json.loads((resources.files("orbinov") / "corpus"
                          / (name + ".json")).read_text(encoding="utf-8"))
              for name in corpus_names()]
    assert len(corpus) == 8
    refused = 0
    for _ in range(3000):
        data = copy.deepcopy(rng.choice(corpus))
        path = rng.choice(list(_nodes(data))[1:])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        old = _json_type(parent[path[-1]])
        parent[path[-1]] = copy.deepcopy(rng.choice(
            [v for i, v in enumerate(JSON_VALUES) if i != old]))
        got = _outcome(OrbifoldDocument.from_dict, data)
        assert got == _outcome(reference_document, data), path
        if not isinstance(got, str):
            refused += 1
            continue
        assert loads_document(got).serialize() == got
        doc = loads_document(got)
        for cname in doc.cocycle_names():
            try:
                doc.cochain(cname)
            except (DocumentError, ValidationError):
                pass
    assert 0 < refused < 3000
    # two faults per document, neither inside the other (say an unknown
    # vertex in one simplex and a non-string vertex in a later one): the
    # loader must name the one the reference meets first
    rng = random.Random(1)
    refused = 0
    for _ in range(3000):
        data = copy.deepcopy(rng.choice(corpus))
        nodes = list(_nodes(data))[1:]
        first = rng.choice(nodes)
        second = rng.choice([p for p in nodes if p[:len(first)] != first
                             and first[:len(p)] != p])
        for path in (first, second):
            _mutate(rng, data, path, rename=rng.random() < 0.5)
        got = _outcome(OrbifoldDocument.from_dict, data)
        assert got == _outcome(reference_document, data), (first, second)
        refused += not isinstance(got, str)
    assert 2000 < refused < 3000


def _edge_entry_mutations(rng, data):
    """Edge entries and values made wrong in one place each, the kinds
    of mistake the one-expression shape test sends to the per-field
    checks."""
    edges = data["cocycles"]["w"]["edges"]
    i = rng.randrange(len(edges))
    bad = rng.choice([
        None, "ab", ["a", "b"], ["a", "b", "1", "2"], [1, "b", "1"],
        ["a", None, "1"], ["a", "b", None], ["a", "b", ["1", "2"]],
        ["a", "b", []], ["a", "b", [1]], ["a", "b", ["1.5"]],
        ["a", "b", ["1/0"]], ["a", "q", "1"], ["a", "a", "1"],
        ["b", "a", "1/3"], ["c", "d", "1"], {"a": "b"}])
    edges.insert(i, copy.deepcopy(bad))


def test_edge_mistakes_match_the_reference_loader():
    rng = random.Random(5)
    for _ in range(300):
        data = circle_orbit()
        data["orbit"]["vertices"].append("d")
        data["orbit"]["simplices"].append(["d"])
        _edge_entry_mutations(rng, data)
        got = _outcome(OrbifoldDocument.from_dict, data)
        assert got == _outcome(reference_document, data)
        assert isinstance(got, tuple) and got[0] is DocumentError


def test_cocycle_names_with_a_percent_sign_load_and_name_their_faults():
    # the name is part of each fault's path, never a format string
    text = (resources.files("orbinov") / "corpus"
            / "circle.json").read_text(encoding="utf-8")
    for name in ("50%", "a%b", "x%s", "%%", "%d"):
        data = json.loads(text)
        specs = data["cocycles"]
        cname = next(c for c in specs if specs[c]["edges"])
        specs[name] = specs.pop(cname)
        got = _outcome(OrbifoldDocument.from_dict, data)
        assert isinstance(got, str)
        assert got == _outcome(reference_document, data)
        loaded = OrbifoldDocument.from_dict(data)
        assert loaded.cocycle_specs[name] == (
            OrbifoldDocument.from_dict(json.loads(text))
            .cocycle_specs[cname])
        specs[name]["edges"][0][0] = "nowhere"
        got = _outcome(OrbifoldDocument.from_dict, data)
        assert got == _outcome(reference_document, data)
        assert got[0] is DocumentError
        assert got[1].startswith("cocycles.%s.edges[0]: " % (name,))


def test_repeated_fraction_strings_share_one_parse():
    # one Fraction per distinct p/q string per cocycle; the values and
    # their orientation are as when each coordinate is parsed alone
    data = circle_orbit()
    data["cocycles"]["w"]["edges"] = [["a", "b", "1/3"], ["b", "c", "1/3"],
                                      ["c", "a", "1/3"]]
    doc = OrbifoldDocument.from_dict(data)
    values = doc.cocycle_specs["w"]["values"]
    assert values == reference_document(data).cocycle_specs["w"]["values"]
    assert values[("a", "b")][0] is values[("b", "c")][0]
    assert values[("a", "c")] == (Fraction(-1, 3),)


def test_repeated_json_keys_are_refused():
    data = circle_orbit()
    spec = json.dumps({"w": data["cocycles"]["w"]})
    text = json.dumps(data)
    doubled = text.replace(spec, spec[:-1] + ', "w": {"edges": []}}')
    # plain JSON keeps the last value: w would load empty
    assert json.loads(doubled)["cocycles"]["w"] == {"edges": []}
    with pytest.raises(DocumentError) as err:
        loads_document(doubled)
    assert str(err.value) == "repeated key 'w' in one JSON object"
    with pytest.raises(DocumentError, match="repeated key 'name'"):
        loads_document('{"name": "a", "description": "", "name": "b"}')


def test_non_ascii_digits_are_refused():
    data = circle_orbit()
    data["cocycles"]["w"]["edges"][0][2] = ["4/1٣"]
    with pytest.raises(DocumentError) as err:
        OrbifoldDocument.from_dict(data)
    assert str(err.value) == ("cocycles.w.edges[0]: expected a p/q "
                              "string, got '4/1٣'")
    data = circle_orbit()
    data["cocycles"]["w"]["symbols"] = ["alpha"]
    data["cocycles"]["w"]["edges"] = []
    data["cocycles"]["w"]["shadows"] = {"alpha": "١.٥"}
    with pytest.raises(DocumentError, match="expected a decimal string"):
        OrbifoldDocument.from_dict(data)


def test_integers_at_the_digit_limit_still_load():
    limit = sys.get_int_max_str_digits()
    data = circle_orbit()
    data["cocycles"]["w"]["symbols"] = ["alpha"]
    data["cocycles"]["w"]["shadows"] = {"alpha": "7" * limit + "."
                                        + "5" * limit}
    for edge in data["cocycles"]["w"]["edges"]:
        edge[2] = ["9" * limit + "/" + "3" * limit, "0"]
    data["critical_data"]["flat"]["counts"] = [0, 10 ** (limit - 1)]
    doc = loads_document(json.dumps(data))
    assert doc.period_space("w").shadows["alpha"] > 7 * 10 ** (limit - 1)
    assert doc.critical("flat").counts[1] == 10 ** (limit - 1)
