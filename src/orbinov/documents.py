"""Reading and writing the engine's document format.

A document is a JSON object describing one orbifold presentation plus
its named cocycles and optional critical point counts.  Exactly one of
"action" (a finite group acting on a complex) or "orbit" (a bare
complex) is present.  All numbers are exact: rationals are "p/q"
strings, and the only decimals allowed are the advisory shadows
attached to declared irrational symbols.

Parsing is strict.  Unknown keys, floats where rationals belong,
digits other than ASCII 0-9, integers too long for int(), dangling
vertices and malformed tables are DocumentErrors with a field path,
and a key repeated in one JSON object is a DocumentError naming the
key; mathematical violations (a value on a non-edge, a non-closed
cocycle) surface later as ValidationErrors when the cochain is built.
Every cocycle is parsed and checked on load, used or not.
serialize() emits a canonical form: sorted keys, edges oriented by
vertex order, maximal simplices only.  parse(serialize(parse(s)))
equals parse(s).
"""

import json
import re
import sys
from fractions import Fraction

from .actions import FiniteGroup, SimplicialAction
from .cochains import PeriodSpace, RationalCochain1, vec_neg
from .complexes import build_complex
from .errors import DocumentError, ValidationError
from .inequalities import CriticalData

__all__ = ["OrbifoldDocument", "load_document", "loads_document",
           "parse_fraction", "format_fraction"]

_FRACTION_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?\Z", re.ASCII)
_DECIMAL_RE = re.compile(r"-?\d+(\.\d+)?\Z", re.ASCII)
_SPACE_KEYS = {"vertices", "simplices"}
_COCYCLE_KEYS = {"symbols", "shadows", "edges"}


def _digit_limit():
    # the most digits int() reads, 0 for no limit (as before 3.10.7)
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(where, digits):
    return DocumentError("%s: an integer of %d digits is over the %d-digit "
                         "limit" % (where, digits, _digit_limit()))


def parse_fraction(text, where):
    """Exact rational from a "p/q" or "p" string.

    >>> parse_fraction("-3/6", "x")
    Fraction(-1, 2)
    """
    match = _FRACTION_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentError("%s: expected a p/q string, got %r"
                            % (where, text))
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ValueError:
        raise _too_long(where, max(len(num.lstrip("-")),
                                   len(den or ""))) from None


def format_fraction(fr):
    """Canonical "p/q" or "p" string of a rational.

    >>> format_fraction(Fraction(-2, 4)), format_fraction(Fraction(5))
    ('-1/2', '5')
    """
    if fr.denominator == 1:
        return "%d" % (fr.numerator,)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _expect(obj, kind, where, kindname):
    if not isinstance(obj, kind):
        raise DocumentError("%s: expected %s, got %r"
                            % (where, kindname, type(obj).__name__))
    return obj


def _check_keys(obj, allowed, where):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise DocumentError("%s: unknown keys %s" % (where, extra))


def _parse_space(obj, where):
    # One expression tests the shape.  A simplex vertex that is not a
    # string is not in the vertex index, so build_complex refuses it;
    # on any refusal the per-field checks run first and name the bad
    # entry, as they did before the complex was built.
    if (isinstance(obj, dict) and obj.keys() == _SPACE_KEYS
            and isinstance(obj["vertices"], list)
            and isinstance(obj["simplices"], list)
            and all(map(str.__instancecheck__, obj["vertices"]))
            and all(map(list.__instancecheck__, obj["simplices"]))):
        try:
            return build_complex(obj["simplices"], vertices=obj["vertices"])
        except (DocumentError, TypeError):
            pass
    _check_space(obj, where)
    return build_complex(obj["simplices"], vertices=obj["vertices"])


def _check_space(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("vertices", "simplices"), where)
    if "vertices" not in obj or "simplices" not in obj:
        raise DocumentError("%s: needs vertices and simplices" % (where,))
    vertices = _expect(obj["vertices"], list, where + ".vertices", "a list")
    for v in vertices:
        _expect(v, str, where + ".vertices", "vertex names")
    simplices = _expect(obj["simplices"], list, where + ".simplices",
                        "a list")
    for i, cell in enumerate(simplices):
        spot = "%s.simplices[%d]" % (where, i)
        _expect(cell, list, spot, "a list")
        for v in cell:
            _expect(v, str, spot, "vertex names")


def _parse_group(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("elements", "table"), where)
    if "elements" not in obj or "table" not in obj:
        raise DocumentError("%s: needs elements and table" % (where,))
    elements = _expect(obj["elements"], list, where + ".elements", "a list")
    for g in elements:
        _expect(g, str, where + ".elements", "element names")
    table = _expect(obj["table"], list, where + ".table", "a list")
    for i, row in enumerate(table):
        spot = "%s.table[%d]" % (where, i)
        for g in _expect(row, list, spot, "a list"):
            _expect(g, str, spot, "element names")
    return FiniteGroup(elements, table)


def _parse_action(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("group", "space", "vertex_maps"), where)
    for field in ("group", "space", "vertex_maps"):
        if field not in obj:
            raise DocumentError("%s: needs %s" % (where, field))
    group = _parse_group(obj["group"], where + ".group")
    space = _parse_space(obj["space"], where + ".space")
    raw = _expect(obj["vertex_maps"], dict, where + ".vertex_maps",
                  "an object")
    for g, table in raw.items():
        if not (isinstance(table, dict)
                and all(map(str.__instancecheck__, table.values()))):
            spot = "%s.vertex_maps.%s" % (where, g)
            for image in _expect(table, dict, spot, "an object").values():
                _expect(image, str, spot, "vertex names")
    return SimplicialAction(group, space, raw)


def _parse_cocycle(obj, X, where):
    _expect(obj, dict, where, "an object")
    if not obj.keys() <= _COCYCLE_KEYS:
        _check_keys(obj, _COCYCLE_KEYS, where)
    symbols = _expect(obj.get("symbols", []), list, where + ".symbols",
                      "a list")
    for s in symbols:
        _expect(s, str, where + ".symbols", "symbol names")
    if len(set(symbols)) != len(symbols):
        raise DocumentError("%s.symbols: repeated symbol" % (where,))
    shadows = _expect(obj.get("shadows", {}), dict, where + ".shadows",
                      "an object")
    for sym, dec in shadows.items():
        spot = "%s.shadows.%s" % (where, sym)
        if sym not in symbols:
            raise DocumentError("%s: not a declared symbol" % (spot,))
        if not isinstance(dec, str) or not _DECIMAL_RE.match(dec):
            raise DocumentError("%s: expected a decimal string, got %r"
                                % (spot, dec))
        # Fraction(dec) reads the whole and decimal parts with int()
        digits = max(map(len, dec.lstrip("-").split(".")))
        if digits > _digit_limit() > 0:
            raise _too_long(spot, digits)
    k = 1 + len(symbols)
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        _expect(edges, list, where + ".edges", "a list")
    orient = X.orient
    parsed = {}         # each distinct p/q string is parsed once
    cached = parsed.__getitem__
    values = {}
    for i, entry in enumerate(edges):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            _check_edge(entry, "%s.edges[%d]" % (where, i))
        u, v, value = entry
        try:
            key, sign = orient(u, v)
        except (DocumentError, ValidationError) as exc:
            raise DocumentError("%s.edges[%d]: %s" % (where, i, exc)) from None
        if key in values:
            raise DocumentError("%s.edges[%d]: edge assigned twice"
                                % (where, i))
        if isinstance(value, str):
            value = [value]
        if not (isinstance(value, list) and len(value) == k):
            _check_value(value, k, "%s.edges[%d]" % (where, i))
        try:
            vec = tuple(map(cached, value))
        except (KeyError, TypeError):
            spot = "%s.edges[%d]" % (where, i)
            for x in value:
                if not (isinstance(x, str) and x in parsed):
                    parsed[x] = parse_fraction(x, spot)
            vec = tuple(map(cached, value))
        values[key] = vec if sign > 0 else vec_neg(vec)
    return {"symbols": list(symbols),
            "shadows": {s: shadows[s] for s in symbols if s in shadows},
            "values": values}


def _check_edge(entry, spot):
    _expect(entry, list, spot, "a [u, v, value] triple")
    if len(entry) != 3:
        raise DocumentError("%s: expected a [u, v, value] triple" % (spot,))
    _expect(entry[0], str, spot, "vertex names")
    _expect(entry[1], str, spot, "vertex names")


def _check_value(value, k, spot):
    _expect(value, list, spot, "a list of p/q strings")
    if len(value) != k:
        raise DocumentError(
            "%s: value needs %d coordinates (1 + symbols), got %d"
            % (spot, k, len(value)))


def _parse_critical(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("counts", "provenance"), where)
    counts = _expect(obj.get("counts", []), list, where + ".counts",
                     "a list")
    for c in counts:
        if not isinstance(c, int) or isinstance(c, bool):
            raise DocumentError("%s.counts: expected integers, got %r"
                                % (where, c))
    provenance = obj.get("provenance")
    if provenance is not None:
        _expect(provenance, str, where + ".provenance", "a string")
    return CriticalData(counts, provenance)


class OrbifoldDocument:
    """One presentation, its named cocycles, and critical data."""

    __slots__ = ("name", "description", "action", "space",
                 "cocycle_specs", "critical_blocks")

    def __init__(self, name, description, action, space,
                 cocycle_specs, critical_blocks):
        self.name = name
        self.description = description
        self.action = action
        self.space = space
        self.cocycle_specs = cocycle_specs
        self.critical_blocks = critical_blocks

    @classmethod
    def from_dict(cls, data):
        _expect(data, dict, "document", "an object")
        _check_keys(data, ("name", "description", "action", "orbit",
                           "cocycles", "critical_data"), "document")
        name = _expect(data.get("name", ""), str, "name", "a string")
        description = _expect(data.get("description", ""), str,
                              "description", "a string")
        has_action = "action" in data
        has_orbit = "orbit" in data
        if has_action == has_orbit:
            raise DocumentError(
                "document: exactly one of action and orbit is required")
        if has_action:
            action = _parse_action(data["action"], "action")
            space = action.complex
        else:
            action = None
            space = _parse_space(data["orbit"], "orbit")
        raw_cocycles = _expect(data.get("cocycles", {}), dict, "cocycles",
                               "an object")
        cocycle_specs = {}
        for cname, spec in raw_cocycles.items():
            cocycle_specs[cname] = _parse_cocycle(
                spec, space, "cocycles.%s" % (cname,))
        raw_critical = _expect(data.get("critical_data", {}), dict,
                               "critical_data", "an object")
        critical_blocks = {}
        for bname, spec in raw_critical.items():
            critical_blocks[bname] = _parse_critical(
                spec, "critical_data.%s" % (bname,))
        return cls(name, description, action, space,
                   cocycle_specs, critical_blocks)

    def cocycle_names(self):
        return sorted(self.cocycle_specs)

    def critical_names(self):
        return sorted(self.critical_blocks)

    def period_space(self, name):
        spec = self._spec(name)
        shadows = {s: Fraction(d) for s, d in spec["shadows"].items()}
        return PeriodSpace(spec["symbols"], shadows)

    def cochain(self, name):
        """Materialize a named cocycle; closedness is checked here.  The
        parser already oriented each value and made it Fractions."""
        return RationalCochain1._of(self.space, self._spec(name)["values"],
                                    self.period_space(name))

    def critical(self, name):
        if name not in self.critical_blocks:
            raise DocumentError("no critical data named %r (have: %s)"
                                % (name, ", ".join(self.critical_names())))
        return self.critical_blocks[name]

    def _spec(self, name):
        if name not in self.cocycle_specs:
            raise DocumentError("no cocycle named %r (have: %s)"
                                % (name, ", ".join(self.cocycle_names())))
        return self.cocycle_specs[name]

    def _space_dict(self, X):
        key = X.vertex_index.__getitem__
        return {"vertices": list(X.vertices),
                "simplices": sorted([list(c) for c in X.maximal_cells()],
                                    key=lambda c: [key(v) for v in c])}

    def to_dict(self):
        out = {"name": self.name, "description": self.description}
        if self.action is not None:
            group = self.action.group
            maps = {}
            for g in group.elements:
                table = self.action.vertex_maps[g]
                if any(table[v] != v for v in self.space.vertices):
                    maps[g] = {v: table[v] for v in self.space.vertices}
            out["action"] = {
                "group": {"elements": list(group.elements),
                          "table": [[group.mul(a, b)
                                     for b in group.elements]
                                    for a in group.elements]},
                "space": self._space_dict(self.space),
                "vertex_maps": maps,
            }
        else:
            out["orbit"] = self._space_dict(self.space)
        key = self.space.vertex_index.__getitem__
        cocycles = {}
        for cname in self.cocycle_names():
            spec = self.cocycle_specs[cname]
            edges = sorted(spec["values"].items(),
                           key=lambda e: (key(e[0][0]), key(e[0][1])))
            cocycles[cname] = {
                "symbols": list(spec["symbols"]),
                "shadows": dict(spec["shadows"]),
                "edges": [[u, v, [format_fraction(x) for x in vec]]
                          for (u, v), vec in edges],
            }
        out["cocycles"] = cocycles
        critical = {}
        for bname in self.critical_names():
            cd = self.critical_blocks[bname]
            block = {"counts": list(cd.counts)}
            if cd.provenance is not None:
                block["provenance"] = cd.provenance
            critical[bname] = block
        out["critical_data"] = critical
        return out

    def serialize(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys)
                        if key in keys[:i])
        raise DocumentError("repeated key %r in one JSON object"
                            % (repeated,))
    return obj


class _Literal(str):
    """The text of a JSON integer literal, as written."""


def _long_literal(text):
    """The field path and digit count of the first JSON integer literal
    in text that int() refuses as too long, or None."""
    stack = [(None, json.loads(text, parse_int=_Literal))]
    while stack:
        where, node = stack.pop()
        if isinstance(node, _Literal):
            digits = len(node.lstrip("-"))
            if digits > _digit_limit() > 0:
                return "document" if where is None else where, digits
        elif isinstance(node, dict):
            stack.extend(reversed([
                (key if where is None else where + "." + key, child)
                for key, child in node.items()]))
        elif isinstance(node, list):
            top = "document" if where is None else where
            stack.extend(reversed([("%s[%d]" % (top, i), child)
                                   for i, child in enumerate(node)]))
    return None


def loads_document(text):
    """Parse a document from JSON text.  A repeated key in any object
    is a DocumentError, and so is an integer too long for int()."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError("line %d column %d: %s"
                            % (exc.lineno, exc.colno, exc.msg)) from exc
    except RecursionError as exc:
        raise DocumentError("JSON nested too deeply") from exc
    except ValueError:
        found = _long_literal(text)
        if found is None:
            raise
        raise _too_long(*found) from None
    return OrbifoldDocument.from_dict(data)


def load_document(path):
    """Parse a document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc
    return loads_document(text)
