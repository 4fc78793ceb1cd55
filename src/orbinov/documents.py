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
from itertools import chain

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


def _expect_each(items, kind, where, kindname):
    """items, each of them of kind: one test at C speed, and a walk
    that names the first offender only when it fails."""
    if not all(map(kind.__instancecheck__, items)):
        for x in items:
            _expect(x, kind, where, kindname)
    return items


def _expect_rows(rows, where, kindname):
    """rows, a list of lists of strings, tested as in _expect_each; a
    fault in row i is named at where[i]."""
    _expect(rows, list, where, "a list")
    if not (all(map(list.__instancecheck__, rows))
            and all(map(str.__instancecheck__, chain.from_iterable(rows)))):
        for i, row in enumerate(rows):
            spot = "%s[%d]" % (where, i)
            _expect_each(_expect(row, list, spot, "a list"), str, spot,
                         kindname)
    return rows


def _check_keys(obj, allowed, where):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise DocumentError("%s: unknown keys %s" % (where, extra))


def _parse_space(obj, where):
    # every field is checked once, in document order, and only then is
    # the complex built, so build_complex sees strings in lists alone
    _expect(obj, dict, where, "an object")
    if obj.keys() != _SPACE_KEYS:
        _check_keys(obj, _SPACE_KEYS, where)
        raise DocumentError("%s: needs vertices and simplices" % (where,))
    vertices = _expect(obj["vertices"], list, where + ".vertices", "a list")
    _expect_each(vertices, str, where + ".vertices", "vertex names")
    simplices = _expect_rows(obj["simplices"], where + ".simplices",
                             "vertex names")
    return build_complex(simplices, vertices=vertices)


def _parse_group(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("elements", "table"), where)
    if "elements" not in obj or "table" not in obj:
        raise DocumentError("%s: needs elements and table" % (where,))
    elements = _expect(obj["elements"], list, where + ".elements", "a list")
    _expect_each(elements, str, where + ".elements", "element names")
    table = _expect_rows(obj["table"], where + ".table", "element names")
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
        spot = "%s.vertex_maps.%s" % (where, g)
        _expect_each(_expect(table, dict, spot, "an object").values(), str,
                     spot, "vertex names")
    return SimplicialAction(group, space, raw)


def _parse_cocycle(obj, X, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, _COCYCLE_KEYS, where)
    symbols = _expect(obj.get("symbols", []), list, where + ".symbols",
                      "a list")
    _expect_each(symbols, str, where + ".symbols", "symbol names")
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
    edges = _expect(obj.get("edges", []), list, where + ".edges", "a list")
    orient = X.orient
    # formatted only to name a fault; a cocycle's name may hold a '%'
    spot = where.replace("%", "%%") + ".edges[%d]"
    parsed = {}         # each distinct p/q string is parsed once
    values = {}
    for i, entry in enumerate(edges):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            if len(_expect(entry, list, spot % i,
                           "a [u, v, value] triple")) != 3:
                raise DocumentError("%s: expected a [u, v, value] triple"
                                    % (spot % i,))
            _expect_each(entry[:2], str, spot % i, "vertex names")
        u, v, value = entry
        try:
            key, sign = orient(u, v)
        except (DocumentError, ValidationError) as exc:
            raise DocumentError("%s: %s" % (spot % i, exc)) from None
        if key in values:
            raise DocumentError("%s: edge assigned twice" % (spot % i,))
        if isinstance(value, str):
            value = [value]
        if not (isinstance(value, list) and len(value) == k):
            _expect(value, list, spot % i, "a list of p/q strings")
            raise DocumentError(
                "%s: value needs %d coordinates (1 + symbols), got %d"
                % (spot % i, k, len(value)))
        for x in value:
            if not (isinstance(x, str) and x in parsed):
                parsed[x] = parse_fraction(x, spot % i)
        vec = tuple(map(parsed.__getitem__, value))
        values[key] = vec if sign > 0 else vec_neg(vec)
    return {"symbols": list(symbols),
            "shadows": {s: shadows[s] for s in symbols if s in shadows},
            "values": values}


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
