"""Stable JSON documents for spaces, functions, sequences, bases, witnesses.

Every quantity is exact: rationals travel as strings "p/q" (or "p"),
complex values as {"re": ..., "im": ...}, and nothing is ever a float.
Serialization is canonical — fixed field order per document kind, node
and copy keys in ascending numeric order, two-space indentation, one
trailing newline — so documents diff cleanly and parsing then
serializing reproduces a canonical file byte for byte.  Unknown fields
are rejected everywhere rather than ignored: a typo in a key should be
a loud error, not a silently dropped constraint.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Union

from .errors import DocumentError, InternalCheckError, OscalError
from .func import QFunction, Scalar
from .rationals import GaussianRational, format_rational, parse_rational
from .space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    SpaceNode,
    TreeSpace,
)

if TYPE_CHECKING:
    from .extraction import CIFunction, CopyTable, FunctionSeq, IndexSeq, WitnessBundle
    from .seqlab import PolyBasis

    Document = Union[
        TreeSpace, QFunction, CIFunction, FunctionSeq, PolyBasis, WitnessBundle
    ]

KINDS = ("space", "qfunction", "cifunction", "sequence", "basis", "witness")


def _fail(path: str, message: str) -> DocumentError:
    return DocumentError("%s: %s" % (path, message) if path else message)


@contextmanager
def _input_errors(path: str):
    """Report the package's input errors raised inside the block as a
    DocumentError at ``path``; internal faults and anything else propagate."""
    try:
        yield
    except (DocumentError, InternalCheckError):
        raise
    except OscalError as exc:
        raise _fail(path, str(exc)) from None


def _node_key(key: str, path: str, what: str = "node key") -> int:
    digits = key[1:] if key.startswith("-") else key
    try:
        if digits.isascii() and digits.isdigit():
            return int(key)
    except ValueError:  # past int's digit limit
        pass
    raise _fail(path, "non-numeric %s %r" % (what, key))


def _sub(path: str, name: str) -> str:
    return "%s.%s" % (path, name) if path else name


def _expect_object(obj: Any, path: str, fields: tuple[str, ...]) -> dict:
    if not isinstance(obj, dict):
        raise _fail(path, "expected an object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise _fail(path, "unknown field %r" % unknown[0])
    missing = [f for f in fields if f not in obj]
    if missing:
        raise _fail(path, "missing field %r" % missing[0])
    return obj


def _expect_int(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(path, "expected an integer")
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise _fail(path, "expected an array")
    return obj


def _expect_str(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        raise _fail(path, "expected a string")
    return obj


# -- scalars -------------------------------------------------------------------


def scalar_to_json(value: Scalar) -> Any:
    if isinstance(value, GaussianRational):
        return {
            "re": format_rational(value.re),
            "im": format_rational(value.im),
        }
    return format_rational(value)


def scalar_from_json(obj: Any, path: str) -> Scalar:
    if isinstance(obj, str):
        try:
            return parse_rational(obj)
        except ValueError as exc:
            raise _fail(path, str(exc)) from None
    if isinstance(obj, dict):
        _expect_object(obj, path, ("re", "im"))
        if isinstance(obj["re"], dict) or isinstance(obj["im"], dict):
            raise _fail(path, "nested complex parts")
        re = scalar_from_json(obj["re"], path + ".re")
        im = scalar_from_json(obj["im"], path + ".im")
        return GaussianRational(re, im)
    raise _fail(path, "expected a rational string or {re, im}")


def rational_from_json(obj: Any, path: str) -> Fraction:
    value = scalar_from_json(obj, path)
    if isinstance(value, GaussianRational):
        raise _fail(path, "expected a rational, got a complex value")
    return value


# -- spaces --------------------------------------------------------------------


def space_to_obj(space: TreeSpace) -> dict:
    nodes = []
    for i in space.node_ids():
        n = space.node(i)
        nodes.append(
            {
                "id": n.ident,
                "prefix": list(n.prefix),
                "recurring": list(n.recurring),
            }
        )
    return {"nodes": nodes, "root": space.root}


def space_from_obj(obj: Any, path: str) -> TreeSpace:
    _expect_object(obj, path, ("nodes", "root"))
    nodes = []
    for idx, entry in enumerate(_expect_list(obj["nodes"], _sub(path, "nodes"))):
        epath = "%s[%d]" % (_sub(path, "nodes"), idx)
        _expect_object(entry, epath, ("id", "prefix", "recurring"))
        ident = _expect_int(entry["id"], epath + ".id")
        prefix = tuple(
            _expect_int(c, "%s.prefix[%d]" % (epath, j))
            for j, c in enumerate(_expect_list(entry["prefix"], epath + ".prefix"))
        )
        recurring = tuple(
            _expect_int(c, "%s.recurring[%d]" % (epath, j))
            for j, c in enumerate(
                _expect_list(entry["recurring"], epath + ".recurring")
            )
        )
        nodes.append(SpaceNode(ident, prefix, recurring))
    root = _expect_int(obj["root"], _sub(path, "root"))
    with _input_errors(path):
        return TreeSpace(nodes, root)


# -- node-keyed value maps -----------------------------------------------------


def values_to_obj(values: dict[int, Scalar]) -> dict:
    return {str(i): scalar_to_json(values[i]) for i in sorted(values)}


def values_from_obj(obj: Any, space: TreeSpace, path: str) -> dict[int, Scalar]:
    if not isinstance(obj, dict):
        raise _fail(path, "expected an object keyed by node id")
    out = {}
    for key, raw in obj.items():
        out[_node_key(key, path)] = scalar_from_json(raw, "%s.%s" % (path, key))
    if set(out) != set(space.node_ids()):
        raise _fail(path, "value keys must cover the space's nodes exactly")
    return out


# -- points and steps ----------------------------------------------------------


def point_to_json(point: PointRef) -> list:
    out = []
    for s in point.steps:
        if isinstance(s, PrefixStep):
            out.append(["p", s.child])
        else:
            out.append(["r", s.pattern, s.copy])
    return out


def point_from_json(obj: Any, path: str) -> PointRef:
    steps = []
    for idx, raw in enumerate(_expect_list(obj, path)):
        spath = "%s[%d]" % (path, idx)
        raw = _expect_list(raw, spath)
        if not raw or raw[0] not in ("p", "r"):
            raise _fail(spath, 'step must start with "p" or "r"')
        if raw[0] == "p":
            if len(raw) != 2:
                raise _fail(spath, 'prefix step is ["p", child]')
            steps.append(PrefixStep(_expect_int(raw[1], spath)))
        else:
            if len(raw) != 3:
                raise _fail(spath, 'recurring step is ["r", pattern, copy]')
            steps.append(
                RecurringStep(
                    _expect_int(raw[1], spath), _expect_int(raw[2], spath)
                )
            )
    return PointRef(tuple(steps))


# -- per-kind serialization ----------------------------------------------------


def _space_doc(space: TreeSpace) -> dict:
    body = space_to_obj(space)
    return {"kind": "space", "nodes": body["nodes"], "root": body["root"]}


def _qfunction_doc(f: QFunction) -> dict:
    return {
        "kind": "qfunction",
        "space": space_to_obj(f.space),
        "values": values_to_obj(f.values),
    }


def _table_to_obj(table: CopyTable) -> dict:
    return {
        "upto": [[str(k), scalar_to_json(v)] for k, v in table.entries],
        "tail": scalar_to_json(table.tail),
    }


def _table_from_obj(obj: Any, path: str) -> CopyTable:
    from .extraction import CopyTable
    _expect_object(obj, path, ("upto", "tail"))
    entries = []
    for idx, pair in enumerate(_expect_list(obj["upto"], path + ".upto")):
        ppath = "%s.upto[%d]" % (path, idx)
        pair = _expect_list(pair, ppath)
        if len(pair) != 2:
            raise _fail(ppath, 'expected ["k", value]')
        key = _expect_str(pair[0], ppath)
        index = _node_key(key, ppath, "copy index")
        entries.append((index, scalar_from_json(pair[1], ppath)))
    tail = scalar_from_json(obj["tail"], path + ".tail")
    with _input_errors(path):
        return CopyTable(tuple(entries), tail)


def _cifunction_doc(f: CIFunction) -> dict:
    return {
        "kind": "cifunction",
        "space": space_to_obj(f.space),
        "tables": {
            str(i): _table_to_obj(f.tables[i]) for i in sorted(f.tables)
        },
    }


def _sequence_doc(seq: FunctionSeq) -> dict:
    from .extraction import EventuallyLimit
    g = seq.generator
    if isinstance(g, EventuallyLimit):
        gen = {
            "type": "eventually-limit",
            "prefix": [values_to_obj(term.values) for term in g.prefix],
        }
    else:
        gen = {
            "type": "moving-step",
            "moving": None if g.moving is None else sorted(g.moving),
        }
    return {
        "kind": "sequence",
        "space": space_to_obj(seq.space),
        "limit": values_to_obj(seq.limit.values),
        "generator": gen,
    }


def _basis_doc(basis: PolyBasis) -> dict:
    return {
        "kind": "basis",
        "norm": basis.space.kind.value,
        "vectors": [
            [format_rational(c) for c in v] for v in basis.vectors
        ],
    }


def _indices_to_obj(indices: IndexSeq) -> dict:
    return {"prefix": list(indices.prefix), "offset": indices.offset}


def _witness_doc(w: WitnessBundle) -> dict:
    return {
        "kind": "witness",
        "indices": _indices_to_obj(w.indices),
        "m": list(w.m),
        "k": w.k,
        "t": point_to_json(w.t),
        "eta": format_rational(w.eta),
        "lam": format_rational(w.lam),
        "points": [point_to_json(p) for p in w.points],
        "deltas": [format_rational(d) for d in w.deltas],
    }


# (module, class, kind, serializer).  A document's class lives in a module
# that is already imported, so dispatch only tests kinds whose module is in
# sys.modules and never imports one itself.
_SERIALIZERS = (
    ("space", "TreeSpace", "space", _space_doc),
    ("func", "QFunction", "qfunction", _qfunction_doc),
    ("extraction", "CIFunction", "cifunction", _cifunction_doc),
    ("extraction", "FunctionSeq", "sequence", _sequence_doc),
    ("seqlab", "PolyBasis", "basis", _basis_doc),
    ("extraction", "WitnessBundle", "witness", _witness_doc),
)


def _serializer(doc: Document):
    for module, cls, kind, ser in _SERIALIZERS:
        mod = sys.modules.get("%s.%s" % (__package__, module))
        if mod is not None and isinstance(doc, getattr(mod, cls)):
            return kind, ser
    raise DocumentError("not a document type: %r" % type(doc).__name__)


def document_kind(doc: Document) -> str:
    return _serializer(doc)[0]


def document_obj(doc: Document) -> dict:
    """The canonical JSON object for a document (what dumps serializes)."""
    return _serializer(doc)[1](doc)


def dumps(doc: Document) -> str:
    return json.dumps(document_obj(doc), indent=2) + "\n"


# -- per-kind parsing ----------------------------------------------------------


def _parse_space(obj: dict) -> TreeSpace:
    _expect_object(obj, "", ("kind", "nodes", "root"))
    return space_from_obj({"nodes": obj["nodes"], "root": obj["root"]}, "")


def _parse_qfunction(obj: dict) -> QFunction:
    _expect_object(obj, "", ("kind", "space", "values"))
    space = space_from_obj(obj["space"], "space")
    space.require_valid()
    values = values_from_obj(obj["values"], space, "values")
    return QFunction(space, values)


def _parse_cifunction(obj: dict) -> CIFunction:
    from .extraction import CIFunction
    _expect_object(obj, "", ("kind", "space", "tables"))
    space = space_from_obj(obj["space"], "space")
    space.require_valid()
    raw = obj["tables"]
    if not isinstance(raw, dict):
        raise _fail("tables", "expected an object keyed by node id")
    tables = {}
    for key, tobj in raw.items():
        tables[_node_key(key, "tables")] = _table_from_obj(tobj, "tables.%s" % key)
    with _input_errors("tables"):
        return CIFunction(space, tables)


def _parse_sequence(obj: dict) -> FunctionSeq:
    from .extraction import EventuallyLimit, FunctionSeq, MovingStep
    _expect_object(obj, "", ("kind", "space", "limit", "generator"))
    space = space_from_obj(obj["space"], "space")
    space.require_valid()
    limit = QFunction(space, values_from_obj(obj["limit"], space, "limit"))
    gobj = obj["generator"]
    if not isinstance(gobj, dict) or "type" not in gobj:
        raise _fail("generator", "expected an object with a type")
    gtype = gobj["type"]
    if gtype == "moving-step":
        _expect_object(gobj, "generator", ("type", "moving"))
        moving = gobj["moving"]
        if moving is None:
            gen = MovingStep(None)
        else:
            gen = MovingStep(
                frozenset(
                    _expect_int(p, "generator.moving[%d]" % j)
                    for j, p in enumerate(
                        _expect_list(moving, "generator.moving")
                    )
                )
            )
    elif gtype == "eventually-limit":
        _expect_object(gobj, "generator", ("type", "prefix"))
        terms = []
        for j, vobj in enumerate(
            _expect_list(gobj["prefix"], "generator.prefix")
        ):
            terms.append(
                QFunction(
                    space,
                    values_from_obj(
                        vobj, space, "generator.prefix[%d]" % j
                    ),
                )
            )
        gen = EventuallyLimit(tuple(terms))
    else:
        raise _fail("generator.type", "unknown generator type %r" % gtype)
    return FunctionSeq(limit, gen)


def _parse_basis(obj: dict) -> PolyBasis:
    from .seqlab import NormKind, PolyBasis, PolySpace
    _expect_object(obj, "", ("kind", "norm", "vectors"))
    norm = _expect_str(obj["norm"], "norm")
    try:
        kind = NormKind(norm)
    except ValueError:
        raise _fail("norm", "unknown norm %r" % norm) from None
    rows = _expect_list(obj["vectors"], "vectors")
    if not rows:
        raise _fail("vectors", "a basis needs at least one vector")
    vectors = []
    for i, row in enumerate(rows):
        row = _expect_list(row, "vectors[%d]" % i)
        vectors.append(
            tuple(
                rational_from_json(c, "vectors[%d][%d]" % (i, j))
                for j, c in enumerate(row)
            )
        )
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise _fail("vectors", "vectors must share one length")
    return PolyBasis(PolySpace(dims.pop(), kind), tuple(vectors))


def _parse_witness(obj: dict) -> WitnessBundle:
    from .extraction import IndexSeq, WitnessBundle
    _expect_object(
        obj,
        "",
        ("kind", "indices", "m", "k", "t", "eta", "lam", "points", "deltas"),
    )
    iobj = _expect_object(obj["indices"], "indices", ("prefix", "offset"))
    prefix = tuple(
        _expect_int(v, "indices.prefix[%d]" % j)
        for j, v in enumerate(_expect_list(iobj["prefix"], "indices.prefix"))
    )
    indices = IndexSeq(prefix, _expect_int(iobj["offset"], "indices.offset"))
    m = tuple(
        _expect_int(v, "m[%d]" % j)
        for j, v in enumerate(_expect_list(obj["m"], "m"))
    )
    k = _expect_int(obj["k"], "k")
    t = point_from_json(obj["t"], "t")
    eta = rational_from_json(obj["eta"], "eta")
    lam = rational_from_json(obj["lam"], "lam")
    points = tuple(
        point_from_json(p, "points[%d]" % j)
        for j, p in enumerate(_expect_list(obj["points"], "points"))
    )
    deltas = tuple(
        rational_from_json(d, "deltas[%d]" % j)
        for j, d in enumerate(_expect_list(obj["deltas"], "deltas"))
    )
    return WitnessBundle(
        indices=indices,
        m=m,
        k=k,
        t=t,
        eta=eta,
        lam=lam,
        points=points,
        deltas=deltas,
    )


_PARSERS = {
    "space": _parse_space,
    "qfunction": _parse_qfunction,
    "cifunction": _parse_cifunction,
    "sequence": _parse_sequence,
    "basis": _parse_basis,
    "witness": _parse_witness,
}


def loads(text: str) -> Document:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # a number past int's digit limit
        raise DocumentError("invalid JSON: %s" % exc) from None
    if not isinstance(obj, dict):
        raise DocumentError("a document is a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError(
            "unknown document kind %r (expected one of %s)"
            % (kind, ", ".join(KINDS))
        )
    with _input_errors("%s document" % kind):
        return _PARSERS[kind](obj)
