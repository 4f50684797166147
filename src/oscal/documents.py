"""Stable JSON documents for spaces, functions, sequences, bases, witnesses.

Every quantity is exact: rationals travel as strings "p/q" (or "p"),
complex values as {"re": ..., "im": ...}, and nothing is ever a float.
Serialization is canonical — fixed field order per document kind, node
keys in ascending numeric order, two-space indentation, one trailing
newline — so documents diff cleanly and parsing then serializing
reproduces a canonical file byte for byte.  Unknown fields are rejected
everywhere rather than ignored: a typo in a key should be a loud error,
not a silently dropped constraint.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Union

from .errors import DocumentError, InternalCheckError, OscalError
from .func import QFunction, Scalar
from .rationals import GaussianRational, format_rational, parse_int, parse_rational
from .space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    SpaceNode,
    TreeSpace,
)

if TYPE_CHECKING:
    from .extraction import FunctionSeq, IndexSeq, WitnessBundle
    from .seqlab import PolyBasis

    Document = Union[TreeSpace, QFunction, FunctionSeq, PolyBasis, WitnessBundle]


# the longest error text repeated in full: a document may hold a number of
# any length, and the error about it should still fit on one line
_ERROR_CHARS = 200


def _fail(path: str, message: str) -> DocumentError:
    text = "%s: %s" % (path, message) if path else message
    if len(text) > _ERROR_CHARS:
        text = "%s... (%d characters)" % (text[:_ERROR_CHARS], len(text))
    return DocumentError(text)


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


def _list_of(obj: Any, path: str, item) -> tuple:
    """The array at ``path``, entry j read by ``item(entry, "path[j]")``."""
    entries = _expect_list(obj, path)
    return tuple(item(e, "%s[%d]" % (path, j)) for j, e in enumerate(entries))


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


def _node_from_obj(obj: Any, path: str) -> SpaceNode:
    _expect_object(obj, path, ("id", "prefix", "recurring"))
    return SpaceNode(
        _expect_int(obj["id"], path + ".id"),
        _list_of(obj["prefix"], path + ".prefix", _expect_int),
        _list_of(obj["recurring"], path + ".recurring", _expect_int),
    )


def space_from_obj(obj: Any, path: str) -> TreeSpace:
    _expect_object(obj, path, ("nodes", "root"))
    nodes = _list_of(obj["nodes"], _sub(path, "nodes"), _node_from_obj)
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
        node = parse_int(key, signs="-")
        if node is None:
            raise _fail(path, "non-numeric node key %r" % key)
        out[node] = scalar_from_json(raw, "%s.%s" % (path, key))
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


def _step_from_json(obj: Any, path: str) -> PrefixStep | RecurringStep:
    raw = _expect_list(obj, path)
    if not raw or raw[0] not in ("p", "r"):
        raise _fail(path, 'step must start with "p" or "r"')
    if raw[0] == "p":
        if len(raw) != 2:
            raise _fail(path, 'prefix step is ["p", child]')
        return PrefixStep(_expect_int(raw[1], path))
    if len(raw) != 3:
        raise _fail(path, 'recurring step is ["r", pattern, copy]')
    return RecurringStep(_expect_int(raw[1], path), _expect_int(raw[2], path))


def point_from_json(obj: Any, path: str) -> PointRef:
    return PointRef(_list_of(obj, path, _step_from_json))


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


def _serializer(doc: Document):
    for kind, (module, cls, ser, _) in _KINDS.items():
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


def _valid_space(obj: Any) -> TreeSpace:
    space = space_from_obj(obj, "space")
    space.require_valid()
    return space


def _parse_qfunction(obj: dict) -> QFunction:
    _expect_object(obj, "", ("kind", "space", "values"))
    space = _valid_space(obj["space"])
    values = values_from_obj(obj["values"], space, "values")
    return QFunction(space, values)


def _parse_sequence(obj: dict) -> FunctionSeq:
    from .extraction import EventuallyLimit, FunctionSeq, MovingStep
    _expect_object(obj, "", ("kind", "space", "limit", "generator"))
    space = _valid_space(obj["space"])
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
                frozenset(_list_of(moving, "generator.moving", _expect_int))
            )
    elif gtype == "eventually-limit":
        _expect_object(gobj, "generator", ("type", "prefix"))

        def term(vobj: Any, path: str) -> QFunction:
            return QFunction(space, values_from_obj(vobj, space, path))

        gen = EventuallyLimit(_list_of(gobj["prefix"], "generator.prefix", term))
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
    vectors = _list_of(
        obj["vectors"], "vectors",
        lambda row, path: _list_of(row, path, rational_from_json),
    )
    if not vectors:
        raise _fail("vectors", "a basis needs at least one vector")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise _fail("vectors", "vectors must share one length")
    return PolyBasis(PolySpace(dims.pop(), kind), vectors)


def _parse_witness(obj: dict) -> WitnessBundle:
    from .extraction import IndexSeq, WitnessBundle
    _expect_object(
        obj,
        "",
        ("kind", "indices", "m", "k", "t", "eta", "lam", "points", "deltas"),
    )
    iobj = _expect_object(obj["indices"], "indices", ("prefix", "offset"))
    prefix = _list_of(iobj["prefix"], "indices.prefix", _expect_int)
    indices = IndexSeq(prefix, _expect_int(iobj["offset"], "indices.offset"))
    m = _list_of(obj["m"], "m", _expect_int)
    k = _expect_int(obj["k"], "k")
    t = point_from_json(obj["t"], "t")
    eta = rational_from_json(obj["eta"], "eta")
    lam = rational_from_json(obj["lam"], "lam")
    points = _list_of(obj["points"], "points", point_from_json)
    deltas = _list_of(obj["deltas"], "deltas", rational_from_json)
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


# kind -> (module, class, serializer, parser).  A document's class lives in
# a module that is already imported, so _serializer only tests kinds whose
# module is in sys.modules and never imports one itself.
_KINDS = {
    "space": ("space", "TreeSpace", _space_doc, _parse_space),
    "qfunction": ("func", "QFunction", _qfunction_doc, _parse_qfunction),
    "sequence": ("extraction", "FunctionSeq", _sequence_doc, _parse_sequence),
    "basis": ("seqlab", "PolyBasis", _basis_doc, _parse_basis),
    "witness": ("extraction", "WitnessBundle", _witness_doc, _parse_witness),
}
KINDS = tuple(_KINDS)


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
        raise _fail("", "unknown document kind %r (expected one of %s)"
                    % (kind, ", ".join(KINDS)))
    with _input_errors("%s document" % kind):
        return _KINDS[kind][3](obj)
