"""Exchange format: canonical serialization and strict parsing."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from oscal import documents
from oscal.errors import DocumentError, InternalCheckError
from oscal.extraction import (
    EventuallyLimit,
    FunctionSeq,
    MovingStep,
    build_jump_chain,
)
from oscal.func import QFunction
from oscal.rationals import GaussianRational
from oscal.seqlab import NormKind, PolyBasis, PolySpace
from oscal.space import chain_space

GOLDEN = Path(__file__).parent / "golden"


def sample_documents(k1, k2, k3, f2, h_seq):
    fc = QFunction(k1, {0: GaussianRational(F(1, 2), F(-3)), 1: F(0)})
    g = FunctionSeq(QFunction(k1, {0: F(-1), 1: F(0)}), MovingStep(None))
    el = FunctionSeq(
        QFunction(k2, {0: F(1), 1: F(1), 2: F(1)}),
        EventuallyLimit((QFunction(k2, {0: F(0), 1: F(0), 2: F(0)}),)),
    )
    basis = PolyBasis(
        PolySpace(4, NormKind.SUP),
        tuple(
            tuple(F(1) if j <= i else F(0) for j in range(1, 5))
            for i in range(1, 5)
        ),
    )
    bundle = build_jump_chain(h_seq, 2, 0, F(1, 2))
    return {
        "space_k3": k3,
        "qfunction_f2": f2,
        "qfunction_complex": fc,
        "sequence_moving": g,
        "sequence_eventually": el,
        "basis_sup": basis,
        "witness_k3": bundle,
    }


@pytest.fixture(scope="module")
def docs(k1, k2, k3, f2, h_seq):
    return sample_documents(k1, k2, k3, f2, h_seq)


@pytest.mark.parametrize(
    "name",
    [
        "space_k3",
        "qfunction_f2",
        "qfunction_complex",
        "sequence_moving",
        "sequence_eventually",
        "basis_sup",
        "witness_k3",
    ],
)
def test_round_trip_is_canonical(docs, name):
    doc = docs[name]
    text = documents.dumps(doc)
    back = documents.loads(text)
    assert documents.dumps(back) == text


@pytest.mark.parametrize(
    "name",
    [
        "space_k3",
        "qfunction_f2",
        "qfunction_complex",
        "sequence_moving",
        "sequence_eventually",
        "basis_sup",
        "witness_k3",
    ],
)
def test_serialization_matches_golden_bytes(docs, name):
    golden = (GOLDEN / ("%s.json" % name)).read_text()
    assert documents.dumps(docs[name]) == golden
    assert documents.dumps(documents.loads(golden)) == golden


def test_loaded_values_survive(docs, f2):
    back = documents.loads(documents.dumps(f2))
    assert back.values == f2.values
    bundle = docs["witness_k3"]
    assert documents.loads(documents.dumps(bundle)) == bundle


def test_dumps_ends_with_newline(docs):
    for doc in docs.values():
        text = documents.dumps(doc)
        assert text.endswith("\n")
        assert json.loads(text)  # plain JSON underneath


def test_rejects_invalid_json():
    with pytest.raises(DocumentError) as exc:
        documents.loads("{")
    assert "line 1" in str(exc.value)


def test_rejects_unknown_kind():
    with pytest.raises(DocumentError) as exc:
        documents.loads('{"kind": "other"}')
    assert "unknown document kind" in str(exc.value)


def test_rejects_unknown_field():
    text = json.dumps({"kind": "space", "nodes": [], "root": 0, "zz": 1})
    with pytest.raises(DocumentError) as exc:
        documents.loads(text)
    assert "unknown field" in str(exc.value)


def test_rejects_float_values(f1):
    text = documents.dumps(f1).replace('"1"', "1.0", 1)
    with pytest.raises(DocumentError):
        documents.loads(text)


def test_rejects_non_ascii_digits(f2):
    # "\u0664" is an Arabic-Indic four and "\u00b2" a superscript two:
    # neither is a digit of a rational
    for value in ("\u0664", "\u00b2", "1/\u0662"):
        obj = json.loads(documents.dumps(f2))
        obj["values"]["1"] = value
        with pytest.raises(DocumentError) as exc:
            documents.loads(json.dumps(obj))
        assert str(exc.value) == "values.1: malformed rational %r" % value


def test_rejects_nested_complex_parts_at_the_outer_value(k1):
    value = '"1"'
    for _ in range(900):
        value = '{"re": %s, "im": "0"}' % value
    obj = json.loads(documents.dumps(QFunction(k1, {0: F(0), 1: F(0)})))
    obj["values"]["0"] = "HOLE"
    doc = json.dumps(obj).replace('"HOLE"', value)
    with pytest.raises(DocumentError) as exc:
        documents.loads(doc)
    assert str(exc.value) == "values.0: nested complex parts"


def test_rejects_non_document_payloads():
    with pytest.raises(DocumentError):
        documents.loads("[1, 2, 3]")
    with pytest.raises(DocumentError):
        documents.loads('"just a string"')


def test_internal_faults_are_not_relabelled(monkeypatch):
    # only the package's input errors become DocumentError; a fault inside
    # a parser surfaces as itself instead of as "malformed input"
    golden = (GOLDEN / "qfunction_f2.json").read_text()

    def broken(*args):
        raise RuntimeError("parser fault")

    monkeypatch.setattr(documents, "values_from_obj", broken)
    with pytest.raises(RuntimeError, match="parser fault"):
        documents.loads(golden)

    def failed_check(*args):
        raise InternalCheckError("self-check")

    monkeypatch.setattr(documents, "values_from_obj", failed_check)
    with pytest.raises(InternalCheckError):
        documents.loads(golden)


# -- fuzzing: loads either returns a document that round-trips or raises
# DocumentError, whatever JSON it is given

GOLDEN_DOCS = sorted(p.name for p in GOLDEN.glob("*.json"))

# strings that are near misses of rationals, node keys and copy indices
NEAR_MISSES = st.sampled_from(
    ["0", "1", "-1", "01", "-0", "1/2", "-3/4", "1/0", "+1", "1.0", "1e3",
     " 1", "--1", "\u00b2", "\u0661", "1/\u00b2", "p", "r", "space", "basis",
     "sup", "l1", "moving-step", "eventually-limit", "kind", ""]
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | NEAR_MISSES
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(NEAR_MISSES | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _loads_contract(text: str) -> None:
    try:
        doc = documents.loads(text)
    except DocumentError:
        return
    out = documents.dumps(doc)
    assert documents.dumps(documents.loads(out)) == out


def _locations(obj, where=()):
    yield where
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _locations(value, where + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from _locations(value, where + (idx,))


def test_json_strategy_nests():
    # the fuzz tests reach nested documents only if JSON draws them
    find(JSON, lambda v: isinstance(v, dict) and any(isinstance(x, list) for x in v.values()))
    find(JSON, lambda v: isinstance(v, list) and any(isinstance(x, dict) for x in v))


@settings(max_examples=150)
@given(JSON)
def test_fuzz_loads_any_json(value):
    _loads_contract(json.dumps(value))


@settings(max_examples=150)
@given(st.sampled_from(documents.KINDS), st.dictionaries(NEAR_MISSES, JSON, max_size=5))
def test_fuzz_loads_any_fields(kind, fields):
    _loads_contract(json.dumps(dict(fields, kind=kind)))


@settings(max_examples=300)
@given(st.sampled_from(GOLDEN_DOCS), st.data())
def test_fuzz_loads_mutated_goldens(name, data):
    obj = json.loads((GOLDEN / name).read_text())
    where = data.draw(st.sampled_from(list(_locations(obj))[1:]))
    *parents, last = where
    holder = obj
    for step in parents:
        holder = holder[step]
    how = data.draw(st.sampled_from(["replace", "delete", "rename"]))
    if how == "replace":
        holder[last] = data.draw(JSON)
    elif how == "delete":
        del holder[last]
    elif isinstance(holder, dict):
        holder[data.draw(NEAR_MISSES)] = holder.pop(last)
    else:
        holder.insert(last, data.draw(JSON))
    _loads_contract(json.dumps(obj, indent=2))
