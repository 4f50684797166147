"""The stage formula on the integer scale against its rational form
(``reference_transfinite``): final stages, norms and decompositions agree
exactly, errors included; the decomposition's checks catch a wrong split
or a wrong stage; and a real f gets its norm and decomposition without a
``Fraction`` built before the result."""

import cProfile
import fractions
import os
import pstats
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
import oscal.transfinite
import reference_oracle
import reference_transfinite
from helpers import drawn_functions
from oscal.errors import InternalCheckError, OscalError
from oscal.oracle import oracle_dnorm
from oscal.sampling import build_corpus
from oscal.space import chain_space
from oscal.transfinite import d_norm, decompose, final_stage


def corpus_functions(seed):
    """build_corpus(seed)'s functions, all real, then one function with
    exact complex moduli on each of its spaces."""
    corpus = build_corpus(seed)
    rng = random.Random(seed)
    return list(corpus.functions) + [
        helpers.complex_line_function(rng, sp) for sp in corpus.spaces
    ]


def outcome(call, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return call(*args)
    except OscalError as exc:
        return type(exc), str(exc)


def stage_values(call, f, kind):
    got = outcome(call, f, kind)
    return got if isinstance(got, tuple) else got.values


def assert_same(f):
    for kind in ("osc", "v", "w"):
        assert stage_values(final_stage, f, kind) == stage_values(
            reference_transfinite.final_stage, f, kind
        )
    assert outcome(d_norm, f) == outcome(reference_transfinite.d_norm, f)
    got, want = outcome(decompose, f), outcome(reference_transfinite.decompose, f)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.norm == want.norm
    assert got.checks == want.checks
    assert got.u.values == want.u.values
    assert got.v.values == want.v.values


@pytest.mark.parametrize("seed", range(3))
def test_corpus_functions_match_the_rational_fold(seed):
    functions = corpus_functions(seed)
    kinds = Counter(f.is_complex() for f in functions)
    assert kinds[True] > 10 and kinds[False] > 10
    for f in functions:
        assert_same(f)


@given(drawn_functions())
def test_drawn_real_functions_match_the_rational_fold(f):
    assert_same(f)


@given(st.integers(0, 10**6), st.integers(1, 6))
def test_complex_line_functions_match_the_rational_fold(seed, depth):
    rng = random.Random(seed)
    f = helpers.complex_line_function(rng, chain_space(depth))
    assert_same(f)
    sp = helpers.corpus().spaces[seed % len(helpers.corpus().spaces)]
    assert_same(helpers.complex_line_function(rng, sp))


# -- mutants: a wrong split or a wrong stage fails decompose's checks --------


def real_corpus_sample():
    return build_corpus(0).functions[::2]


def test_a_raised_u_at_any_node_fails(monkeypatch):
    real_problems = oscal.transfinite.decomposition_problems
    mutants = 0
    for f in real_corpus_sample():
        for node in f.space.node_ids():
            def raised(sp, twice_f, u, v, node=node):
                return real_problems(sp, twice_f, {**u, node: u[node] + 1}, v)

            with monkeypatch.context() as patched:
                patched.setattr(oscal.transfinite, "decomposition_problems", raised)
                with pytest.raises(InternalCheckError, match="difference"):
                    decompose(f)
            mutants += 1
    assert mutants > 100


def test_a_lowered_stage_at_any_node_fails(monkeypatch):
    real_final = oscal.transfinite._final
    mutants = 0
    for f in real_corpus_sample():
        for node in f.space.node_ids():
            def lowered(g, kind, node=node):
                scale, scaled, w = real_final(g, kind)
                return scale, scaled, {**w, node: w[node] - 1}

            with monkeypatch.context() as patched:
                patched.setattr(oscal.transfinite, "_final", lowered)
                with pytest.raises(InternalCheckError, match="decomposition violated"):
                    decompose(f)
            mutants += 1
    assert mutants > 100


# -- results build their fractions when read ---------------------------------


def test_lazy_results_equal_the_reference_values():
    for f in real_corpus_sample():
        dec, want = decompose(f), reference_transfinite.decompose(f)
        assert "u" not in vars(dec) and "v" not in vars(dec)
        assert dec.u.values == want.u.values and dec.v.values == want.v.values
        assert dec.u is dec.u and dec.v is dec.v
        res, ref = oracle_dnorm(f), reference_oracle.oracle_dnorm(f)
        assert "u" not in vars(res) and "v" not in vars(res)
        assert res.u.values == ref.u.values and res.v.values == ref.v.values
        assert res.lp_result.objective == ref.lp_result.objective
        assert res.lp_result.duals == ref.lp_result.duals
        values = res.lp_result.values.values()
        assert list(values) == list(ref.lp_result.values.values())


def fractions_code_calls(call, *args):
    """call(*args), and the calls it made into ``fractions.py`` by name."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = call(*args)
    finally:
        prof.disable()
    where = os.path.realpath(fractions.__file__)
    calls = Counter()
    for (path, _, name), (_, count, _, _, _) in pstats.Stats(prof).stats.items():
        if os.path.realpath(path) == where:
            calls[name] += count
    return result, calls


def test_a_real_norm_and_decomposition_build_one_fraction():
    # D·f is read with one as_integer_ratio per node; the only Fraction
    # built is the norm
    for f in real_corpus_sample():
        n = len(f.space)
        norm, calls = fractions_code_calls(d_norm, f)
        assert calls == Counter({"as_integer_ratio": n, "__new__": 1})
        dec, calls = fractions_code_calls(decompose, f)
        assert calls == Counter({"as_integer_ratio": n, "__new__": 1})
        assert dec.norm == norm
