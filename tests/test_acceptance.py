"""Acceptance sweep: one test per shipped guarantee.

Each test records a single PASS/FAIL line, echoed as a checklist at the
end of the run, and then asserts the same result.  All comparisons are
exact rational equality.
"""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import helpers
from helpers import is_usc, osc_step
from oscal import documents
from oscal.errors import PreconditionError
from oscal.extraction import (
    FunctionSeq,
    IndexSeq,
    MovingStep,
    WitnessBundle,
    build_jump_chain,
    check_difference_witness,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.func import QFunction, lsc_envelope, zero_function
from oscal.oracle import oracle_dnorm, symmetry_check
from oscal.rationals import Verdict
from oscal.sampling import random_basis, random_blocking
from oscal.seqlab import (
    NormKind,
    PolyBasis,
    PolySpace,
    basis_constant,
    check_identities,
    convex_block,
    difference_sequence,
    duc_norm,
    eps_cc_value,
    functional_norm,
    summing_functional,
    wuc_norm,
)
from oscal.space import PointRef, RecurringStep, chain_space
from oscal.transfinite import (
    d_index,
    d_norm,
    decompose,
    iterate,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")

K1 = chain_space(1)
K2 = chain_space(2)
K3 = chain_space(3)
F1 = QFunction(K1, {0: F(1), 1: F(0)})
F2 = QFunction(K2, {0: F(0), 1: F(1), 2: F(0)})

ROOT = PointRef(())


def leaf(c):
    return PointRef((RecurringStep(0, c),))


def pt(*copies):
    return PointRef(tuple(RecurringStep(0, c) for c in copies))


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(num, label, False)
                raise
            _report(num, label, True)

        return wrapper

    return deco


def _report(num, label, ok):
    import conftest

    line = "ACCEPTANCE %02d %s - %s" % (num, "PASS" if ok else "FAIL", label)
    conftest.ACCEPTANCE_LINES.append(line)


def real_corpus():
    return [f for f in helpers.corpus().functions if not f.is_complex()]


@criterion(1, "closed-form norm equals the LP oracle on the whole corpus")
def test_criterion_01_norm_formula_vs_oracle():
    fns = real_corpus()
    assert len(fns) >= 200
    start = time.monotonic()
    for f in fns:
        val = d_norm(f)
        assert isinstance(val, F)
        assert val == oracle_dnorm(f).optimum
    assert time.monotonic() - start < 120


@criterion(2, "attained decompositions are oracle-feasible and optimal")
def test_criterion_02_decomposition_attained():
    for f in real_corpus():
        dec = decompose(f)
        oracle = oracle_dnorm(f)
        assert dec.norm == oracle.optimum
        u, v = dec.u, dec.v
        assert (u - v).values == f.values
        assert all(x >= 0 for x in u.values.values())
        assert all(x >= 0 for x in v.values.values())
        from helpers import is_lsc

        assert is_lsc(u) and is_lsc(v)
        assert max((u + v).values.values()) == dec.norm


@criterion(3, "canonical indicator functions have the documented invariants")
def test_criterion_03_canonical_values():
    assert d_index(F1) == 1
    assert d_norm(F1) == F(2)
    assert oracle_dnorm(F1).optimum == F(2)

    assert d_index(F2) == 2
    assert d_norm(F2) == F(2)
    assert oracle_dnorm(F2).optimum == F(2)

    tr = iterate(F2, "osc")
    assert tr.stage(0).values == {0: F(0), 1: F(0), 2: F(0)}
    assert tr.stage(1).values == {0: F(1), 1: F(1), 2: F(0)}
    assert tr.stage(2).values == {0: F(2), 1: F(1), 2: F(0)}
    assert tr.stabilized_at == 2


@criterion(4, "stage laws: monotone, USC, homogeneous, subadditive, persistent")
def test_criterion_04_stage_laws():
    fns = real_corpus()
    for f in fns:
        tr = iterate(f, "osc", steps=8)
        assert tr.stabilized_at is not None
        for a, b in zip(tr.stages, tr.stages[1:]):
            assert helpers.leq(a, b)
        for stage in tr.stages:
            assert is_usc(stage)
        # |t|-homogeneity
        for t in (F(2), F(-3), F(1, 2)):
            ts = iterate(f.scale(t), "osc", steps=8)
            want = abs(t)
            for n in range(min(len(tr.stages), len(ts.stages))):
                assert ts.stage(n).values == {
                    i: want * x for i, x in tr.stage(n).values.items()
                }
        # fixpoint persistence: three more steps change nothing
        w = tr.stages[-1]
        for _ in range(3):
            w = osc_step(f, w)
            assert w.values == tr.stages[-1].values
        # stage-equality criterion agrees with the semicontinuity one
        # (the call itself cross-checks both routes)
        tau = tr.stabilized_at
        assert helpers.fixpoint_criterion(f, tau)
        if tau > 0:
            assert not helpers.fixpoint_criterion(f, tau - 1)
    # subadditivity needs same-space pairs
    for f, g in helpers.corpus_pairs():
        if f.is_complex() or g.is_complex():
            continue
        ta, tb, tc = (
            iterate(f + g, "osc", steps=5),
            iterate(f, "osc", steps=5),
            iterate(g, "osc", steps=5),
        )
        for n in range(5):
            assert helpers.leq(ta.stage(n), tb.stage(n) + tc.stage(n))


@criterion(5, "difference bound and positive-part sandwich hold pointwise")
def test_criterion_05_difference_and_sandwich():
    pairs = []
    c = helpers.corpus()
    for sp in c.spaces:
        fns = [f for f in helpers.by_space(c, sp) if not f.is_complex()]
        pairs.extend(itertools.combinations(fns, 2))
    assert len(pairs) >= 200
    for a, b in pairs:
        u = lsc_envelope(a.abs())
        v = lsc_envelope(b.abs())
        bound = osc_step(u + v, zero_function(u.space))
        tr = iterate(u - v, "osc", steps=5)
        for stage in tr.stages:
            assert helpers.leq(stage, bound)

    fns = real_corpus()
    assert len(fns) >= 200
    for f in fns:
        to = iterate(f, "osc", steps=5)
        tp = iterate(f, "v", steps=5)
        tm = iterate(-f, "v", steps=5)
        for n in range(5):
            pos, neg, full = tp.stage(n), tm.stage(n), to.stage(n)
            assert helpers.leq(pos, full)
            assert helpers.leq(full, pos + neg)


@criterion(6, "per-copy freedom never beats quotient decompositions")
def test_criterion_06_oracle_symmetry():
    for f in real_corpus():
        for k in (1, 2, 3):
            assert symmetry_check(f, k).agree


def _canonical_bases():
    sup4 = PolySpace(4, NormKind.SUP)
    se4 = PolySpace(4, NormKind.SE)
    partial = PolyBasis(
        sup4,
        tuple(
            tuple(F(1) if i <= j else F(0) for i in range(4))
            for j in range(4)
        ),
    )
    units = PolyBasis(
        se4,
        tuple(
            tuple(F(1) if i == j else F(0) for i in range(4))
            for j in range(4)
        ),
    )
    return [partial, units]


def _cube_vertices(n):
    for mask in range(2 ** n):
        yield tuple(F(1 if mask >> i & 1 else -1) for i in range(n))


@criterion(7, "identity and bound report passes on canonical and random bases")
def test_criterion_07_identities():
    rng = random.Random(20260819)
    bases = list(_canonical_bases())
    for kind in (NormKind.SUP, NormKind.L1, NormKind.SE):
        for _ in range(100):
            bases.append(random_basis(rng, kind))
    for basis in bases:
        rep = check_identities(basis)
        assert rep.all_pass, rep.checks
        # sign combinations of the difference family are pinched between
        # the reciprocal coefficient bound and the unconditional sum bound
        lam_star = max(rep.coefficient_norms)
        diff = difference_sequence(basis)
        big = wuc_norm(basis.space, diff.vectors)
        for c in _cube_vertices(basis.size):
            val = basis.space.norm(diff.combine(c))
            assert F(1) / lam_star <= val <= big


@criterion(8, "canonical basis values and the stage-4 coefficient ceiling")
def test_criterion_08_canonical_seqlab():
    for dim in (3, 4, 5):
        sp = PolySpace(dim, NormKind.SUP)
        partial = PolyBasis(
            sp,
            tuple(
                tuple(F(1) if i <= j else F(0) for i in range(dim))
                for j in range(dim)
            ),
        )
        assert functional_norm(summing_functional(partial)) == 1
        assert basis_constant(partial) == 2

    for dim in (3, 4, 5):
        sp = PolySpace(dim, NormKind.SE)
        units = PolyBasis(
            sp,
            tuple(
                tuple(F(1) if i == j else F(0) for i in range(dim))
                for j in range(dim)
            ),
        )
        assert basis_constant(units) == 1
        norms = [functional_norm(f) for f in helpers.biorthogonal(units)]
        assert norms[0] == 1 and all(x == 2 for x in norms[1:])

    for dim in (4, 5, 6):
        sp = PolySpace(dim, NormKind.SE)
        summing_model = PolyBasis(
            sp,
            tuple(
                tuple(F(1) if i <= j else F(0) for i in range(dim))
                for j in range(dim)
            ),
        )
        assert eps_cc_value(summing_model, {1, 3}, 4) == 2


@criterion(9, "convex blocking never increases the duc norm")
def test_criterion_09_blocking():
    rng = random.Random(5150)
    kinds = [NormKind.SUP, NormKind.L1, NormKind.SE]
    done = 0
    while done < 100:
        basis = random_basis(rng, kinds[done % 3])
        blocks, weights = random_blocking(rng, basis)
        cb = convex_block(basis, blocks, weights)
        assert duc_norm(basis.space, cb.vectors) <= duc_norm(
            basis.space, basis.vectors
        )
        done += 1


G_SEQ = FunctionSeq(QFunction(K1, {0: F(-1), 1: F(0)}), MovingStep(None))
H_SEQ = FunctionSeq(
    QFunction(K3, {0: F(-1), 1: F(0), 2: F(-1), 3: F(0)}), MovingStep(None)
)


def _rebuild(b, **changes):
    fields = dict(
        indices=b.indices, m=b.m, k=b.k, t=b.t, eta=b.eta, lam=b.lam,
        points=b.points, deltas=b.deltas,
    )
    fields.update(changes)
    return WitnessBundle(**fields)


@criterion(10, "extraction bundles verify and 20 corruptions are pinpointed")
def test_criterion_10_extraction():
    for eta in (F(1, 2), F(1, 4)):
        for seq, alpha in ((G_SEQ, 1), (H_SEQ, 2)):
            b = build_jump_chain(seq, alpha, 0, eta)
            assert check_jump_chain(seq, b).verdict is Verdict.TRUE
            # the reduction to difference form costs a factor 5 in eta
            b = build_jump_chain(seq, alpha, 0, eta / 5)
            assert check_jump_chain(seq, b).verdict is Verdict.TRUE
            d = difference_witness_from_chain(b)
            assert d.eta == eta
            assert check_difference_witness(seq, d) is Verdict.TRUE

    # a depth-2 chain cannot start on the rank-2 chain space: the second
    # stage adds nothing there, and the builder says so instead of
    # fabricating a jump
    phi2 = QFunction(K2, {0: F(-1), 1: F(0), 2: F(-1)})
    g2 = FunctionSeq(phi2, MovingStep(None))
    with pytest.raises(PreconditionError):
        build_jump_chain(g2, 2, 0, F(1, 2))

    b1 = build_jump_chain(G_SEQ, 1, 0, F(1, 2))
    b1q = build_jump_chain(G_SEQ, 1, 0, F(1, 4))
    b3 = build_jump_chain(H_SEQ, 2, 0, F(1, 2))
    b3q = build_jump_chain(H_SEQ, 2, 0, F(1, 4))

    # (sequence, corrupted bundle, violated condition, isolated?)  the three
    # non-isolated entries break a quantity other conditions also consume,
    # so their reports name the violated condition plus its dependents
    corruptions = [
        (G_SEQ, _rebuild(b1, deltas=(F(-1),)), "delta_positive", False),
        (G_SEQ, _rebuild(b1, lam=F(2), deltas=(F(2),)), "jump_1", True),
        (G_SEQ, _rebuild(b1, lam=F(3)), "sum_window", True),
        (G_SEQ, _rebuild(b1, lam=F(1, 2)), "sum_window", True),
        (G_SEQ, _rebuild(b1, indices=IndexSeq((), 1)), "block_1", True),
        (G_SEQ, _rebuild(b1, t=leaf(2), points=(ROOT, leaf(2))), "tail", True),
        (G_SEQ, _rebuild(b1q, t=leaf(3), points=(ROOT, leaf(3))), "tail", True),
        (G_SEQ, _rebuild(b1q, lam=F(4, 3), deltas=(F(4, 3),)), "jump_1", True),
        (G_SEQ, _rebuild(b1, m=(1, 3)), "block_1", True),
        (G_SEQ, _rebuild(b1, m=(1, 5)), "block_1", True),
        (H_SEQ, _rebuild(b3, deltas=(F(-1), F(1))), "delta_positive", False),
        (H_SEQ, _rebuild(b3, deltas=(F(2), F(1, 2))), "jump_1", True),
        (H_SEQ, _rebuild(b3, deltas=(F(1, 2), F(2))), "jump_2", True),
        (H_SEQ, _rebuild(b3, lam=F(5)), "sum_window", True),
        (H_SEQ, _rebuild(b3, lam=F(2, 3)), "sum_window", True),
        (
            H_SEQ,
            _rebuild(b3, t=pt(2, 2, 3), points=b3.points[:3] + (pt(2, 2, 3),)),
            "block_2",
            True,
        ),
        (
            H_SEQ,
            _rebuild(b3, t=pt(1, 3, 3), points=b3.points[:3] + (pt(1, 3, 3),)),
            "block_3",
            True,
        ),
        (
            H_SEQ,
            _rebuild(b3, t=pt(1, 2, 7), points=b3.points[:3] + (pt(1, 2, 7),)),
            "tail",
            True,
        ),
        (H_SEQ, _rebuild(b3q, m=(1, 2, 3, 5)), "block_3", True),
        (
            H_SEQ,
            _rebuild(b3, points=(pt(1), ROOT, pt(1, 2), pt(1, 2, 3))),
            "jump_1",
            False,
        ),
    ]
    assert len(corruptions) == 20
    for seq, bundle, target, isolated in corruptions:
        rep = check_jump_chain(seq, bundle)
        assert rep.verdict is Verdict.FALSE
        failed = rep.failed()
        assert target in failed
        if isolated:
            assert failed == [target]


def _run_cli(argv, stdin=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "oscal.cli"] + [str(a) for a in argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


@criterion(11, "command line round-trips goldens and signals through exit codes")
def test_criterion_11_cli(tmp_path):
    # byte-exact round trips through the validator
    for name in ("space_k3", "qfunction_f2", "basis_sup"):
        golden = (GOLDEN / ("%s.json" % name)).read_text()
        assert documents.dumps(documents.loads(golden)) == golden
    k3_path = GOLDEN / "space_k3.json"
    r = _run_cli(["space", "validate", k3_path])
    assert r.returncode == 0
    assert r.stdout == k3_path.read_text()

    f2_path = tmp_path / "f2.json"
    f2_path.write_text(documents.dumps(F2))

    r = _run_cli(["fn", "dnorm", f2_path, "--oracle"])
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "cli_dnorm_oracle.txt").read_text()
    assert json.loads(r.stdout) == {
        "formula": "2",
        "oracle": "2",
        "agree": True,
    }

    r = _run_cli(["fn", "index", f2_path, "--cap", "1"])
    assert r.returncode == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "qfunction"')
    r = _run_cli(["fn", "dnorm", bad, "--oracle"])
    assert r.returncode == 2
