"""The benchmark workloads.

Each workload turns a seed into *cycles*: fixed lists of items, where an
item is one unit of user work together with the reference its output is
checked against.  Every cycle has the same shape (space sizes, depths,
dimensions, commands) and the seed draws the values inside that shape, so
two seeds do comparable amount of work and the runs stay steady.  The
package only ever sees the generated inputs, and items read them back
from their canonical document text.

Items call the package through module attributes at call time (never
through names bound here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


class Mismatch(Exception):
    """An output disagreed with its reference."""


class Capped(Exception):
    """The package reported CapExceeded for a well-posed input."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise Mismatch("%s: got %r, want %r" % (what, got, want))


class Context:
    """What a workload needs to build its items."""

    def __init__(self, mods, seed: int, cycles: int, tiny: bool, root: Path,
                 workdir: Path):
        self.mods = mods
        self.seed = seed
        self.cycles = cycles
        self.tiny = tiny
        self.root = root
        self.workdir = workdir

    def rng(self, purpose: str) -> random.Random:
        return random.Random("%s:%d" % (purpose, self.seed))


# -- corpus_certify --------------------------------------------------------

# Cycle shape: (low, high) bounds on unrolled_size(space, 3) and how many
# functions per cycle come from that band.  The bands follow the size mix
# of build_corpus itself (about 20% up to 10 nodes unrolled, 6% above 60),
# so a cycle looks like the corpus without its sampling spread.  Each space
# gives at most one function, so a run does not hinge on a few spaces.  In
# a twelve-cycle run the tail (ten items beyond it) lies among the 61-80
# band's twelve samples, near where they meet the 46-60 band; its
# Harrell-Davis estimate averages across that edge.
CORPUS_BANDS = [
    ((1, 10), 4), ((11, 20), 2), ((21, 26), 3), ((27, 30), 4),
    ((31, 42), 3), ((43, 45), 1), ((46, 60), 2), ((61, 80), 1),
]
CORPUS_BANDS_TINY = [((1, 10), 1), ((11, 20), 1), ((21, 26), 1)]


class CorpusItem:
    """Load one corpus function and certify it: the stage formula's norm
    and decomposition, the LP oracle, and the unrolled symmetry LPs."""

    def __init__(self, mods, label: str, text: str):
        self.mods, self.label, self.text = mods, label, text

    def run(self) -> None:
        m = self.mods
        f = m.documents.loads(self.text)
        norm = m.transfinite.d_norm(f)
        if isinstance(norm, m.transfinite.CapExceeded):
            raise Capped("d_norm hit cap %d" % norm.cap)
        dec = m.transfinite.decompose(f)
        if isinstance(dec, m.transfinite.CapExceeded):
            raise Capped("decompose hit cap %d" % dec.cap)
        expect(dec.norm, norm, "decomposition norm vs d_norm")
        oracle = m.oracle.oracle_dnorm(f)
        expect(oracle.optimum, norm, "LP oracle vs d_norm")
        for k in (1, 2, 3):
            rep = m.oracle.symmetry_check(f, k)
            expect(rep.quotient_optimum, oracle.optimum, "symmetry k=%d quotient" % k)
            expect(rep.unrolled_optimum, oracle.optimum, "symmetry k=%d unrolled" % k)


def corpus_certify(ctx: Context) -> list[list]:
    m = ctx.mods
    bands = CORPUS_BANDS_TINY if ctx.tiny else CORPUS_BANDS
    cycles = ctx.cycles
    queues: list[list] = [[] for _ in bands]
    need = [count * cycles for _, count in bands]
    for j in range(500):
        corpus = m.sampling.build_corpus(ctx.seed + 100003 * j)
        used = set()
        for i, f in enumerate(corpus.functions):
            if f.is_complex() or id(f.space) in used:
                continue
            used.add(id(f.space))
            size = m.space.unrolled_size(f.space, 3)
            for b, ((lo, hi), _) in enumerate(bands):
                if lo <= size <= hi and len(queues[b]) < need[b]:
                    queues[b].append(("u%d:c%d.f%d" % (size, j, i), f))
        if all(len(q) >= n for q, n in zip(queues, need)):
            break
    else:
        raise RuntimeError("corpus seeds did not fill every size band")
    out = []
    for c in range(cycles):
        cycle = []
        for b, (_, count) in enumerate(bands):
            for label, f in queues[b][c * count:(c + 1) * count]:
                cycle.append(CorpusItem(m, label, m.documents.dumps(f)))
        out.append(cycle)
    return out


# -- deep_chains -----------------------------------------------------------

# Depth ladder: fixed, so every seed does the same stage work (the step
# cost is cubic in depth, so seeded depths would turn into seed-to-seed
# spread).  It crosses the stage cap of 64 up to 1.5 times the cap.  An odd
# number of depths pass, so the median falls inside one depth's samples,
# and it falls on depth 16 (about 0.1 s an item): items of 50 ms and less
# swung more with this host's speed than the run as a whole did, so depths
# 3 to 5 are left out and 14 put in.
DEEP_LADDER = (6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 64, 96)
DEEP_LADDER_TINY = (3, 5, 64)
JUMP_MAX_DEPTH = 16
ETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), Fraction(3, 4))


class DeepItem:
    """f(i) = a * (i mod 2) on chain_space(d): rank, index and norm against
    the closed form d, d and |a| d, plus the decomposition's own checks.
    Shallow chains also build and check jump chains for alpha = 1, 2 on
    phi(i) = -((i + 1) mod 2)."""

    def __init__(self, mods, depth: int, amp: Fraction, text: str,
                 seq_text, eta: Fraction):
        self.mods, self.depth, self.amp = mods, depth, amp
        self.label = "d%d" % depth
        self.text, self.seq_text, self.eta = text, seq_text, eta
        self.want_norm = abs(amp) * depth

    def run(self) -> None:
        m = self.mods
        tf = m.transfinite
        f = m.documents.loads(self.text)
        expect(f.space.rank(), self.depth, "rank")
        index = tf.d_index(f)
        if isinstance(index, tf.CapExceeded):
            raise Capped("d_index hit cap %d at depth %d" % (index.cap, self.depth))
        expect(index, self.depth, "d_index")
        norm = tf.d_norm(f)
        if isinstance(norm, tf.CapExceeded):
            raise Capped("d_norm hit cap %d at depth %d" % (norm.cap, self.depth))
        expect(norm, self.want_norm, "d_norm")
        dec = tf.decompose(f)
        if isinstance(dec, tf.CapExceeded):
            raise Capped("decompose hit cap %d at depth %d" % (dec.cap, self.depth))
        expect(dec.norm, self.want_norm, "decomposition norm")
        expect(all(dec.checks.values()), True, "decomposition checks")
        if self.seq_text is not None:
            seq = m.documents.loads(self.seq_text)
            for alpha in (1, 2):
                bundle = m.extraction.build_jump_chain(seq, alpha, 0, self.eta)
                verdict = m.extraction.check_jump_chain(seq, bundle).verdict
                expect(verdict, m.rationals.Verdict.TRUE, "jump chain alpha=%d" % alpha)


def deep_chains(ctx: Context) -> list[list]:
    m = ctx.mods
    rng = ctx.rng("deep_chains")
    ladder = DEEP_LADDER_TINY if ctx.tiny else DEEP_LADDER
    out = []
    for _ in range(ctx.cycles):
        cycle = []
        for d in ladder:
            amp = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            eta = rng.choice(ETAS)
            sp = m.space.chain_space(d)
            f = m.func.QFunction(sp, {i: amp * (i % 2) for i in sp.node_ids()})
            seq_text = None
            if d <= JUMP_MAX_DEPTH:
                phi = m.func.QFunction(sp, {i: -Fraction((i + 1) % 2) for i in sp.node_ids()})
                seq = m.extraction.FunctionSeq(phi, m.extraction.MovingStep(None))
                seq_text = m.documents.dumps(seq)
            cycle.append(DeepItem(m, d, amp, m.documents.dumps(f), seq_text, eta))
        out.append(cycle)
    return out


# -- basis_identities ------------------------------------------------------

BASIS_DIMS = (2, 3, 4, 5, 6)
L1_MAX_DIM = 4


class BasisItem:
    """A basis and its copy padded with a trailing zero coordinate: the
    identity report, the coefficient ceiling and a convex blocking of both
    must pass and agree exactly."""

    def __init__(self, mods, label, text, padded_text, blocks, weights, zeros, j0):
        self.mods, self.label = mods, label
        self.text, self.padded_text = text, padded_text
        self.blocks, self.weights, self.zeros, self.j0 = blocks, weights, zeros, j0

    def run(self) -> None:
        m = self.mods
        sl = m.seqlab
        basis = m.documents.loads(self.text)
        padded = m.documents.loads(self.padded_text)
        r1 = sl.check_identities(basis)
        r2 = sl.check_identities(padded)
        expect(r1.all_pass, True, "identity report")
        expect(r2.all_pass, True, "padded identity report")
        expect(r2.lambda_, r1.lambda_, "basis constant")
        expect(r2.summing_norm, r1.summing_norm, "summing norm")
        expect(r2.coefficient_norms, r1.coefficient_norms, "coefficient norms")
        expect(r2.block_projection_norms, r1.block_projection_norms,
               "block projection norms")
        e1 = sl.eps_cc_value(basis, self.zeros, self.j0)
        e2 = sl.eps_cc_value(padded, self.zeros, self.j0)
        expect(e2, e1, "coefficient ceiling")
        c1 = sl.convex_block(basis, self.blocks, self.weights)
        c2 = sl.convex_block(padded, self.blocks, self.weights)
        expect(c2.rho, c1.rho, "block difference coordinates")
        expect(c2.vectors, tuple(v + (Fraction(0),) for v in c1.vectors), "block vectors")


def basis_identities(ctx: Context) -> list[list]:
    m = ctx.mods
    sl = m.seqlab
    rng = ctx.rng("basis_identities")
    dims = BASIS_DIMS[:1] if ctx.tiny else BASIS_DIMS
    kinds = (sl.NormKind.SUP, sl.NormKind.L1, sl.NormKind.SE)
    out = []
    for _ in range(ctx.cycles):
        cycle = []
        for dim in dims:
            for kind in kinds:
                if kind is sl.NormKind.L1 and dim > L1_MAX_DIM:
                    continue
                basis = m.sampling.random_basis(rng, kind, dim, dim)
                padded = sl.PolyBasis(
                    sl.PolySpace(dim + 1, kind),
                    tuple(v + (Fraction(0),) for v in basis.vectors))
                blocks, weights = m.sampling.random_blocking(rng, basis)
                j0 = rng.randint(1, dim)
                zeros = frozenset(z for z in range(1, dim + 1)
                                  if z != j0 and rng.random() < 0.3)
                cycle.append(BasisItem(
                    m, "%s%d" % (kind.name.lower(), dim),
                    m.documents.dumps(basis), m.documents.dumps(padded),
                    blocks, weights, zeros, j0))
        out.append(cycle)
    return out


# -- cli_invocations -------------------------------------------------------

CLI_SAMPLES = 4
CLI_MAX_UNROLLED = 15


class CliItem:
    """One ``python -m oscal.cli`` run: exit code and output checked against
    a golden file or the in-process library value.  With ``in_process``
    set it calls ``oscal.cli.main(argv)`` directly instead."""

    in_process = False

    def __init__(self, mods, label, argv, env, want_code, check, out_file=None):
        self.mods, self.label, self.argv, self.env = mods, label, argv, env
        self.want_code, self.check, self.out_file = want_code, check, out_file

    def run(self) -> None:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.mods.cli.main(list(self.argv))
            stdout = buf.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "oscal.cli"] + list(self.argv),
                capture_output=True, text=True, env=self.env, timeout=120)
            code, stdout = proc.returncode, proc.stdout
        expect(code, self.want_code, "exit code")
        self.check(stdout)
        if self.out_file is not None:
            expect(Path(self.out_file).read_text(encoding="utf-8"), stdout,
                   "output file vs stdout")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("OSCAL_CAP", None)
    return env


def _same_text(want: str, what: str):
    def check(stdout: str) -> None:
        expect(stdout, want, what)
    return check


def _same_json(want, what: str):
    def check(stdout: str) -> None:
        expect(json.loads(stdout), want, what)
    return check


def cli_invocations(ctx: Context) -> list[list]:
    m = ctx.mods
    fmt = m.rationals.format_rational
    golden = ctx.root / "tests" / "golden"
    work = ctx.workdir
    env = child_env(ctx.root)
    rng = ctx.rng("cli_invocations")

    def save(name, doc) -> str:
        path = work / name
        path.write_text(m.documents.dumps(doc), encoding="utf-8")
        return str(path)

    def gold(name) -> str:
        return (golden / name).read_text(encoding="utf-8")

    # fixed inputs behind the golden outputs
    k3 = m.space.chain_space(3)
    phi3 = m.func.QFunction(k3, {i: -Fraction((i + 1) % 2) for i in k3.node_ids()})
    h_path = save("h.json", m.extraction.FunctionSeq(phi3, m.extraction.MovingStep(None)))
    se6 = m.seqlab.PolyBasis(
        m.seqlab.PolySpace(6, m.seqlab.NormKind.SE),
        tuple(tuple(Fraction(1) if j <= i else Fraction(0) for j in range(6))
              for i in range(6)))
    se6_path = save("se6.json", se6)
    f2_path = str(golden / "qfunction_f2.json")
    dec_out = str(work / "dec.json")
    wit_out = str(work / "witness.json")

    fixed = [
        ("space-validate", ["space", "validate", str(golden / "space_k3.json")], 0,
         _same_text(gold("space_k3.json"), "space validate vs golden"), None),
        ("dnorm-golden", ["fn", "dnorm", f2_path, "--oracle"], 0,
         _same_text(gold("cli_dnorm_oracle.txt"), "dnorm --oracle vs golden"), None),
        ("decompose", ["fn", "decompose", f2_path, "-o", dec_out], 0,
         _same_text(gold("cli_decompose.txt"), "decompose vs golden"), dec_out),
        ("eps-cc", ["seq", "eps-cc", se6_path, "--zeros", "1,3", "--j0", "4"], 0,
         _same_text(gold("cli_epscc.txt"), "eps-cc vs golden"), None),
        ("extract-run", ["extract", "run", h_path, "--alpha", "2", "--x", "0",
                         "--eta", "1/2", "-o", wit_out], 0,
         _same_text(gold("witness_k3.json"), "extract run vs golden"), wit_out),
        ("extract-check", ["extract", "check", h_path, str(golden / "witness_k3.json")], 0,
         lambda out: expect(json.loads(out)["verdict"], "true", "extract check verdict"), None),
    ]

    # seeded inputs with in-process library references
    corpus = m.sampling.build_corpus(ctx.seed)
    small = [f for f in corpus.functions
             if not f.is_complex() and m.space.unrolled_size(f.space, 3) <= CLI_MAX_UNROLLED]
    samples = []
    kinds = (m.seqlab.NormKind.SUP, m.seqlab.NormKind.SE)
    for s in range(min(ctx.cycles, CLI_SAMPLES)):
        f = rng.choice(small)
        basis = m.sampling.random_basis(rng, kinds[s % 2], 3, 3)
        f_path, b_path = save("f%d.json" % s, f), save("b%d.json" % s, basis)
        tr = m.transfinite.iterate(f, "osc")
        rep = m.seqlab.check_identities(basis)
        identities = {
            "checks": {name: bool(ok) for name, ok in rep.checks.items()},
            "lambda": fmt(rep.lambda_),
            "summing_norm": fmt(rep.summing_norm),
            "coefficient_norms": [fmt(v) for v in rep.coefficient_norms],
            "block_projection_norms": [fmt(v) for v in rep.block_projection_norms],
            "sup_basis_norm": fmt(rep.sup_basis_norm),
            "all_pass": True,
        }
        samples.append([
            ("envelope", ["fn", "envelope", f_path, "--kind", "upper"], 0,
             _same_text(m.documents.dumps(m.func.usc_envelope(f)), "upper envelope"), None),
            ("osc", ["fn", "osc", f_path, "--stabilize"], 0,
             _same_text(m.documents.dumps(tr.stages[tr.stabilized_at]), "stable stage"), None),
            ("index", ["fn", "index", f_path], 0,
             _same_json({"i_D": str(m.transfinite.d_index(f))}, "index"), None),
            ("dnorm", ["fn", "dnorm", f_path, "--oracle"], 0,
             _same_json({"formula": fmt(m.transfinite.d_norm(f)),
                         "oracle": fmt(m.oracle.oracle_dnorm(f).optimum),
                         "agree": True}, "dnorm --oracle"), None),
            ("identities", ["seq", "identities", b_path], 0,
             _same_json(identities, "identities"), None),
        ])

    out = []
    for c in range(ctx.cycles):
        specs = fixed[:1] + samples[c % len(samples)] + fixed[1:]
        out.append([CliItem(m, label, argv, env, code, check, out_file)
                    for label, argv, code, check, out_file in specs])
    return out


# the function that makes the cycles, and the time one cycle takes on the
# reference host (see README): a run is round(seconds / cycle time) whole
# cycles, so every run of a workload does the same items, however fast the
# code under test is
WORKLOADS = {
    "corpus_certify": (corpus_certify, 3.7),
    "deep_chains": (deep_chains, 5.2),
    "basis_identities": (basis_identities, 5.5),
    "cli_invocations": (cli_invocations, 1.9),
}
