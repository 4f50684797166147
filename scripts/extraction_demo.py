"""Walk one extraction end to end and then break it on purpose.

Builds the alternating sequence on the rank-3 chain space, extracts a
depth-2 jump chain, prints the witness bundle as a document and the
terms f_j(t) at its final point, re-checks it with the independent
checker, reduces the chain built at eta/5 to difference form at eta, and
finally corrupts single fields to show the checker naming each violated
condition.

    python3 scripts/extraction_demo.py [--eta 1/2]
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

try:
    import oscal
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oscal import documents
from oscal.extraction import (
    FunctionSeq,
    MovingStep,
    WitnessBundle,
    build_jump_chain,
    check_difference_witness,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.func import QFunction
from oscal.rationals import parse_rational
from oscal.space import chain_space


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eta", type=parse_rational, default=Fraction(1, 2))
    ns = ap.parse_args(argv)

    space = chain_space(3)
    phi = QFunction(
        space,
        {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1), 3: Fraction(0)},
    )
    seq = FunctionSeq(phi, MovingStep(None))

    bundle = build_jump_chain(seq, 2, 0, ns.eta)
    print("witness bundle:")
    print(documents.dumps(bundle), end="")
    # f_j(t) moves with j until j passes t's copy indices, then is f(t)
    terms = [seq.eval(j, bundle.t) for j in range(1, 2 * bundle.k + 2)]
    print("f_j(t), j = 1..%d: %s" % (len(terms), ", ".join(map(str, terms))))

    report = check_jump_chain(seq, bundle)
    print("\nchain check: %s" % report.verdict.name)
    for name, verdict in report.conditions.items():
        print("  %-14s %s" % (name, verdict.name))

    # the reduction to difference form costs a factor 5 in eta, so the
    # chain it starts from is built at eta / 5
    chain = build_jump_chain(seq, 2, 0, ns.eta / 5)
    diff = difference_witness_from_chain(chain)
    verdict = check_difference_witness(seq, diff)
    print(
        "difference form at eta %s (chain at eta/5): %s"
        % (diff.eta, verdict.name)
    )

    print("\nnow corrupting fields one at a time:")
    corruptions = {
        "lam doubled": {"lam": bundle.lam * 2},
        "first delta negated": {
            "deltas": (-bundle.deltas[0],) + bundle.deltas[1:]
        },
        "second marker shifted": {"m": (1, 3, 4, 5)},
    }
    for label, change in corruptions.items():
        fields = dict(
            indices=bundle.indices,
            m=bundle.m,
            k=bundle.k,
            t=bundle.t,
            eta=bundle.eta,
            lam=bundle.lam,
            points=bundle.points,
            deltas=bundle.deltas,
        )
        fields.update(change)
        bad = WitnessBundle(**fields)
        rep = check_jump_chain(seq, bad)
        print(
            "  %-22s -> %s (%s)"
            % (label, rep.verdict.name, ", ".join(rep.failed()))
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
