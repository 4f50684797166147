"""Command-line front end.

Reads documents, runs one computation or verification, writes a JSON
result (documents for document-valued outputs, small result objects
otherwise) to standard output.  ``--quiet`` prints only the bare verdict
("true" or "false"), the bare value, or ``ok`` for a valid space, and
nothing for a computed document; ``-o`` files are written either way.
Integer options take ASCII digits only (``rationals.parse_int``).

Exit code 0 means success or a verified true; 1 means a verified false,
the stage cap of ``fn index`` (the only command with one), or an
extraction whose preconditions fail on valid input; 2 means
the input itself was unusable (malformed document, wrong kind, invalid
arguments); 3 means an internal self-check failed or an exception no
handler expects escaped (its traceback goes to standard error), a bug
rather than an answer; input that does not parse is reported where it
is read, so a stray ``ValueError`` is such a bug too.
``extract run --alpha`` takes any stage from 1; above the index it exits 1.

Each subcommand imports only the layers it runs, so start-up cost
follows the command: ``space validate`` loads no LP or extraction code,
and only ``fn dnorm --oracle`` loads the simplex kernel for an ``fn``
command.  The package's records come from its own ``_record`` helper,
which builds their methods as closures: no command imports the standard
library's code-generating record decorator or ``inspect``, and none
compiles code per record class.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents
from .errors import (
    DocumentError,
    ExactnessError,
    InternalCheckError,
    MismatchError,
    PreconditionError,
    ResourceCapError,
    SpaceError,
)
from .rationals import Verdict, format_rational, parse_int, parse_rational


def _diag(message: str) -> None:
    print("oscal: %s" % message, file=sys.stderr)


def _emit(args, obj, quiet_text: str) -> None:
    """Print ``quiet_text`` under --quiet, else ``obj`` as indented JSON."""
    if args.quiet:
        sys.stdout.write(quiet_text + "\n")
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit_text(args, text: str, out: str | None = None) -> None:
    """Write ``text`` to the file ``out`` when given; echo it unless --quiet."""
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DocumentError("cannot write %s: %s" % (out, exc.strerror)) from None
    if not args.quiet:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror)) from None
    except UnicodeDecodeError as exc:
        raise DocumentError("%s is not UTF-8 text: %s" % (path, exc.reason)) from None


def _load(path: str, expected: str) -> documents.Document:
    doc = documents.loads(_read_text(path))
    kind = documents.document_kind(doc)
    if kind != expected:
        raise DocumentError(
            "%s: expected a %s document, got %s" % (path, expected, kind)
        )
    return doc


def _positive_int(text: str) -> int:
    value = parse_int(text)
    if not value:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _nonnegative_int(text: str) -> int:
    value = parse_int(text)
    if value is None:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return value


def _integer(text: str) -> int:
    value = parse_int(text, signs="-")
    if value is None:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    return value


# -- commands ------------------------------------------------------------------


def cmd_space_validate(args) -> int:
    doc = _load(args.file, "space")
    violations = doc.validate()
    if violations:
        for line in violations:
            _diag(line)
        return 2
    _emit(args, documents.document_obj(doc), "ok")
    return 0


def cmd_fn_envelope(args) -> int:
    from .func import lsc_envelope, usc_envelope
    f = _load(args.file, "qfunction")
    out = usc_envelope(f) if args.kind == "upper" else lsc_envelope(f)
    _emit_text(args, documents.dumps(out))
    return 0


def cmd_fn_osc(args) -> int:
    from .transfinite import final_stage, iterate
    f = _load(args.file, "qfunction")
    kind = "v" if args.positive else "osc"
    if args.alpha is None:
        out = final_stage(f, kind)
    else:
        out = iterate(f, kind, args.alpha).stage(args.alpha)
    _emit_text(args, documents.dumps(out))
    return 0


def cmd_fn_index(args) -> int:
    from .transfinite import DEFAULT_CAP, CapExceeded, d_index
    f = _load(args.file, "qfunction")
    res = d_index(f, DEFAULT_CAP if args.cap is None else args.cap)
    if isinstance(res, CapExceeded):
        _diag("chain did not stabilize within cap %d" % res.cap)
        return 1
    _emit(args, {"i_D": str(res)}, str(res))
    return 0


def cmd_fn_dnorm(args) -> int:
    from .transfinite import d_norm
    f = _load(args.file, "qfunction")
    if args.unroll is not None:
        from .func import lift_function
        from .space import unroll
        unrolled, node_map = unroll(f.space, args.unroll)
        f = lift_function(f, unrolled, node_map)
    formula = d_norm(f)
    if not args.oracle:
        text = format_rational(formula)
        _emit(args, {"d_norm": text}, text)
        return 0
    from .oracle import oracle_dnorm
    res = oracle_dnorm(f)
    agree = formula == res.optimum
    obj = {
        "formula": format_rational(formula),
        "oracle": format_rational(res.optimum),
        "agree": agree,
    }
    _emit(args, obj, "true" if agree else "false")
    return 0 if agree else 1


def cmd_fn_decompose(args) -> int:
    from .transfinite import decompose
    dec = decompose(_load(args.file, "qfunction"))
    obj = {
        "norm": format_rational(dec.norm),
        "u": documents.document_obj(dec.u),
        "v": documents.document_obj(dec.v),
    }
    _emit_text(args, json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_seq_identities(args) -> int:
    from .seqlab import check_identities
    basis = _load(args.file, "basis")
    rep = check_identities(basis)
    obj = {
        "checks": {name: bool(ok) for name, ok in rep.checks.items()},
        "lambda": format_rational(rep.lambda_),
        "summing_norm": format_rational(rep.summing_norm),
        "coefficient_norms": [format_rational(v) for v in rep.coefficient_norms],
        "block_projection_norms": [
            format_rational(v) for v in rep.block_projection_norms
        ],
        "sup_basis_norm": format_rational(rep.sup_basis_norm),
        "all_pass": rep.all_pass,
    }
    _emit(args, obj, "true" if rep.all_pass else "false")
    return 0 if rep.all_pass else 1


def cmd_seq_value(args) -> int:
    """seq basis-constant, wuc and duc: one number of a basis, printed
    under its ``args.measure`` key."""
    from . import seqlab
    basis = _load(args.file, "basis")
    if args.measure == "basis_constant":
        value = seqlab.basis_constant(basis)
    elif args.measure == "wuc":
        value = seqlab.wuc_norm(basis.space, basis.vectors)
    else:
        value = seqlab.duc_norm(basis.space, basis.vectors)
    text = format_rational(value)
    _emit(args, {args.measure: text}, text)
    return 0


def _parse_zeros(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    positions = [parse_int(part.strip()) for part in text.split(",")]
    if None in positions:
        raise PreconditionError(
            "--zeros expects comma-separated positions, got %r" % text
        )
    return frozenset(positions)


def cmd_seq_eps_cc(args) -> int:
    from .seqlab import eps_cc_value
    basis = _load(args.file, "basis")
    value = eps_cc_value(basis, _parse_zeros(args.zeros), args.j0)
    text = format_rational(value)
    _emit(args, {"eps_cc": text, "label": "stage-%d bound" % basis.size}, text)
    return 0


def cmd_extract_run(args) -> int:
    from .extraction import build_jump_chain
    seq = _load(args.file, "sequence")
    try:
        eta = parse_rational(args.eta)
    except ValueError as exc:
        raise PreconditionError("--eta: %s" % exc) from None
    try:
        bundle = build_jump_chain(seq, args.alpha, args.x, eta)
    except PreconditionError as exc:
        _diag(str(exc))
        return 1
    _emit_text(args, documents.dumps(bundle), args.out)
    return 0


def cmd_extract_check(args) -> int:
    from .extraction import check_difference_witness, check_jump_chain
    seq = _load(args.seqfile, "sequence")
    witness = _load(args.witnessfile, "witness")
    if witness.points:
        rep = check_jump_chain(seq, witness)
        verdict = rep.verdict
        obj = {
            "conditions": {name: v.value for name, v in rep.conditions.items()},
            "verdict": verdict.value,
        }
    else:
        verdict = check_difference_witness(seq, witness)
        obj = {"verdict": verdict.value}
    _emit(args, obj, verdict.value)
    return 0 if verdict is Verdict.TRUE else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscal",
        description="exact oscillation calculus on finitely presented spaces",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="print only the verdict"
    )
    sub = parser.add_subparsers(dest="command")

    p_space = sub.add_parser("space", help="space documents")
    space_sub = p_space.add_subparsers(dest="subcommand")
    p = space_sub.add_parser("validate", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=cmd_space_validate)

    p_fn = sub.add_parser("fn", help="node functions")
    fn_sub = p_fn.add_subparsers(dest="subcommand")

    p = fn_sub.add_parser("envelope", parents=[common])
    p.add_argument("file")
    p.add_argument("--kind", choices=("upper", "lower"), required=True)
    p.set_defaults(handler=cmd_fn_envelope)

    p = fn_sub.add_parser("osc", parents=[common])
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=_nonnegative_int, default=None)
    group.add_argument("--stabilize", action="store_true")
    p.add_argument("--positive", action="store_true")
    p.set_defaults(handler=cmd_fn_osc)

    p = fn_sub.add_parser("index", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--cap", type=_positive_int, default=None,
        help="stage cap of fn index (default 64)",
    )
    p.set_defaults(handler=cmd_fn_index)

    p = fn_sub.add_parser("dnorm", parents=[common])
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--unroll", type=_nonnegative_int, default=None)
    p.set_defaults(handler=cmd_fn_dnorm)

    p = fn_sub.add_parser("decompose", parents=[common])
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=cmd_fn_decompose)

    p_seq = sub.add_parser("seq", help="finite bases and series")
    seq_sub = p_seq.add_subparsers(dest="subcommand")

    p = seq_sub.add_parser("identities", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=cmd_seq_identities)

    for name in ("basis-constant", "wuc", "duc"):
        p = seq_sub.add_parser(name, parents=[common])
        p.add_argument("file")
        p.set_defaults(handler=cmd_seq_value, measure=name.replace("-", "_"))

    p = seq_sub.add_parser("eps-cc", parents=[common])
    p.add_argument("file")
    p.add_argument("--zeros", required=True)
    p.add_argument("--j0", type=_positive_int, required=True)
    p.set_defaults(handler=cmd_seq_eps_cc)

    p_extract = sub.add_parser("extract", help="subsequence extraction")
    extract_sub = p_extract.add_subparsers(dest="subcommand")

    p = extract_sub.add_parser("run", parents=[common])
    p.add_argument("file")
    p.add_argument("--alpha", type=_positive_int, required=True)
    p.add_argument("--x", type=_integer, required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=cmd_extract_run)

    p = extract_sub.add_parser("check", parents=[common])
    p.add_argument("seqfile")
    p.add_argument("witnessfile")
    p.set_defaults(handler=cmd_extract_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return handler(args)
    except (
        DocumentError, PreconditionError, SpaceError, MismatchError, ExactnessError
    ) as exc:
        _diag(str(exc))
        return 2
    except ResourceCapError as exc:
        _diag(str(exc))
        return 1
    except InternalCheckError as exc:
        _diag("internal check failed: %s" % exc)
        return 3
    except Exception:  # no handler expects it: a bug, not an answer
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
