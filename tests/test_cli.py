"""End-to-end command line coverage, through subprocesses except where a
test must patch the library under the command."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import oscal.cli
import oscal.oracle
import oscal.transfinite
from oscal import documents
from helpers import replace
from oscal.extraction import (
    FunctionSeq,
    IndexSeq,
    MovingStep,
    WitnessBundle,
    build_jump_chain,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.errors import PreconditionError
from oscal.func import QFunction, lift_function, usc_envelope
from oscal.rationals import GaussianRational
from oscal.rationals import format_rational as fmt
from oscal.seqlab import NormKind, PolyBasis, PolySpace, check_identities
from oscal.space import PointRef, RecurringStep, chain_space, unroll
from oscal.transfinite import d_index, d_norm, iterate

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, stdin=None, env_extra=None):
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


@pytest.fixture(scope="module")
def paths(tmp_path_factory, k3, f2, g_seq, h_seq):
    tmp = tmp_path_factory.mktemp("cli")

    def save(name, doc):
        p = tmp / name
        p.write_text(documents.dumps(doc))
        return p

    basis = PolyBasis(
        PolySpace(4, NormKind.SUP),
        tuple(
            tuple(F(1) if j <= i else F(0) for j in range(1, 5))
            for i in range(1, 5)
        ),
    )
    se_basis = PolyBasis(
        PolySpace(6, NormKind.SE),
        tuple(
            tuple(F(1) if j <= i else F(0) for j in range(1, 7))
            for i in range(1, 7)
        ),
    )
    out = {
        "tmp": tmp,
        "f2": save("f2.json", f2),
        "k3": save("k3.json", k3),
        "g": save("g.json", g_seq),
        "h": save("h.json", h_seq),
        "basis": save("basis.json", basis),
        "se_basis": save("se_basis.json", se_basis),
    }
    return out


# -- every subcommand's output, pinned byte for byte ---------------------------


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _f2_with(values):
    """qfunction_f2.json with its values replaced, as the CLI prints it."""
    obj = json.loads((GOLDEN / "qfunction_f2.json").read_text())
    return _json_text(dict(obj, values=values))


def _conditions(sum_window):
    names = ("delta_positive", "jump_1", "jump_2", "sum_window",
             "block_1", "block_2", "block_3", "tail")
    conditions = {n: "true" for n in names}
    conditions["sum_window"] = sum_window
    return {"conditions": conditions, "verdict": sum_window}


_IDENTITIES_SUP = {
    "checks": {
        "difference_biorthogonal_rows": True,
        "block_projection_recursion": True,
        "projection_recovery": True,
        "biorthogonal_differences": True,
        "coefficient_functional_bound": True,
        "block_projection_bound": True,
    },
    "lambda": "2",
    "summing_norm": "1",
    "coefficient_norms": ["1", "1", "1", "1"],
    "block_projection_norms": ["1", "1", "1", "1"],
    "sup_basis_norm": "1",
    "all_pass": True,
}

# (argv, JSON-mode stdout, --quiet stdout, exit code); "{out}" is an -o
# file, which holds the JSON-mode text in both modes whenever the command
# succeeds, and is not written when it fails
PINNED = {
    "space-validate": (
        ["space", "validate", "{k3}"], "golden:space_k3.json", "ok\n", 0),
    "fn-envelope-upper": (
        ["fn", "envelope", "{f2}", "--kind", "upper"],
        _f2_with({"0": "1", "1": "1", "2": "0"}), "", 0),
    "fn-envelope-lower": (
        ["fn", "envelope", "{f2}", "--kind", "lower"],
        _f2_with({"0": "0", "1": "0", "2": "0"}), "", 0),
    "fn-osc-stabilize": (
        ["fn", "osc", "{f2}", "--stabilize"],
        _f2_with({"0": "2", "1": "1", "2": "0"}), "", 0),
    "fn-osc-alpha": (
        ["fn", "osc", "{f2}", "--alpha", "1"],
        _f2_with({"0": "1", "1": "1", "2": "0"}), "", 0),
    "fn-index": (["fn", "index", "{f2}"], _json_text({"i_D": "2"}), "2\n", 0),
    "fn-index-capped": (["fn", "index", "{f2}", "--cap", "1"], "", "", 1),
    "fn-dnorm": (["fn", "dnorm", "{f2}"], _json_text({"d_norm": "2"}), "2\n", 0),
    "fn-dnorm-unroll": (
        ["fn", "dnorm", "{f2}", "--unroll", "2"],
        _json_text({"d_norm": "2"}), "2\n", 0),
    "fn-dnorm-oracle": (
        ["fn", "dnorm", "{f2}", "--oracle"],
        "golden:cli_dnorm_oracle.txt", "true\n", 0),
    "fn-decompose": (
        ["fn", "decompose", "{f2}", "-o", "{out}"],
        "golden:cli_decompose.txt", "", 0),
    "seq-identities": (
        ["seq", "identities", "{basis}"], _json_text(_IDENTITIES_SUP), "true\n", 0),
    "seq-basis-constant": (
        ["seq", "basis-constant", "{basis}"],
        _json_text({"basis_constant": "2"}), "2\n", 0),
    "seq-wuc": (["seq", "wuc", "{basis}"], _json_text({"wuc": "4"}), "4\n", 0),
    "seq-duc": (["seq", "duc", "{basis}"], _json_text({"duc": "1"}), "1\n", 0),
    "seq-eps-cc": (
        ["seq", "eps-cc", "{se_basis}", "--zeros", "1,3", "--j0", "4"],
        "golden:cli_epscc.txt", "2\n", 0),
    "extract-run": (
        ["extract", "run", "{h}", "--alpha", "2", "--x", "0", "--eta", "1/2",
         "-o", "{out}"],
        "golden:witness_k3.json", "", 0),
    "extract-run-precondition": (
        ["extract", "run", "{g}", "--alpha", "2", "--x", "0", "--eta", "1/2",
         "-o", "{out}"],
        "", "", 1),
    "extract-check": (
        ["extract", "check", "{h}", "{witness}"],
        _json_text(_conditions("true")), "true\n", 0),
    "extract-check-false": (
        ["extract", "check", "{h}", "{bad_witness}"],
        _json_text(_conditions("false")), "false\n", 1),
    "extract-check-difference": (
        ["extract", "check", "{h}", "{diff_witness}"],
        _json_text({"verdict": "true"}), "true\n", 0),
}


@pytest.fixture(scope="module")
def pinned_files(paths):
    tmp = paths["tmp"]
    witness = json.loads((GOLDEN / "witness_k3.json").read_text())
    bad = dict(witness, lam="5")
    diff = dict(witness, points=[], deltas=[], eta="1/10")
    (tmp / "bad_witness.json").write_text(json.dumps(bad) + "\n")
    (tmp / "diff_witness.json").write_text(json.dumps(diff) + "\n")
    return {
        "f2": GOLDEN / "qfunction_f2.json",
        "k3": GOLDEN / "space_k3.json",
        "basis": GOLDEN / "basis_sup.json",
        "witness": GOLDEN / "witness_k3.json",
        "bad_witness": tmp / "bad_witness.json",
        "diff_witness": tmp / "diff_witness.json",
        "h": paths["h"],
        "g": paths["g"],
        "se_basis": paths["se_basis"],
    }


@pytest.mark.parametrize("quiet", [False, True], ids=["json", "quiet"])
@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_output(command, quiet, pinned_files, tmp_path, capsys):
    argv, want_json, want_quiet, want_code = PINNED[command]
    if want_json.startswith("golden:"):
        want_json = (GOLDEN / want_json[len("golden:"):]).read_text()
    out = tmp_path / "out.json"
    argv = [a.format(out=out, **pinned_files) for a in argv]
    code = oscal.cli.main(argv + ["--quiet"] * quiet)
    assert (code, capsys.readouterr().out) == (
        want_code, want_quiet if quiet else want_json)
    if "{out}" in PINNED[command][0]:
        assert out.exists() == (want_code == 0)
        if want_code == 0:
            assert out.read_text() == want_json


# every command level's --help, at 80 columns
HELP_ARGV = [
    [],
    ["space"], ["space", "validate"],
    ["fn"], ["fn", "envelope"], ["fn", "osc"], ["fn", "index"],
    ["fn", "dnorm"], ["fn", "decompose"],
    ["seq"], ["seq", "identities"], ["seq", "basis-constant"], ["seq", "wuc"],
    ["seq", "duc"], ["seq", "eps-cc"],
    ["extract"], ["extract", "run"], ["extract", "check"],
]


def test_help_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    text = []
    for argv in HELP_ARGV:
        with pytest.raises(SystemExit) as exc:
            oscal.cli.main(argv + ["--help"])
        assert exc.value.code == 0, argv
        text.append("$ oscal %s\n" % " ".join(argv + ["--help"]))
        text.append(capsys.readouterr().out)
    assert "".join(text) == (GOLDEN / "cli_help.txt").read_text()


def test_index(paths):
    r = run_cli(["fn", "index", paths["f2"]])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"i_D": "2"}


def test_index_from_stdin(f2):
    r = run_cli(["fn", "index", "-"], stdin=documents.dumps(f2))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"i_D": "2"}


def test_dnorm_with_oracle(paths):
    r = run_cli(["fn", "dnorm", paths["f2"], "--oracle"])
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "cli_dnorm_oracle.txt").read_text()
    assert json.loads(r.stdout) == {"formula": "2", "oracle": "2", "agree": True}


def test_dnorm_quiet(paths):
    r = run_cli(["fn", "dnorm", paths["f2"], "--oracle", "--quiet"])
    assert r.stdout == "true\n"


def test_index_cap_exhaustion(paths):
    r = run_cli(["fn", "index", paths["f2"], "--cap", "1"])
    assert r.returncode == 1
    assert "cap" in r.stderr


@pytest.fixture(scope="module")
def chain100(tmp_path_factory):
    sp = chain_space(100)
    path = tmp_path_factory.mktemp("chain") / "alternating100.json"
    path.write_text(
        documents.dumps(QFunction(sp, {i: F(i % 2) for i in sp.node_ids()}))
    )
    return path


def test_dnorm_past_the_stage_cap(chain100):
    r = run_cli(["fn", "dnorm", chain100, "--quiet"])
    assert r.returncode == 0, r.stderr
    assert r.stdout == "100\n"


def test_osc_past_the_stage_cap(chain100, capsys):
    # on the depth-100 chain, node x sees d - x jumps of 1 below it
    d = 100
    for options, want in (
        (["--stabilize"], lambda x: d - x),
        (["--alpha", "70"], lambda x: min(70, d - x)),
    ):
        assert oscal.cli.main(["fn", "osc", str(chain100)] + options) == 0
        got = documents.loads(capsys.readouterr().out).values
        assert got == {x: F(want(x)) for x in range(d + 1)}, options
    argv = ["fn", "osc", str(chain100), "--positive", "--stabilize"]
    assert oscal.cli.main(argv) == 0
    assert documents.loads(capsys.readouterr().out)(0) == d // 2


def test_osc_without_alpha_does_not_iterate(paths, monkeypatch, capsys):
    def no_iteration(*args, **kwargs):
        raise AssertionError("iterate called")

    monkeypatch.setattr(oscal.transfinite, "iterate", no_iteration)
    for options in ([], ["--stabilize"], ["--positive"], ["--positive", "--stabilize"]):
        assert oscal.cli.main(["fn", "osc", str(paths["f2"])] + options) == 0
        assert documents.loads(capsys.readouterr().out).space == documents.loads(
            paths["f2"].read_text()).space


def test_decompose_past_the_stage_cap(chain100, tmp_path):
    r = run_cli(["fn", "decompose", chain100, "-o", tmp_path / "dec.json"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["norm"] == "100"
    assert (tmp_path / "dec.json").read_text() == r.stdout


def test_deeply_nested_json_is_malformed_input(tmp_path):
    # deep enough for the recursion guard of every supported interpreter
    depth = 100_000
    bad = tmp_path / "deep.json"
    bad.write_text(
        '{"kind": "space", "root": 0, "nodes": %s}' % ("[" * depth + "]" * depth)
    )
    r = run_cli(["space", "validate", bad])
    assert r.returncode == 2, r.stderr
    assert "oscal:" in r.stderr
    assert "Traceback" not in r.stderr


def test_internal_fault_exits_three(paths, monkeypatch, capsys):
    # a kernel returning a wrong optimum must be caught by the oracle's
    # re-verification and reported as a fault, not as a false verdict
    real_solve = oscal.oracle.solve

    def wrong_optimum(lp):
        res = real_solve(lp)
        return replace(res, num=res.num + res.den)  # the objective plus 1

    monkeypatch.setattr(oscal.oracle, "solve", wrong_optimum)
    code = oscal.cli.main(["fn", "dnorm", str(paths["f2"]), "--oracle"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal check failed" in err
    assert "objective" in err


def test_unexpected_fault_exits_three(paths, monkeypatch, capsys):
    # an exception no handler expects is a bug too: its traceback goes to
    # stderr and the exit code is 3, never the "verdict false" code 1
    def broken_layer(*args, **kwargs):
        raise RuntimeError("layer fault")

    monkeypatch.setattr(oscal.transfinite, "d_norm", broken_layer)
    code = oscal.cli.main(["fn", "dnorm", str(paths["f2"])])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: layer fault" in captured.err


def test_internal_value_error_exits_three(paths, monkeypatch, capsys):
    # a ValueError inside a layer is a bug, not malformed input
    def broken_layer(*args, **kwargs):
        raise ValueError("layer fault")

    monkeypatch.setattr(oscal.transfinite, "d_norm", broken_layer)
    code = oscal.cli.main(["fn", "dnorm", str(paths["f2"])])
    assert code == 3
    assert "ValueError: layer fault" in capsys.readouterr().err


def test_non_utf8_file_is_malformed_input(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"kind": "space", "root": 0, "nodes": ["\xe9"]}')
    r = run_cli(["space", "validate", bad])
    assert r.returncode == 2, r.stderr
    assert "not UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_number_past_the_digit_limit_is_malformed_input(tmp_path):
    big = "1" * 5000
    sp = '{"nodes": [{"id": 0, "prefix": [], "recurring": []}], "root": 0}'
    docs = {
        "number": '{"kind": "space", "root": %s, "nodes": []}' % big,
        "node_key": '{"kind": "qfunction", "space": %s, "values": {"%s": "1"}}'
        % (sp, big),
    }
    for name, text in docs.items():
        bad = tmp_path / ("%s.json" % name)
        bad.write_text(text)
        r = run_cli(["fn", "dnorm", bad])
        assert r.returncode == 2, (name, r.stderr)
        assert "Traceback" not in r.stderr


def test_error_quotes_at_most_a_line_of_the_input(tmp_path, capsys):
    big = "1" * 5000 + "x"
    sp = '{"nodes": [{"id": 0, "prefix": [], "recurring": []}], "root": 0}'
    cases = {
        "value": ('{"0": "%s"}' % big, "values.0: malformed rational"),
        "node_key": ('{"%s": "1"}' % big, "values: non-numeric node key"),
    }
    for name, (values, message) in cases.items():
        bad = tmp_path / ("%s.json" % name)
        bad.write_text('{"kind": "qfunction", "space": %s, "values": %s}' % (sp, values))
        assert oscal.cli.main(["fn", "dnorm", str(bad)]) == 2
        full = "%s '%s'" % (message, big)
        assert capsys.readouterr().err == "oscal: %s... (%d characters)\n" % (
            full[:200], len(full)), name


def test_dnorm_malformed_input(paths):
    bad = paths["tmp"] / "bad.json"
    bad.write_text('{"kind": "qfunction", "space": ')
    r = run_cli(["fn", "dnorm", bad, "--oracle"])
    assert r.returncode == 2
    assert "oscal:" in r.stderr


def test_dnorm_on_unrolled_presentation(paths):
    r = run_cli(["fn", "dnorm", paths["f2"], "--unroll", "2"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["d_norm"] == "2"


def test_space_validate_echoes_canonical_form(paths, k3):
    r = run_cli(["space", "validate", paths["k3"]])
    assert r.returncode == 0
    assert r.stdout == documents.dumps(k3)


def test_space_validate_rejects_broken_space(paths):
    broken = {
        "kind": "space",
        "nodes": [
            {"id": 0, "prefix": [1], "recurring": []},
            {"id": 1, "prefix": [], "recurring": []},
        ],
        "root": 0,
    }
    p = paths["tmp"] / "broken.json"
    p.write_text(json.dumps(broken) + "\n")
    r = run_cli(["space", "validate", p])
    assert r.returncode == 2
    assert r.stderr.strip()


def test_envelope(paths):
    r = run_cli(["fn", "envelope", paths["f2"], "--kind", "upper"])
    assert r.returncode == 0
    assert documents.loads(r.stdout).values == {0: F(1), 1: F(1), 2: F(0)}


def test_osc_single_stage(paths):
    r = run_cli(["fn", "osc", paths["f2"], "--alpha", "1"])
    assert r.returncode == 0
    assert documents.loads(r.stdout).values == {0: F(1), 1: F(1), 2: F(0)}


def test_osc_stabilized(paths):
    r = run_cli(["fn", "osc", paths["f2"], "--stabilize"])
    assert documents.loads(r.stdout).values == {0: F(2), 1: F(1), 2: F(0)}


def test_decompose_writes_file_and_stdout(paths):
    out = paths["tmp"] / "dec.json"
    r = run_cli(["fn", "decompose", paths["f2"], "-o", out])
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "cli_decompose.txt").read_text()
    payload = json.loads(r.stdout)
    assert payload["norm"] == "2"
    assert json.loads(out.read_text()) == payload
    u = documents.loads(json.dumps(payload["u"]))
    assert u.values == {0: F(0), 1: F(1), 2: F(1)}


def test_identities(paths):
    r = run_cli(["seq", "identities", paths["basis"]])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["all_pass"] is True
    assert payload["lambda"] == "2"


def test_basis_constant(paths):
    r = run_cli(["seq", "basis-constant", paths["basis"]])
    assert json.loads(r.stdout) == {"basis_constant": "2"}


def test_wuc_and_duc(paths):
    r = run_cli(["seq", "wuc", paths["basis"]])
    assert r.returncode == 0
    r = run_cli(["seq", "duc", paths["basis"]])
    assert json.loads(r.stdout) == {"duc": "1"}


def test_eps_cc(paths):
    r = run_cli(["seq", "eps-cc", paths["se_basis"], "--zeros", "1,3", "--j0", "4"])
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "cli_epscc.txt").read_text()
    assert json.loads(r.stdout) == {"eps_cc": "2", "label": "stage-6 bound"}


def test_eps_cc_pinned_target(paths):
    r = run_cli(
        ["seq", "eps-cc", paths["se_basis"], "--zeros", "1,3,4", "--j0", "4"]
    )
    assert r.returncode == 2


def test_eps_cc_zeros_take_ascii_digits_only(paths):
    # an Arabic-Indic one is no position, and a superscript two must not
    # reach int(); both are malformed arguments
    for bad in ("\u0661", "\u00b2", "1,\u0663"):
        r = run_cli(
            ["seq", "eps-cc", paths["se_basis"], "--zeros", bad, "--j0", "4"]
        )
        assert r.returncode == 2, bad
        assert "--zeros expects comma-separated positions" in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "eps-cc", "{se_basis}", "--zeros", "1,3", "--j0", "\u0664"],
        ["seq", "eps-cc", "{se_basis}", "--zeros", "1,3", "--j0", " 4"],
        ["seq", "eps-cc", "{se_basis}", "--zeros", "1,3", "--j0", "+4"],
        ["fn", "dnorm", "{f2}", "--unroll", "1_0"],
        ["fn", "index", "{f2}", "--cap", " 3"],
        ["fn", "index", "{f2}", "--cap", "0"],
        ["extract", "run", "{h}", "--alpha", "2", "--x", "\u0660",
         "--eta", "1/2", "-o", "{out}"],
        ["extract", "run", "{h}", "--alpha", "2", "--x", "+0",
         "--eta", "1/2", "-o", "{out}"],
    ],
    ids=["j0-arabic-indic", "j0-space", "j0-plus", "unroll-underscore",
         "cap-space", "cap-zero", "x-arabic-indic", "x-plus"],
)
def test_integer_options_take_ascii_digits_only(argv, paths, tmp_path, capsys):
    # int() reads every one of these; an option is ASCII digits (and, for
    # the node id --x, an optional minus sign)
    out = tmp_path / "out.json"
    argv = [a.format(out=out, **paths) for a in argv]
    with pytest.raises(SystemExit) as exc:
        oscal.cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integer, got" in captured.err
    assert not out.exists()


def test_extract_run_and_check(paths, h_seq):
    out = paths["tmp"] / "wit.json"
    r = run_cli(
        ["extract", "run", paths["h"], "--alpha", "2", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    assert r.returncode == 0
    saved = documents.loads(out.read_text())
    assert saved == build_jump_chain(h_seq, 2, 0, F(1, 2))

    r = run_cli(["extract", "check", paths["h"], out])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "true"
    assert payload["conditions"]["block_2"] == "true"

    r = run_cli(["extract", "check", paths["h"], out, "--quiet"])
    assert r.stdout == "true\n"


def test_extract_check_reports_violated_condition(paths):
    out = paths["tmp"] / "wit2.json"
    run_cli(
        ["extract", "run", paths["h"], "--alpha", "2", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    corrupt = json.loads(out.read_text())
    corrupt["lam"] = "5"
    bad = paths["tmp"] / "corrupt.json"
    bad.write_text(json.dumps(corrupt) + "\n")
    r = run_cli(["extract", "check", paths["h"], bad])
    assert r.returncode == 1
    assert json.loads(r.stdout)["conditions"]["sum_window"] == "false"


def test_extract_check_difference_form(paths):
    out = paths["tmp"] / "wit3.json"
    run_cli(
        ["extract", "run", paths["h"], "--alpha", "2", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    diff = json.loads(out.read_text())
    diff["points"] = []
    diff["deltas"] = []
    diff["eta"] = "1/10"
    p = paths["tmp"] / "diff.json"
    p.write_text(json.dumps(diff) + "\n")
    r = run_cli(["extract", "check", paths["h"], p])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"verdict": "true"}


def test_extract_check_refuses_a_short_difference_form(paths):
    # k = 2 needs at least 2k = 4 block boundaries
    t = PointRef(tuple(RecurringStep(0, c) for c in (1, 2, 3)))
    with pytest.raises(PreconditionError, match="at least 2k"):
        WitnessBundle(IndexSeq(), (1, 2, 3), 2, t, F(1, 2), F(2))
    whole = WitnessBundle(IndexSeq(), (1, 2, 3, 4), 2, t, F(1, 2), F(2))
    short = json.loads(documents.dumps(whole))
    short["m"] = [1, 2, 3]
    p = paths["tmp"] / "short.json"
    p.write_text(json.dumps(short) + "\n")
    r = run_cli(["extract", "check", paths["h"], p, "--quiet"])
    assert (r.returncode, r.stdout) == (2, "")
    assert "at least 2k block boundaries" in r.stderr


@pytest.mark.parametrize(
    "t, message",
    [
        ([["r", 5, 1]], "step 0: node 0 has no recurring pattern 5"),
        ([["p", 0]], "step 0: node 0 has no prefix child 0"),
        ([["r", 0, 1]] * 5, "step 3: node 3 has no recurring pattern 0"),
        ([["r", -1, 1]], "step 0: node 0 has no recurring pattern -1"),
    ],
    ids=["pattern", "prefix", "past-the-leaf", "negative-pattern"],
)
def test_extract_check_refuses_a_point_the_space_lacks(t, message, tmp_path):
    # the difference form of the depth-3 chain, its t off the space
    sp = chain_space(3)
    seq = FunctionSeq(
        QFunction(sp, {i: F(-((i + 1) % 2)) for i in sp.node_ids()}),
        MovingStep(None),
    )
    d = difference_witness_from_chain(build_jump_chain(seq, 2, 0, F(1, 10)))
    doc = json.loads(documents.dumps(d))
    doc["t"] = t
    seq_path, witness_path = tmp_path / "seq.json", tmp_path / "witness.json"
    seq_path.write_text(documents.dumps(seq))
    witness_path.write_text(json.dumps(doc) + "\n")
    r = run_cli(["extract", "check", seq_path, witness_path, "--quiet"])
    assert (r.returncode, r.stdout) == (2, "")
    assert message in r.stderr


def test_extract_check_refuses_a_difference_form_with_jumps(paths, h_seq):
    # the difference form of the alpha = 2 chain at eta = 1/10, with a jump
    # it cannot carry: the checker would ignore it, so loading refuses it
    d = difference_witness_from_chain(build_jump_chain(h_seq, 2, 0, F(1, 10)))
    with pytest.raises(PreconditionError, match="carries no jumps"):
        replace(d, deltas=(F(7),))
    doc = json.loads(documents.dumps(d))
    doc["deltas"] = ["7"]
    p = paths["tmp"] / "jumps.json"
    p.write_text(json.dumps(doc) + "\n")
    r = run_cli(["extract", "check", paths["h"], p, "--quiet"])
    assert (r.returncode, r.stdout) == (2, "")
    assert "a difference form carries no jumps" in r.stderr


@pytest.mark.parametrize(
    "lam, expected",
    [(F(103361, 20801), (0, "true\n")), (F(4392040, 883881), (1, "false\n"))],
)
def test_extract_check_decides_an_irrational_sum(lam, expected, tmp_path):
    # the off-block sum at t is 2 sqrt 5, and eta * lam lies within 2^-30
    # of it, so a 30-bit bracket of the sum straddles the bound
    sp = chain_space(3)
    values = [GaussianRational(F(0), F(-2)), GaussianRational(F(-2), F(-1)),
              GaussianRational(F(1), F(-1)), GaussianRational(F(0), F(1))]
    seq = FunctionSeq(
        QFunction(sp, dict(zip(sp.node_ids(), values))), MovingStep(None)
    )
    t = PointRef(tuple(RecurringStep(0, c) for c in (3, 4, 5)))
    witness = WitnessBundle(IndexSeq(), (1, 5), 1, t, F(9, 10), lam)
    seq_path, witness_path = tmp_path / "seq.json", tmp_path / "witness.json"
    seq_path.write_text(documents.dumps(seq))
    witness_path.write_text(documents.dumps(witness))
    r = run_cli(["extract", "check", seq_path, witness_path, "--quiet"])
    assert (r.returncode, r.stdout) == expected


def test_extract_precondition_exits_one(paths):
    out = paths["tmp"] / "wit4.json"
    r = run_cli(
        ["extract", "run", paths["g"], "--alpha", "2", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    assert r.returncode == 1


def test_extract_stage_outside_the_index(paths):
    out = paths["tmp"] / "wit6.json"
    # stage 0 is no stage: a malformed argument
    for bad in ("0", "-1", "two", "\u0662"):
        r = run_cli(
            ["extract", "run", paths["h"], "--alpha", bad, "--x", "0",
             "--eta", "1/2", "-o", out]
        )
        assert r.returncode == 2, bad
    # stage 3 adds nothing to stage 2 at the root: a well-posed failure
    r = run_cli(
        ["extract", "run", paths["h"], "--alpha", "3", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    assert r.returncode == 1
    assert "stage 3 adds nothing" in r.stderr
    assert not out.exists()


def test_extract_unknown_node_is_malformed(paths):
    out = paths["tmp"] / "wit8.json"
    for node in (["--x", "99"], ["--x=-1"]):
        r = run_cli(
            ["extract", "run", paths["h"], "--alpha", "1", *node,
             "--eta", "1/2", "-o", out]
        )
        assert r.returncode == 2, node
        assert "no node with id" in r.stderr
        assert not out.exists()


def test_osc_negative_stage_is_malformed(paths):
    # a stage counts from 0; --alpha -1 used to print the last stage
    for bad in ("-1", "-3", "two", "\u0662"):
        r = run_cli(["fn", "osc", paths["f2"], "--alpha=" + bad])
        assert (r.returncode, r.stdout) == (2, ""), bad
    r = run_cli(["fn", "osc", paths["f2"], "--alpha", "0"])
    assert r.returncode == 0
    assert documents.loads(r.stdout).values == {0: F(0), 1: F(0), 2: F(0)}


def test_extract_run_above_stage_two(tmp_path):
    sp = chain_space(7)
    seq = FunctionSeq(
        QFunction(sp, {i: F(-((i + 1) % 2)) for i in sp.node_ids()}),
        MovingStep(None),
    )
    seq_path = tmp_path / "chain7.json"
    seq_path.write_text(documents.dumps(seq))
    out = tmp_path / "wit.json"
    r = run_cli(
        ["extract", "run", seq_path, "--alpha", "4", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    assert r.returncode == 0, r.stderr
    assert documents.loads(out.read_text()).k == 4
    r = run_cli(["extract", "check", seq_path, out, "--quiet"])
    assert (r.returncode, r.stdout) == (0, "true\n")


def test_extract_eta_must_parse(paths):
    out = paths["tmp"] / "wit7.json"
    # "\u0664/\u0669" is four ninths in Arabic-Indic digits, which
    # Fraction reads; a rational takes ASCII digits only
    for bad in ("0.5", "\u00b2", "\u0664/\u0669", "1/0", ""):
        why = "zero denominator" if bad == "1/0" else "malformed rational"
        r = run_cli(
            ["extract", "run", paths["h"], "--alpha", "2", "--x", "0",
             "--eta", bad, "-o", out]
        )
        assert r.returncode == 2, bad
        assert "--eta: %s" % why in r.stderr, bad
        assert "Traceback" not in r.stderr
        assert not out.exists()


def test_wrong_document_kind_exits_two(paths):
    out = paths["tmp"] / "wit5.json"
    r = run_cli(
        ["extract", "run", paths["f2"], "--alpha", "1", "--x", "0",
         "--eta", "1/2", "-o", out]
    )
    assert r.returncode == 2
    r = run_cli(["fn", "index", paths["k3"]])
    assert r.returncode == 2


def test_copy_indexed_document_is_rejected(tmp_path, capsys):
    # a cifunction with constant copy tables: a qfunction in another format,
    # and no longer a document kind
    sp = '{"nodes": [{"id": 0, "prefix": [], "recurring": []}], "root": 0}'
    doc = tmp_path / "ci_const.json"
    doc.write_text('{"kind": "cifunction", "space": %s, "tables": {"0": '
                   '{"upto": [], "tail": "1"}}}' % sp)
    assert oscal.cli.main(["fn", "index", str(doc)]) == 2
    assert capsys.readouterr().err == (
        "oscal: unknown document kind 'cifunction' (expected one of space, "
        "qfunction, sequence, basis, witness)\n")


# -- each command imports only the layers it runs ------------------------------

# runs main(argv) like the console script, then reports the loaded modules
# on the last line of stderr
_PROBE = (
    "import json, sys\n"
    "from oscal.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps(sorted(sys.modules)) + '\\n')\n"
    "sys.exit(code)\n"
)

# layers a command family must not load
_SPACE_FN = {"seqlab", "extraction"}
_NO_LP = {"simplex", "oracle"}  # fn commands other than dnorm --oracle
_SEQ = {"extraction", "transfinite", "oracle"}
_EXTRACT = {"seqlab", "simplex", "oracle"}


def _expected_identities(basis):
    rep = check_identities(basis)
    return {
        "checks": {name: bool(ok) for name, ok in rep.checks.items()},
        "lambda": fmt(rep.lambda_),
        "summing_norm": fmt(rep.summing_norm),
        "coefficient_norms": [fmt(v) for v in rep.coefficient_norms],
        "block_projection_norms": [fmt(v) for v in rep.block_projection_norms],
        "sup_basis_norm": fmt(rep.sup_basis_norm),
        "all_pass": rep.all_pass,
    }


def golden(name):
    return (GOLDEN / name).read_text()


@pytest.fixture(scope="module")
def import_cases(paths, f2, h_seq):
    """Command name -> (argv, expected stdout, layers it must not load)."""
    witness = documents.loads(golden("witness_k3.json"))
    report = check_jump_chain(h_seq, witness)
    tr = iterate(f2, "osc")
    lifted = lift_function(f2, *unroll(f2.space, 2))
    basis = documents.loads(paths["basis"].read_text())
    tmp = paths["tmp"]
    return {
        "space-validate": (
            ["space", "validate", GOLDEN / "space_k3.json"],
            golden("space_k3.json"), _SPACE_FN),
        "fn-envelope": (
            ["fn", "envelope", paths["f2"], "--kind", "upper"],
            documents.dumps(usc_envelope(f2)), _SPACE_FN | _NO_LP),
        "fn-osc": (
            ["fn", "osc", paths["f2"], "--stabilize"],
            documents.dumps(tr.stages[tr.stabilized_at]), _SPACE_FN | _NO_LP),
        "fn-index": (
            ["fn", "index", paths["f2"]],
            json.dumps({"i_D": str(d_index(f2))}, indent=2) + "\n",
            _SPACE_FN | _NO_LP),
        "fn-decompose": (
            ["fn", "decompose", paths["f2"], "-o", tmp / "dec_imports.json"],
            golden("cli_decompose.txt"), _SPACE_FN | _NO_LP),
        "fn-dnorm-oracle": (
            ["fn", "dnorm", paths["f2"], "--oracle"],
            golden("cli_dnorm_oracle.txt"), _SPACE_FN),
        "fn-dnorm-unroll": (
            ["fn", "dnorm", paths["f2"], "--unroll", "2"],
            json.dumps({"d_norm": fmt(d_norm(lifted))}, indent=2) + "\n",
            _SPACE_FN | _NO_LP),
        "seq-identities": (
            ["seq", "identities", paths["basis"]],
            json.dumps(_expected_identities(basis), indent=2) + "\n", _SEQ),
        "seq-eps-cc": (
            ["seq", "eps-cc", paths["se_basis"], "--zeros", "1,3", "--j0", "4"],
            golden("cli_epscc.txt"), _SEQ),
        "extract-run": (
            ["extract", "run", paths["h"], "--alpha", "2", "--x", "0",
             "--eta", "1/2", "-o", tmp / "wit_imports.json"],
            golden("witness_k3.json"), _EXTRACT),
        "extract-check": (
            ["extract", "check", paths["h"], GOLDEN / "witness_k3.json"],
            json.dumps({"conditions": {n: v.name.lower()
                                       for n, v in report.conditions.items()},
                        "verdict": report.verdict.name.lower()}, indent=2) + "\n",
            _EXTRACT | {"transfinite"}),
    }


@pytest.mark.parametrize(
    "command",
    ["space-validate", "fn-envelope", "fn-osc", "fn-index", "fn-decompose",
     "fn-dnorm-oracle", "fn-dnorm-unroll", "seq-identities", "seq-eps-cc",
     "extract-run", "extract-check"],
)
def test_command_imports_only_its_layers(command, import_cases):
    argv, want, absent = import_cases[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run(
        [sys.executable, "-c", _PROBE] + [str(a) for a in argv],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == want
    loaded = set(json.loads(r.stderr.splitlines()[-1]))
    assert "oscal.cli" in loaded
    assert not loaded & {"oscal." + m for m in absent}
    # records are built without code generation at start-up
    assert not loaded & {"dataclasses", "inspect"}
