"""Outside-in layer tracing for the benchmark.

The tracer never edits the package.  It replaces public entry points with
timing wrappers wherever an ``oscal`` module binds them (``from .simplex
import solve`` makes ``oscal.oracle.solve`` a separate binding of the same
function, so both are patched), and puts counters on a few hot methods
where a span per call would cost more than the work it measures.

Spans are kept in memory as ``[name, start, end, parent, item, data]``
rows and written out once at the end.  A span's self time is its duration
minus the durations of its direct children; the process runs one thread,
so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from fractions import Fraction

# (module, function) entry points that get a span, named after the layer
# that defines them.  Each is patched in every oscal module that binds it.
SPANNED = [
    ("simplex", "solve"),
    ("oracle", "oracle_lp"),
    ("oracle", "oracle_dnorm"),
    ("oracle", "symmetry_check"),
    ("transfinite", "iterate"),
    ("transfinite", "d_index"),
    ("transfinite", "d_norm"),
    ("transfinite", "decompose"),
    ("func", "usc_envelope"),
    ("func", "lsc_envelope"),
    ("space", "unroll"),
    ("seqlab", "check_identities"),
    ("seqlab", "functional_norm"),
    ("seqlab", "eps_cc_value"),
    ("seqlab", "convex_block"),
    ("extraction", "build_jump_chain"),
    ("extraction", "check_jump_chain"),
    ("extraction", "check_difference_witness"),
    ("documents", "loads"),
    ("documents", "dumps"),
    ("cli", "main"),
]

# (module, class, method, counter, sized): hot methods that only count.
# A sized counter adds len(result) instead of 1.
COUNTED = [
    ("space", "TreeSpace", "acc", "space.acc_calls", False),
    ("func", "QFunction", "__post_init__", "func.qfunction_builds", False),
    ("seqlab", "PolySpace", "dual_vertices", "seqlab.dual_vertices", True),
    ("extraction", "FunctionSeq", "eval", "extraction.seq_evals", False),
    ("extraction", "FunctionSeq", "tail_terms", "extraction.seq_evals", False),
]

# spans whose arguments or result feed a metric keep them in the data slot
_KEEP = {"simplex.solve", "oracle.oracle_lp", "transfinite.iterate",
         "space.unroll", "documents.loads", "documents.dumps"}


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.originals: dict[str, object] = {}  # counted methods, unwrapped

    # -- installing and removing wrappers ----------------------------------

    def install(self) -> None:
        modules = self.mods.all_modules()
        for modname, fname in SPANNED:
            original = getattr(getattr(self.mods, modname), fname)
            wrapper = self._span_wrapper(original, "%s.%s" % (modname, fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for modname, clsname, meth, counter, sized in COUNTED:
            cls = getattr(getattr(self.mods, modname), clsname)
            original = cls.__dict__[meth]
            self.originals["%s.%s" % (clsname, meth)] = original
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._count_wrapper(original, counter, sized))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _span_wrapper(self, original, name):
        spans, stack = self.spans, self._stack
        keep = name in _KEEP
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if keep:
                row[5] = (args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrapper(self, original, counter, sized):
        counts = self.counts

        if sized:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[counter] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                out[row[3]] -= row[2] - row[1]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, without the kept arguments and results."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, item, _) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "item": item}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the recorded spans and counters."""
        spans = self.spans
        self_t = self.self_times()
        dur = [row[2] - row[1] for row in spans]
        by_name: dict[str, list[int]] = {}
        for i, row in enumerate(spans):
            by_name.setdefault(row[0], []).append(i)

        def n(name):
            return len(by_name.get(name, ()))

        def total(name):
            return sum(dur[i] for i in by_name.get(name, ()))

        def layer_self(layer):
            return sum(self_t[i] for i, row in enumerate(spans)
                       if row[0].startswith(layer + "."))

        def child_time(i, names):
            return sum(dur[j] for j in children.get(i, ()) if spans[j][0] in names)

        children: dict[int, list[int]] = {}
        for i, row in enumerate(spans):
            if row[3] >= 0:
                children.setdefault(row[3], []).append(i)

        m: dict[str, float] = {}

        # simplex
        pivots = cells = max_bits = 0
        for i in by_name.get("simplex.solve", ()):
            (lp,), res = spans[i][5]
            pivots += res.pivots
            cells += len(lp.constraints) * len(lp.variables)
            values = list(res.values.values())
            if res.objective is not None:
                values.append(res.objective)
            for v in values:
                v = Fraction(v)
                max_bits = max(max_bits, v.numerator.bit_length(),
                               v.denominator.bit_length())
        simplex_self = layer_self("simplex")
        m["simplex.solves"] = n("simplex.solve")
        m["simplex.pivots"] = pivots
        m["simplex.self_s"] = simplex_self
        m["simplex.s_per_pivot"] = simplex_self / pivots if pivots else 0.0
        m["simplex.tableau_cells"] = cells
        m["simplex.result_max_bits"] = max_bits

        # oracle
        m["oracle.dnorm_calls"] = n("oracle.oracle_dnorm")
        m["oracle.symmetry_calls"] = n("oracle.symmetry_check")
        m["oracle.lp_rows"] = sum(
            len(spans[i][5][1].constraints) for i in by_name.get("oracle.oracle_lp", ()))
        m["oracle.lp_build_s"] = total("oracle.oracle_lp")
        m["oracle.verify_s"] = sum(
            dur[i] - child_time(i, ("oracle.oracle_lp", "simplex.solve"))
            for i in by_name.get("oracle.oracle_dnorm", ()))

        # transfinite: Σ|acc(x)| through the unwrapped method, so the
        # measurement does not add to space.acc_calls
        acc = self.originals["TreeSpace.acc"]
        steps = pairs = 0
        for i in by_name.get("transfinite.iterate", ()):
            trace = spans[i][5][1]
            sp = trace.base.space
            k = len(trace.stages) - 1
            steps += k
            pairs += k * sum(len(acc(sp, x)) for x in sp.limit_nodes())
        tf_self = layer_self("transfinite")
        m["transfinite.iterate_calls"] = n("transfinite.iterate")
        m["transfinite.stage_steps"] = steps
        m["transfinite.acc_pairs"] = pairs
        m["transfinite.self_s"] = tf_self
        m["transfinite.s_per_step"] = tf_self / steps if steps else 0.0

        # func
        m["func.envelope_calls"] = n("func.usc_envelope") + n("func.lsc_envelope")
        m["func.envelope_s"] = layer_self("func")
        m["func.qfunction_builds"] = self.counts["func.qfunction_builds"]

        # space
        m["space.acc_calls"] = self.counts["space.acc_calls"]
        m["space.unroll_calls"] = n("space.unroll")
        m["space.unroll_s"] = total("space.unroll")
        m["space.unrolled_nodes"] = sum(
            len(spans[i][5][1][0]) for i in by_name.get("space.unroll", ()))

        # seqlab
        reports = n("seqlab.check_identities")
        in_reports = 0
        for i in by_name.get("simplex.solve", ()):
            j = spans[i][3]
            while j >= 0 and spans[j][0] != "seqlab.check_identities":
                j = spans[j][3]
            in_reports += j >= 0
        m["seqlab.identity_reports"] = reports
        m["seqlab.self_s"] = layer_self("seqlab")
        m["seqlab.functional_norm_calls"] = n("seqlab.functional_norm")
        m["seqlab.dual_vertices"] = self.counts["seqlab.dual_vertices"]
        m["seqlab.lp_solves_per_report"] = in_reports / reports if reports else 0.0
        m["seqlab.eps_cc_s"] = total("seqlab.eps_cc_value")
        m["seqlab.convex_block_s"] = total("seqlab.convex_block")

        # extraction
        m["extraction.builds"] = n("extraction.build_jump_chain")
        m["extraction.build_s"] = total("extraction.build_jump_chain")
        m["extraction.checks"] = (n("extraction.check_jump_chain")
                                  + n("extraction.check_difference_witness"))
        m["extraction.check_s"] = (total("extraction.check_jump_chain")
                                   + total("extraction.check_difference_witness"))
        m["extraction.seq_evals"] = self.counts["extraction.seq_evals"]

        # documents: loads reads its argument, dumps returns its text
        size = sum(len(spans[i][5][0][0].encode("utf-8"))
                   for i in by_name.get("documents.loads", ()))
        size += sum(len(spans[i][5][1].encode("utf-8"))
                    for i in by_name.get("documents.dumps", ()))
        doc_s = total("documents.loads") + total("documents.dumps")
        m["documents.loads_s"] = total("documents.loads")
        m["documents.dumps_s"] = total("documents.dumps")
        m["documents.bytes"] = size
        m["documents.mb_per_s"] = size / 1e6 / doc_s if doc_s else 0.0

        # cli: median in-process handler time
        handler = [dur[i] for i in by_name.get("cli.main", ())]
        m["cli.handler_ms"] = 1000 * statistics.median(handler) if handler else 0.0
        return m
