"""Spans around the calls a command makes into critvar's layers.

`critvar.cli` and `route_one.py` reach every layer through module and class
attributes: `qt.second_kind_operator_residual`, `cli.newton_multistart`,
`QuotientAlgebra.bethe_operator`, `lag.flow_f`, and so on.  Inside
`Tracer.layers()` each of those attributes is replaced by a wrapper that
opens a span named after the per-layer metric the call feeds.  One
in-process `cli.main` call then yields every layer's spans, and the command
runs its own steps, not a copy of them.

A wrapper opens a span only for a call made by the command itself (the
command's root span is the innermost open one), so a layer that calls
another layer internally stays one span.  The exceptions are marked
`nested`: the operator build, which runs lazily inside whichever call first
needs an operator, and the charpoly and root finder inside
`joint_spectrum`.  Span names (`<module>.<what>`) are the per-layer metric
stems in BENCHMARK.json; a `_s` metric is the summed self time of its spans.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

from critvar import cli, ratmat
from critvar import lagrangian as lag
from critvar import quotient as qt
from critvar import relations
from critvar import spectrum as sp
from critvar.arrangement import ArrangementSpec
from critvar.laurent import LaurentPoly

ROOT = "cli"  # the span around one whole command


def _bits(coeffs):
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in coeffs)


class Tracer:
    """Spans and counts kept in memory, written out once at the end.

    A span is [name, start, end, parent index, rung, extra].  `extra` marks
    work tracing adds to what the command does (the second Newton call); it
    is left out of the traced total.  Counts are summed per (rung, name).
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.rung = None
        self._stack = []
        self._last_charpoly = None

    @contextlib.contextmanager
    def span(self, name, extra=False):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.rung, extra]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        key = (self.rung, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def _called_by_command(self):
        return len(self._stack) == 1

    # -- the layer table ------------------------------------------------------

    def _wrap(self, original, name, nested=False, hook=None):
        def wrapper(*args, **kwargs):
            if not (nested or self._called_by_command()):
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_newton(self, original):
        """`spectrum.newton`, then the first tier alone as an extra span.

        The extra call has the same arguments and no target count, so it
        repeats the first tier exactly and runs no escalation.
        """

        def wrapper(spec, z, *args, **kwargs):
            if not self._called_by_command():
                return original(spec, z, *args, **kwargs)
            with self.span("spectrum.newton"):
                found = original(spec, z, *args, **kwargs)
            with self.span("spectrum.newton_plain", extra=True):
                plain = original(spec, z, *args, **dict(kwargs, target_count=None))
            self.add("spectrum.newton_found", len(found))
            self.add("spectrum.newton_plain_found", len(plain))
            self.add("spectrum.newton_expected", math.comb(spec.n - 1, spec.k))
            return found

        return wrapper

    def _table(self):
        """(owner, attribute, wrapper) for every call into a layer."""
        add = self.add

        def count(name):
            return lambda args, result: add(name, 1)

        def charpoly_seen(args, result):
            self._last_charpoly = result

        def spectrum_done(args, result):
            add("spectrum.spectral_draws", result.attempts)
            if self._last_charpoly is not None:  # the accepted draw's
                add("ratmat.charpoly_bits", _bits(self._last_charpoly))
            self._last_charpoly = None

        spans = [
            (ArrangementSpec, "plucker_relation_residual", "arrangement.minor_relations",
             False, count("arrangement.minor_relations_checked")),
            (ArrangementSpec, "span_rank", "arrangement.span_rank", False, None),
            (cli, "involution_suite", "relations.involution", False,
             lambda args, result: add("relations.brackets", len(result))),
            (relations, "build_relations", "relations.membership", False, None),
            (relations.RelationSet, "all_vanish_at", "relations.membership", False, None),
            (LaurentPoly, "evaluate", "relations.membership", False, None),
            (cli, "euler_relation", "relations.membership", False, None),
            (cli, "g_single", "relations.membership", False, None),
            (qt.QuotientAlgebra, "__init__", "quotient.operators", False,
             lambda args, result: add("quotient.dim", args[0].dim)),
            (qt.QuotientAlgebra, "bethe_operator", "quotient.operators", True, None),
            (qt, "commutator_residual", "quotient.commutators", False,
             count("quotient.identities")),
            (qt, "first_kind_operator_residual", "quotient.first_kind", False,
             count("quotient.identities")),
            (qt, "second_kind_operator_residual", "quotient.second_kind", False,
             count("quotient.identities")),
            (qt, "euler_operator_residual", "quotient.euler", False,
             count("quotient.identities")),
            (qt, "weighted_sum_operator_residual", "quotient.weighted_sum", False,
             count("quotient.identities")),
            (qt.QuotientAlgebra, "mu_consistency", "quotient.special_vector", False, None),
            (qt.QuotientAlgebra, "mu_is_isomorphism", "quotient.special_vector", False,
             None),
            (ratmat, "charpoly", "ratmat.charpoly", True, charpoly_seen),
            (sp, "poly_roots", "spectrum.poly_roots", True, None),
            (cli, "match_point_sets", "spectrum.match", False, None),
            (lag, "sample_chart_point", "lagrangian.charts", False, None),
            (lag, "chart_coords", "lagrangian.charts", False, None),
            (lag, "chart_complete", "lagrangian.charts", False, None),
            (lag, "transition_expected", "lagrangian.fd", False, None),
            (lag, "transition_jacobian_fd", "lagrangian.fd", False, None),
            (lag, "generating_fd_residual", "lagrangian.fd", False, None),
            (lag, "projection_jacobian_fd", "lagrangian.fd", False, None),
            (lag, "projection_jacobian", "lagrangian.projection", False, None),
            (lag, "flow_f", "lagrangian.flows", False, None),
            (lag, "flow_g", "lagrangian.flows", False, None),
            (lag, "scale_action", "lagrangian.flows", False, None),
        ]
        # `critvar solve` holds its own references to these; route_one.py
        # calls them through the spectrum module.
        for owner in (cli, sp):
            spans.append((owner, "joint_spectrum", "spectrum.joint_spectrum", False,
                          spectrum_done))
            for attr in ("hessian_direct", "hessian_formula", "jacobian_formula"):
                spans.append((owner, attr, "spectrum.second_order", False, None))

        table = [(owner, attr, self._wrap(owner.__dict__[attr], name, nested, hook))
                 for owner, attr, name, nested, hook in spans]
        table.append((cli, "newton_multistart", self._wrap_newton(cli.newton_multistart)))
        return table

    @contextlib.contextmanager
    def layers(self):
        """Every layer call of the block's commands traced; originals restored after."""
        table = self._table()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
        try:
            for owner, attr, wrapper in table:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """name -> summed self time: each span minus its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _, _), inner in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def traced_total(self, rungs):
        """Seconds inside the root spans of `rungs`, less the extra work tracing added."""
        mine = [s for s in self.spans if s[4] in rungs]
        return (sum(s[2] - s[1] for s in mine if s[3] is None)
                - sum(s[2] - s[1] for s in mine if s[5]))

    def total(self, name):
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "rung", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": [[r, n, v] for (r, n), v in self.counts.items()]}, fh)
            fh.write("\n")
