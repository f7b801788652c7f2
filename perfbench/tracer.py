"""Spans and counts around calls into each layer of ``uncoiledtl``.

Wrappers are installed from here, at every attribute a caller looks the
function up through: ``algebra`` binds ``multiply_raw`` and ``reduce`` by
name, ``cli`` binds the projector and scalar entry points by name, and
``nullspace`` finds ``echelon`` among the ``linalg`` module globals.  Patching
only the defining module would miss those calls.

Each wrapped call becomes a span (name, start, end, parent).  The three hot
leaves (``multiply_raw``, ``reduce``, ``act_on_state``) run hundreds of
thousands of times per operation, so they are folded into their parent span
as a call count and a summed duration instead of one record each.  A
layer's self time is its spans' duration minus the time of the traced calls
made inside them.
"""

from __future__ import annotations

import functools
import time

clock = time.perf_counter

# (metric prefix, defining module, every module that binds the name)
SPANS = (
    ("diagrams.link_states", "diagrams", ("diagrams", "algebra", "reps")),
    ("algebra.mul", "algebra", ("algebra",)),
    ("algebra.basis_enumerate", "algebra", ("algebra", "cli", "projectors")),
    ("linalg.echelon", "linalg", ("linalg",)),
    ("reps.matrix_of", "reps", ("reps",)),
    ("reps.central_matrix", "reps", ("reps", "cli")),
    ("reps.braid_transfer", "reps", ("reps",)),
    ("projectors.gamma_solve", "projectors", ("projectors", "cli")),
    ("projectors.gamma_table_conjecture", "projectors", ("projectors", "cli")),
    ("projectors.gamma_residuals", "projectors", ("projectors", "cli")),
    ("projectors.gamma_table", "projectors", ("projectors",)),
    ("projectors.wenzl_jones_P", "projectors", ("projectors",)),
    ("projectors.build_Z", "projectors", ("projectors",)),
    ("projectors.build_projector_Q", "projectors", ("projectors", "cli")),
    ("projectors.projector_oracle", "projectors", ("projectors",)),
    ("projectors.projector_certificate", "projectors", ("projectors", "cli")),
    ("scalars.sample_env", "scalars", ("scalars", "cli")),
    ("scalars.validate_env", "scalars", ("scalars", "cli", "projectors")),
)
LEAVES = (
    ("diagrams.multiply_raw", "diagrams", ("diagrams", "algebra")),
    ("algebra.reduce", "algebra", ("algebra",)),
    ("diagrams.act_on_state", "diagrams", ("diagrams", "reps")),
)
# Children subtracted from a certificate span to leave its checks alone.
CERT_PARTS = ("projectors.gamma_table", "projectors.build_projector_Q",
              "projectors.projector_oracle")


class Tracer:
    """Spans of one operation, kept in memory until the worker reports."""

    def __init__(self):
        # span: [name, start, end, parent index, traced child time, leaves]
        self.spans = []
        self.stack = []
        self.self_s = {}
        self.counts = {}
        self.interfaces = set()
        self.seen_states = set()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def span(self, name, fn, count=None):
        spans, stack = self.spans, self.stack
        before = BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0, {}]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                dur = end - rec[1]
                if stack:
                    spans[stack[-1]][4] += dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - rec[4]
            if count is not None:
                count(self, args, result)
            return result
        return wrapper

    def leaf(self, name, fn, count=None):
        spans, stack, self_s = self.spans, self.stack, self.self_s
        self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            dur = clock() - start
            self_s[name] += dur
            if stack:
                parent = spans[stack[-1]]
                parent[4] += dur
                agg = parent[5].get(name)
                if agg is None:
                    parent[5][name] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur
            if count is not None:
                count(self, args, result)
            return result
        return wrapper

    def install(self, package):
        """Wrap every traced function of an imported ``uncoiledtl``."""
        modules = {name: getattr(package, name) for name in
                   ("diagrams", "algebra", "linalg", "reps", "projectors",
                    "scalars", "cli")}
        for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for metric, home, binders in table:
                attr = metric.split(".", 1)[1]
                wrapped = make(metric, getattr(modules[home], attr),
                               COUNTERS.get(metric))
                for binder in binders:
                    setattr(modules[binder], attr, wrapped)

    def layers(self) -> dict:
        """Self times and counts of this operation, by metric name."""
        out = {f"{name}.s": value for name, value in self.self_s.items()}
        out.update(self.counts)
        out["diagrams.interfaces"] = len(self.interfaces)
        cert = 0.0
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if name == "projectors.projector_certificate":
                parts = sum(e - s for n, s, e, parent, *_ in self.spans
                            if parent == i and n in CERT_PARTS)
                cert += end - start - parts
        out["projectors.certificate_checks.s"] = cert
        return out

    def records(self, op_id: int) -> list:
        """The spans as rows: op id, name, start, end, parent, leaves."""
        return [[op_id, name, start, end, parent, leaves]
                for name, start, end, parent, _child, leaves in self.spans]


# -- counts taken at the layer boundaries -------------------------------------

def _count_multiply(tracer, args, result):
    tracer.add("diagrams.multiply_raw.calls", 1)
    tracer.interfaces.add((args[0].top, args[1].bottom))


def _count_act(tracer, args, result):
    tracer.add("diagrams.act_on_state.calls", 1)


def _count_reduce(tracer, args, result):
    # mul calls reduce only when its memo misses; Algebra.element calls it
    # outside any product.
    stack = tracer.stack
    if stack and tracer.spans[stack[-1]][0] == "algebra.mul":
        tracer.add("algebra.reduce.calls", 1)


def _count_mul(tracer, args, result):
    a, b = args
    tracer.add("algebra.mul.calls", 1)
    tracer.add("algebra.mul.term_pairs", len(a.terms) * len(b.terms))
    tracer.peak("algebra.mul.peak_terms", len(result.terms))


def _count_link_states(tracer, args, result):
    # link_states is cached for the life of the process, and every worker
    # starts cold, so the first call for an (n, d) is the one that builds.
    if args not in tracer.seen_states:
        tracer.seen_states.add(args)
        tracer.add("diagrams.link_states.states", len(result))


def _count_basis(tracer, args, result):
    tracer.add("algebra.basis_enumerate.diagrams", len(result))


def _echelon_shape(tracer, args):
    rows = args[0]  # reduced in place, so measured before the call
    tracer.add("linalg.echelon.rows", len(rows))
    tracer.add("linalg.echelon.cols", len(rows[0]) if rows else 0)
    tracer.add("linalg.echelon.nonzeros",
               sum(1 for row in rows for x in row if x))


def _count_echelon(tracer, args, result):
    tracer.add("linalg.echelon.pivots", len(result))


def _count_table(tracer, args, result):
    tracer.add("projectors.gamma_entries", len(result.entries))


def _count_q(tracer, args, result):
    tracer.add("projectors.Q_terms", len(result.terms))


COUNTERS = {
    "diagrams.multiply_raw": _count_multiply,
    "diagrams.act_on_state": _count_act,
    "algebra.reduce": _count_reduce,
    "algebra.mul": _count_mul,
    "diagrams.link_states": _count_link_states,
    "algebra.basis_enumerate": _count_basis,
    "linalg.echelon": _count_echelon,
    "projectors.gamma_solve": _count_table,
    "projectors.gamma_table_conjecture": _count_table,
    "projectors.build_projector_Q": _count_q,
}
BEFORE = {"linalg.echelon": _echelon_shape}
