"""Span and count recorder that wraps formaut's public functions from outside.

Nothing under src/ is edited.  Each wrapped function or method is replaced in
every formaut namespace that holds it (formaut.structure and formaut.cli
both hold verify_compositional, for instance), and Tracer.uninstall puts the
originals back.

Three kinds of wrapper:

* span  -- records (name, parent span, start, end); a span's self time is
           its duration minus the durations of its direct child spans;
* count -- counts calls only (CycNum arithmetic is too hot for spans);
* yield -- counts the items a generator hands out.

Spans are kept in flat arrays and reduced to per-name totals in metrics().
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter


def _buchberger_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs["field"]
    return "smoothness.buchberger_gf" if field.p else "smoothness.buchberger_cyc"


def _after_buchberger(tracer, args, kwargs, result, _state):
    kind = _buchberger_name(args, kwargs).rpartition("_")[2]
    tracer.counts["smoothness.pairs_" + kind] += result.pairs_processed
    tracer.counts["smoothness.basis_size"] += len(result.basis)
    tracer.counts["smoothness.incomplete"] += not result.complete


def _before_close(tracer, args, kwargs):
    return args[0].closed


def _after_close(tracer, args, kwargs, closed, was_closed):
    if closed and not was_closed:
        tracer.counts["matgroups.close.elements"] += args[0].order


def _after_verify_certificate(tracer, args, kwargs, report, _state):
    tracer.counts["structure.verify_certificate.elements"] += report.group_order


def _before_is_smooth(tracer, args, kwargs):
    outer = not tracer.in_span("smoothness.is_smooth")
    return outer, tracer.counts["smoothness.gf_fields"], tracer.calls("smoothness.buchberger_cyc")


def _after_is_smooth(tracer, args, kwargs, cert, state):
    # An outermost certificate "reached characteristic 0 after mod p ran"
    # when it built a GF field and later ran a Buchberger over CycNum.
    outer, gf_before, cyc_before = state
    if outer:
        tracer.counts["smoothness.is_smooth.outer"] += 1
        if (tracer.counts["smoothness.gf_fields"] > gf_before
                and tracer.calls("smoothness.buchberger_cyc") > cyc_before):
            tracer.counts["smoothness.char0_fallback"] += 1


# (module, attribute or Class.method, kind, name, before hook, after hook)
WRAPS = [
    ("catalog", "load_entries", "span", "catalog.load_entries", None, None),
    ("catalog", "verify_entry", "span", "catalog.verify_entry", None, None),
    ("catalog", "verify_all", "span", "catalog.verify_all", None, None),
    ("cli", "main", "span", "cli.main", None, None),
    ("matgroups", "MatGroup.close", "span", "matgroups.close", _before_close, _after_close),
    ("matgroups", "MatGroup.projective_order", "span", "matgroups.projective_order", None, None),
    ("matgroups", "MatGroup.elements", "yield", "matgroups.elements.yielded", None, None),
    ("matgroups", "preserves", "span", "matgroups.preserves", None, None),
    ("matgroups", "invariant_dimension", "span", "matgroups.invariant_dimension", None, None),
    ("matgroups", "invariant_dimension_reynolds", "span", "matgroups.reynolds", None, None),
    ("matgroups", "invariant_dimension_molien", "span", "matgroups.molien", None, None),
    ("structure", "verify_certificate", "span", "structure.verify_certificate",
     None, _after_verify_certificate),
    ("structure", "verify_compositional", "span", "structure.verify_compositional", None, None),
    ("diaglattice", "semi_permutation_group", "span", "diaglattice.semi_permutation_group",
     None, None),
    ("diaglattice", "block_scalar_group", "span", "diaglattice.block_scalar_group", None, None),
    ("diaglattice", "smith_normal_form", "span", "diaglattice.smith_normal_form", None, None),
    ("smoothness", "is_smooth", "span", "smoothness.is_smooth", _before_is_smooth, _after_is_smooth),
    ("smoothness", "buchberger", "span", _buchberger_name, None, _after_buchberger),
    ("smoothness", "GF.__init__", "count", "smoothness.gf_fields", None, None),
    ("forms", "act", "span", "forms.act", None, None),
    ("forms", "partials", "span", "forms.partials", None, None),
    ("forms", "parse", "span", "forms.parse", None, None),
    ("forms", "ExactMatrix.__mul__", "span", "forms.matmul", None, None),
    ("cyclotomic", "parse_scalar", "span", "cyclotomic.parse_scalar", None, None),
    ("cyclotomic", "CycNum.__mul__", "count", "cyclotomic.mul.calls", None, None),
    ("cyclotomic", "CycNum.__add__", "count", "cyclotomic.add.calls", None, None),
    ("cyclotomic", "CycNum.inverse", "count", "cyclotomic.inverse.calls", None, None),
    ("sequences", "survivors_for", "span", "sequences.survivors_for", None, None),
    ("sequences", "classification_search", "span", "sequences.classification_search", None, None),
    ("sequences", "enumerate_sequences", "yield", "sequences.partitions", None, None),
    ("sequences", "canonical_bound", "span", "sequences.canonical_bound", None, None),
]

SPAN_NAMES = {name for _m, _a, kind, name, _b, _f in WRAPS if kind == "span" and isinstance(name, str)}
SPAN_NAMES |= {"smoothness.buchberger_gf", "smoothness.buchberger_cyc"}

# The per-layer metrics of a traced run, with units, in BENCHMARK.json order.
PER_LAYER = [
    ("catalog.load_entries.s", "s"), ("catalog.verify_entry.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("matgroups.close.self_s", "s"), ("matgroups.close.calls", "count"),
    ("matgroups.close.elements", "count"), ("matgroups.close.elements_per_s", "1/s"),
    ("matgroups.projective_order.self_s", "s"), ("matgroups.preserves.self_s", "s"),
    ("matgroups.reynolds.self_s", "s"), ("matgroups.molien.self_s", "s"),
    ("matgroups.elements.yielded", "count"),
    ("structure.verify_certificate.self_s", "s"), ("structure.verify_certificate.elements", "count"),
    ("structure.verify_compositional.self_s", "s"),
    ("diaglattice.semi_permutation_group.self_s", "s"),
    ("diaglattice.block_scalar_group.self_s", "s"),
    ("diaglattice.smith_normal_form.calls", "count"),
    ("smoothness.is_smooth.self_s", "s"), ("smoothness.buchberger_gf.s", "s"),
    ("smoothness.buchberger_cyc.s", "s"), ("smoothness.buchberger_gf.calls", "count"),
    ("smoothness.pairs_gf", "count"), ("smoothness.pairs_cyc", "count"),
    ("smoothness.pairs_gf_per_s", "1/s"), ("smoothness.basis_size", "count"),
    ("smoothness.incomplete", "count"), ("smoothness.char0_fallback_frac", "frac"),
    ("forms.act.self_s", "s"), ("forms.act.calls", "count"), ("forms.partials.self_s", "s"),
    ("forms.matmul.calls", "count"), ("forms.matmul.self_s", "s"), ("forms.parse.s", "s"),
    ("cyclotomic.parse_scalar.s", "s"), ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.add.calls", "count"), ("cyclotomic.inverse.calls", "count"),
    ("sequences.survivors_for.self_s", "s"), ("sequences.partitions", "count"),
    ("sequences.partitions_per_s", "1/s"), ("sequences.canonical_bound.calls", "count"),
    ("trace.wall_s", "s"),
]

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ["matgroups.close.elements", "smoothness.pairs_gf",
                "sequences.partitions", "cyclotomic.mul.calls"]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def in_span(self, name: str) -> bool:
        """True while a span of this name is open."""
        nid = self._name_ids.get(name)
        return any(self.span_name[sid] == nid for sid in self._stack[1:])

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def _span_wrapper(self, fn, name, before, after):
        fixed = None if callable(name) else self._name_id(name)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        t0s, t1s = self.span_t0, self.span_t1

        @wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            sid = len(t0s)
            names.append(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = perf_counter()
                stack.pop()
            if after:
                after(self, args, kwargs, result, state)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_wrapper(self, fn, name):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name] += n
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every entry of WRAPS; formaut must already be imported."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "formaut" or k.startswith("formaut."))]
        for modname, attr, kind, name, before, after in WRAPS:
            module = sys.modules["formaut." + modname]
            cls_name, _, member = attr.rpartition(".")
            if cls_name:
                holders = [getattr(module, cls_name)]
                original = holders[0].__dict__[member]
            else:
                holders = modules
                original = getattr(module, member)
            if kind == "span":
                wrapper = self._span_wrapper(original, name, before, after)
            elif kind == "count":
                wrapper = self._count_wrapper(original, name)
            else:
                wrapper = self._yield_wrapper(original, name)
            # aliases count too: CycNum.__rmul__ is CycNum.__mul__
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        n = len(self.span_t0)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return out

    def metrics(self, wall_s: float) -> dict:
        spans = self.span_totals()
        c = self.counts

        def span(name):
            return spans.get(name, [0, 0.0, 0.0])

        derived = {
            "trace.wall_s": wall_s,
            "matgroups.close.elements_per_s": _ratio(c["matgroups.close.elements"],
                                                     span("matgroups.close")[2]),
            "smoothness.pairs_gf_per_s": _ratio(c["smoothness.pairs_gf"],
                                                span("smoothness.buchberger_gf")[1]),
            "smoothness.char0_fallback_frac": _ratio(c["smoothness.char0_fallback"],
                                                     c["smoothness.is_smooth.outer"]),
            "sequences.partitions_per_s": _ratio(c["sequences.partitions"],
                                                 span("sequences.survivors_for")[1]),
        }
        fields = {"calls": 0, "s": 1, "self_s": 2}
        out = {}
        for metric, _unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif base in SPAN_NAMES and field in fields:
                out[metric] = span(base)[fields[field]]
            else:
                out[metric] = c[metric]
        return out
