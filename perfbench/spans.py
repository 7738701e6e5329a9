"""Spans around calls into weissbench's layers, and the per-layer metrics.

A span records its name, start, end and parent. Spans are kept in flat
arrays while the benchmark runs and written out once at the end. Every span
is opened by a wrapper that this module installs around a public function of
one layer, under each name that function is bound to in any weissbench
module, so calls made through a `from .x import f` binding are seen too.
"""
import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

ROOT_SPAN = "op"

# (defining module, attribute, span name). The layer of a span is the part
# of its name before the first dot, except for the two quadrature paths.
TARGETS = (
    ("weissbench._kernels", "powcos_panels", "kernels"),
    ("weissbench.quadrature", "powcos_quadrature", "quadrature.singular"),
    ("weissbench.quadrature", "singular_oscillatory_detail",
     "quadrature.singular"),
    ("weissbench.quadrature", "singular_oscillatory_integral",
     "quadrature.singular"),
    ("weissbench.quadrature", "laplace_quadrature", "quadrature.laplace"),
    ("weissbench.counterexample", "GramCache.__init__", "counterexample.gram"),
    ("weissbench.counterexample", "XiTable.__init__",
     "counterexample.xi_table"),
    ("weissbench.counterexample", "xi_coefficient", "counterexample.direct"),
    ("weissbench.counterexample", "xi_period_decomposition",
     "counterexample.periods"),
    ("weissbench.counterexample", "bessel_failure_witness",
     "counterexample.bessel"),
    ("weissbench.counterexample", "hilbertian_constant_estimate",
     "counterexample.hilbertian"),
    ("weissbench.counterexample", "orbit_lower_bound_check",
     "counterexample.lower_bound"),
    ("weissbench.counterexample", "divergence_profile",
     "counterexample.divergence"),
    ("weissbench.semigroup", "orbit_observation", "semigroup.orbit"),
    ("weissbench.semigroup", "resolvent_observation", "semigroup.resolvent"),
    ("weissbench.lorentz", "distribution_function", "lorentz.distribution"),
    ("weissbench.lorentz", "decreasing_rearrangement",
     "lorentz.rearrangement"),
    ("weissbench.lorentz", "lorentz_norm", "lorentz.norm"),
    ("weissbench.reporting", "write_csv", "reporting.write"),
    ("weissbench.reporting", "write_summary", "reporting.write"),
    ("weissbench.cli", "_suite_orbit", "cli.orbit"),
    ("weissbench.cli", "_suite_weiss_scan", "cli.weiss-scan"),
    ("weissbench.cli", "_suite_counterexample", "cli.counterexample"),
    ("weissbench.cli", "_suite_bessel", "cli.bessel-check"),
)

LAYERS = ("kernels", "quadrature.singular", "quadrature.laplace",
          "counterexample", "semigroup", "lorentz", "reporting", "cli")


def layer_of(name):
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "quadrature" else parts[0]


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self._ids = {}
        self._last_kernel = None

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(self.clock())
        self.end.append(-1)
        self.stack.append(i)
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def span_name(self, i):
        return self.names[self.name_of[i]] if i >= 0 else None

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(i)
                if self.span_name(self.parent[i]) != name:
                    self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self.close(i)
            if hook is not None:
                hook(self, i, args, result)
            return result

        return traced

    def write_tsv(self, path):
        """One line per span: index, parent index, name, start ns, end ns."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.span_name(i)}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")


# ------------------------------------------------------------- counters
def _kernel_hook(rec, i, args, result):
    edges = np.asarray(args[3])
    panels = edges.size - 1
    parent = rec.parent[i]
    rec.counts["kernels.panels"] += panels
    if rec.span_name(parent) == "quadrature.singular":
        rec.counts["quadrature.singular.panels"] += panels
    # A mesh whose refinement by halving is evaluated next under the same
    # caller only fed the coarse/fine error estimate.
    last = rec._last_kernel
    if last is not None and last[0] == parent \
            and edges.size == 2 * last[1].size - 1 \
            and np.array_equal(edges[::2], last[1]):
        rec.counts["quadrature.estimate_panels"] += last[1].size - 1
    rec._last_kernel = (parent, edges)


def _observation_hook(rec, i, args, result):
    rec.counts["semigroup.terms"] += result.n_terms / args[0].n_active
    rec.counts["semigroup.observations"] += 1


def _xi_table_hook(rec, i, args, result):
    rec.counts["counterexample.xi_table.entries"] += len(args[0])


def _segments_hook(rec, i, args, result):
    rec.counts[f"{rec.span_name(i)}.segments"] += args[0].values.size


def _bytes_hook(rec, i, args, result):
    rec.counts["reporting.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "kernels": _kernel_hook,
    "semigroup.orbit": _observation_hook,
    "semigroup.resolvent": _observation_hook,
    "counterexample.xi_table": _xi_table_hook,
    "lorentz.rearrangement": _segments_hook,
    "lorentz.norm": _segments_hook,
    "reporting.write": _bytes_hook,
}


# ---------------------------------------------------------- installation
def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.rsplit(".", 1)[-1], obj


@contextmanager
def instrument(rec):
    """Wrap every target for the duration of the block.

    Yields the targets that could not be found; the caller fails the run
    when there are any, so a renamed layer must be re-targeted on purpose
    instead of reading as a layer that takes no time.
    """
    patched = []
    missing = []
    try:
        for module_name, attr, name in TARGETS:
            try:
                owner, leaf, fn = _resolve(module_name, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = rec.wrap(name, fn)
            if isinstance(owner, type):
                bindings = [(owner, leaf)]
            else:
                bindings = [(mod, key)
                            for mod_name, mod in list(sys.modules.items())
                            if mod_name.split(".")[0] == "weissbench"
                            for key, value in list(vars(mod).items())
                            if value is fn]
            for target, key in bindings:
                setattr(target, key, wrapped)
                patched.append((target, key, fn))
        yield missing
    finally:
        for target, key, fn in reversed(patched):
            setattr(target, key, fn)


# ------------------------------------------------------------- analysis
def self_times(rec):
    """Per span: duration minus the part of it covered by its children."""
    n = len(rec.start)
    children = [[] for _ in range(n)]
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        lo, hi = rec.start[i], rec.end[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: rec.start[c]):
            a, b = max(rec.start[c], lo), min(rec.end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def layer_metrics(rec, n_ops):
    """Per-operation means of every per-layer metric, in seconds and counts.

    `X.s` is the time inside outermost spans named X; `L.self_s` is the
    self time of every span of layer L; the self times of all layers plus
    `trace.unattributed_s`, the self time of the root spans, add up to
    `trace.op_s`, the mean traced operation time.
    """
    own = self_times(rec)
    inclusive = Counter()
    calls = Counter()
    layer_self = Counter()
    gram_entries = 0
    for i in range(len(rec.start)):
        name = rec.span_name(i)
        parent = rec.span_name(rec.parent[i])
        if name == ROOT_SPAN:
            layer_self["trace.unattributed"] += own[i]
            inclusive[ROOT_SPAN] += rec.end[i] - rec.start[i]
            continue
        layer_self[layer_of(name)] += own[i]
        if parent != name:
            inclusive[name] += rec.end[i] - rec.start[i]
            calls[name] += 1
            if name == "quadrature.singular" \
                    and parent == "counterexample.gram":
                gram_entries += 1
    c = rec.counts
    sec = {k: v * 1e-9 for k, v in inclusive.items()}

    def ratio(num, den):
        return num / den if den > 0.0 else 0.0

    total = {
        "kernels.calls": calls["kernels"],
        "kernels.panels": c["kernels.panels"],
        "quadrature.singular.calls": calls["quadrature.singular"],
        "quadrature.tolerance_not_met":
            c["quadrature.singular.raised.ToleranceNotMet"]
            + c["quadrature.laplace.raised.ToleranceNotMet"],
        "quadrature.laplace.calls": calls["quadrature.laplace"],
        "counterexample.gram.entries": gram_entries,
        "semigroup.orbit.calls": calls["semigroup.orbit"],
        "semigroup.resolvent.calls": calls["semigroup.resolvent"],
        "semigroup.truncation_overflow":
            c["semigroup.orbit.raised.TruncationOverflow"]
            + c["semigroup.resolvent.raised.TruncationOverflow"],
        "lorentz.distribution.calls": calls["lorentz.distribution"],
        "reporting.bytes": c["reporting.bytes"],
        "trace.op_s": sec.get(ROOT_SPAN, 0.0),
        "trace.unattributed_s": layer_self["trace.unattributed"] * 1e-9,
    }
    for name in {target[2] for target in TARGETS} | {"cli.full-report"}:
        total[f"{name}.s"] = sec.get(name, 0.0)
    for layer in LAYERS:
        total[f"{layer}.self_s"] = layer_self[layer] * 1e-9
    out = {k: v / n_ops for k, v in total.items()}
    # Ratios and rates are per unit of work, not per operation.
    out.update({
        "kernels.panels_per_s":
            ratio(c["kernels.panels"], sec.get("kernels", 0.0)),
        "quadrature.singular.panels_per_call":
            ratio(c["quadrature.singular.panels"],
                  calls["quadrature.singular"]),
        "quadrature.estimate_share":
            ratio(c["quadrature.estimate_panels"], c["kernels.panels"]),
        "counterexample.xi_table.entries_per_s":
            ratio(c["counterexample.xi_table.entries"],
                  sec.get("counterexample.xi_table", 0.0)),
        "semigroup.terms_share":
            ratio(c["semigroup.terms"], c["semigroup.observations"]),
        "lorentz.rearrangement.segments_per_s":
            ratio(c["lorentz.rearrangement.segments"],
                  sec.get("lorentz.rearrangement", 0.0)),
        "lorentz.norm.steps_per_s":
            ratio(c["lorentz.norm.segments"], sec.get("lorentz.norm", 0.0)),
    })
    return out
