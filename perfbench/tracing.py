"""Per-layer tracing of basisconv, installed from outside the library.

Tracer.install replaces the public functions of the modules on the
conversion path (families -> bivariate -> compseq -> evalgrid / seriesops /
polyops -> modfield) by wrappers that record spans, in every one of those
module namespaces that binds them.  The library's files are not touched.

A span is (id, name, start, end, parent, request, phase, conv_calls, conv_s).
Kernel calls (modfield._convolve, which evalgrid also binds because it
bypasses mul_trunc) are too many to keep one by one, about 2e5 per pass
on sheffer_large; they are counted per product-length bucket and folded into
the span that made them.

Accumulators, one set per phase ("setup" or "warm"), keyed by:
- a group name: inclusive seconds of the outermost span of that group, so a
  group nested in itself (series_pow -> unit_pow) is not counted twice;
- "calls:<group>": number of spans;
- "self:<module>": self time, a span's duration minus the time its child
  spans cover (kernel calls are modfield self time);
- "kernel:<module>": kernel time of the calls that module's spans make
  directly, which shows how much of modfield's time evalgrid asks for.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

perf = time.perf_counter

MODULES = ("families", "bivariate", "compseq", "evalgrid", "seriesops", "polyops", "modfield")

# (module, attribute, group).  A group feeds one metric; a function and its
# transpose share a group.
TARGETS = (
    ("families", "parse_family", "families.parse"),
    ("families", "to_monomial", "families.to_monomial"),
    ("families", "from_monomial", "families.from_monomial"),
    ("bivariate", "check_spec", "bivariate.check_spec"),
    ("bivariate", "eval_bivariate", "bivariate.eval_bivariate"),
    ("bivariate", "eval_bivariate_inv", "bivariate.eval_bivariate_inv"),
    ("bivariate", "eval_inv_transposed", "bivariate.eval_inv_transposed"),
    ("compseq", "compute_g", "compseq.truncs"),
    ("compseq", "eval_seq", "compseq.eval_seq"),
    ("compseq", "eval_seq_t", "compseq.eval_seq_t"),
    ("compseq", "eval_seq_inv", "compseq.eval_seq_inv"),
    ("compseq", "reverse_sequence", "compseq.reverse_sequence"),
    ("evalgrid", "multieval_grid", "evalgrid.multieval"),
    ("evalgrid", "interp_grid", "evalgrid.interp"),
    ("evalgrid", "multieval_grid_t", "evalgrid.multieval_t"),
    ("evalgrid", "interp_grid_t", "evalgrid.interp_t"),
    ("evalgrid", "exp_map", "evalgrid.exp_map"),
    ("evalgrid", "exp_map_t", "evalgrid.exp_map_t"),
    ("evalgrid", "log_map", "evalgrid.log_map"),
    ("evalgrid", "log_map_t", "evalgrid.log_map_t"),
    ("seriesops", "series_inv", "seriesops.inv"),
    ("seriesops", "series_exp", "seriesops.exp"),
    ("seriesops", "series_log", "seriesops.log"),
    ("seriesops", "series_root", "seriesops.root"),
    ("seriesops", "series_pow", "seriesops.pow"),
    ("seriesops", "unit_pow", "seriesops.pow"),
    ("polyops", "taylor_shift", "polyops.taylor_shift"),
    ("polyops", "taylor_shift_t", "polyops.taylor_shift"),
    ("polyops", "lincomb", "polyops.lincomb"),
    ("polyops", "lincomb_t", "polyops.lincomb"),
    ("polyops", "scale", "polyops.scale"),
    ("polyops", "diagonal", "polyops.diagonal"),
    ("polyops", "power_subst", "polyops.power_subst"),
    ("polyops", "power_subst_t", "polyops.power_subst"),
    ("polyops", "reverse", "polyops.reverse"),
    ("polyops", "split", "polyops.split"),
    ("polyops", "split_t", "polyops.split"),
    ("modfield", "mul_trunc", "modfield.mul_trunc"),
    ("modfield", "mul_trunc_t", "modfield.mul_trunc"),
)
TREE = ("evalgrid", "SubproductTree", "evalgrid.tree_build")   # __init__ is wrapped
KERNEL = ("modfield", "_convolve")
KERNEL_NAMESPACES = ("modfield", "evalgrid")
BUCKETS = ("lt64", "lt1k", "lt16k", "ge16k")                    # product length bounds
CONV_CALLS = tuple(f"modfield.conv_calls.{b}" for b in BUCKETS)
CONV_S = tuple(f"modfield.conv_s.{b}" for b in BUCKETS)

# The five factors of each direction, from the calls eval_bivariate and
# eval_bivariate_inv make through the bivariate namespace.  A factor of the
# inverse whose argument is computed in the caller's frame (the series
# inverse of u or v, the n field inversions of f) starts where that work does.
TO_SPAN = "bivariate.eval_bivariate"
FROM_SPAN = "bivariate.eval_bivariate_inv"
TO_FACTORS = {
    "mul_trunc_t": "mul_v",
    "eval_seq_t": "eval_h_t",
    "diagonal": "diag",
    "eval_seq": "eval_g",
    "mul_trunc": "mul_u",
}
FROM_FACTORS = {
    "inv_u": ("series_inv", "mul_trunc"),
    "eval_g_inv": ("eval_seq_inv",),
    "diag_inv": ("eval_seq_inv", "diagonal"),
    "eval_h_inv_t": ("eval_inv_transposed",),
    "inv_v": ("series_inv", "mul_trunc_t"),
}

# Operator branches of compseq's evaluation recursion, from the calls they
# make through the compseq namespace while an eval_seq / eval_seq_t span is
# the innermost one.
EVAL_GROUPS = frozenset({"compseq.eval_seq", "compseq.eval_seq_t"})
OP_CALLS = {
    "taylor_shift": "add", "taylor_shift_t": "add",
    "scale": "mul",
    "power_subst": "pow", "power_subst_t": "pow",
    "reverse": "inv", "mul_trunc": "inv", "mul_trunc_t": "inv", "unit_pow": "inv",
    "split": "root", "lincomb": "root", "lincomb_t": "root", "split_t": "root",
    "exp_map": "exp", "exp_map_t": "exp",
    "log_map": "log", "log_map_t": "log",
}
OPS = ("add", "mul", "pow", "inv", "root", "exp", "log")

# (metric, accumulator key, kind) for the warm phase, reported per pass.
WARM_METRICS = (
    ("families.parse_s", "families.parse", "s"),
    ("families.self_s", "self:families", "s"),
    ("bivariate.check_spec_s", "bivariate.check_spec", "s"),
    *((f"bivariate.{f}_s", f"bivariate.{f}", "s") for f in TO_FACTORS.values()),
    *((f"bivariate.{f}_s", f"bivariate.{f}", "s") for f in FROM_FACTORS),
    ("bivariate.self_s", "self:bivariate", "s"),
    *((f"compseq.{op}_s", f"compseq.{op}", "s") for op in OPS),
    ("compseq.truncs_s", "compseq.truncs", "s"),
    ("compseq.self_s", "self:compseq", "s"),
    ("evalgrid.multieval_s", "evalgrid.multieval", "s"),
    ("evalgrid.interp_s", "evalgrid.interp", "s"),
    ("evalgrid.multieval_t_s", "evalgrid.multieval_t", "s"),
    ("evalgrid.interp_t_s", "evalgrid.interp_t", "s"),
    ("evalgrid.tree_build_s", "evalgrid.tree_build", "s"),
    ("evalgrid.tree_builds", "calls:evalgrid.tree_build", "count"),
    ("evalgrid.self_s", "self:evalgrid", "s"),
    ("evalgrid.kernel_s", "kernel:evalgrid", "s"),
    ("seriesops.inv_s", "seriesops.inv", "s"),
    ("seriesops.inv_calls", "calls:seriesops.inv", "count"),
    ("seriesops.exp_s", "seriesops.exp", "s"),
    ("seriesops.log_s", "seriesops.log", "s"),
    ("seriesops.root_s", "seriesops.root", "s"),
    ("seriesops.pow_s", "seriesops.pow", "s"),
    ("seriesops.self_s", "self:seriesops", "s"),
    ("polyops.taylor_shift_s", "polyops.taylor_shift", "s"),
    ("polyops.lincomb_s", "polyops.lincomb", "s"),
    ("polyops.self_s", "self:polyops", "s"),
    ("modfield.conv_calls", "modfield.conv_calls", "count"),
    ("modfield.conv_s", "modfield.conv_s", "s"),
    ("modfield.conv_len_sum", "modfield.conv_len_sum", "count"),
    *((m, m, "count") for m in CONV_CALLS),
    *((m, m, "s") for m in CONV_S),
    ("modfield.self_s", "self:modfield", "s"),
)

# Reported per cold set-up, under the prefix "setup.".
SETUP_METRICS = (
    *((f"{m}.self_s", f"self:{m}", "s") for m in MODULES),
    ("compseq.truncs_s", "compseq.truncs", "s"),
    ("evalgrid.tree_build_s", "evalgrid.tree_build", "s"),
    ("evalgrid.tree_builds", "calls:evalgrid.tree_build", "count"),
    ("seriesops.inv_calls", "calls:seriesops.inv", "count"),
    ("modfield.conv_calls", "modfield.conv_calls", "count"),
    ("modfield.conv_s", "modfield.conv_s", "s"),
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "phase", "conv_calls", "conv_s")


class _Span:
    __slots__ = ("sid", "name", "group", "module", "parent", "request", "start", "child",
                 "conv_calls", "conv_s", "state")

    def __init__(self, sid, name, group, parent, request):
        self.sid = sid
        self.name = name
        self.group = group
        self.module = group.split(".", 1)[0]
        self.parent = parent
        self.request = request
        self.child = 0.0
        self.conv_calls = 0
        self.conv_s = 0.0
        self.state = False      # on an inverse span: its eval_g_inv factor is done
        self.start = perf()


class Tracer:
    """Span stack, per-phase accumulators and the wrappers that feed them."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.request = None
        self.missing = []        # "<module>.<attribute>" bindings not found
        self._blocked = set()    # accumulator keys those bindings would feed
        self._acc_by_phase = {}
        self._depth = defaultdict(int)
        self._next_id = 0
        self._t0 = perf()
        self.phase = "setup"

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, name):
        self._phase = name
        self._acc = self._acc_by_phase.setdefault(name, defaultdict(float))

    # -- spans ---------------------------------------------------------------

    def _open(self, name, group):
        stack = self.stack
        sp = _Span(self._next_id, name, group, stack[-1] if stack else None, self.request)
        self._next_id += 1
        self._depth[group] += 1
        stack.append(sp)
        return sp

    def _close(self, sp):
        """Close sp and any span still open above it; returns sp's duration."""
        end = perf()
        stack = self.stack
        while stack[-1] is not sp:
            self._finish(stack.pop(), end)
        stack.pop()
        return self._finish(sp, end)

    def _finish(self, sp, end):
        dur = end - sp.start
        acc = self._acc
        group = sp.group
        self._depth[group] -= 1
        if not self._depth[group]:
            acc[group] += dur
        acc["calls:" + group] += 1
        acc["self:" + sp.module] += dur - sp.child
        parent = sp.parent
        if parent is not None:
            parent.child += dur
        self.spans.append((
            sp.sid, sp.name, sp.start - self._t0, end - self._t0,
            parent.sid if parent is not None else None, sp.request, self._phase,
            sp.conv_calls, sp.conv_s,
        ))
        return dur

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, group):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = open_(name, group)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sp)

        return wrapper

    def _op_wrapper(self, traced, key):
        """A compseq-namespace binding: credit the call to an operator branch."""

        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            stack = self.stack
            in_branch = bool(stack) and stack[-1].group in EVAL_GROUPS
            t0 = perf()
            try:
                return traced(*args, **kwargs)
            finally:
                if in_branch:
                    self._acc[key] += perf() - t0

        return wrapper

    def _factor_wrapper(self, traced, attr):
        """A bivariate-namespace binding: open, extend or close a factor span."""
        to_factor = TO_FACTORS.get(attr)

        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            stack = self.stack
            top = stack[-1] if stack else None
            group = top.group if top is not None else None
            if group == TO_SPAN and to_factor:
                return self._around("bivariate." + to_factor, traced, args, kwargs)
            if group == FROM_SPAN:
                if attr == "series_inv":
                    # the factor stays open until the product that uses the inverse
                    factor = "bivariate.inv_v" if top.state else "bivariate.inv_u"
                    self._open(factor, factor)
                    return traced(*args, **kwargs)
                if attr == "eval_seq_inv":
                    out = self._around("bivariate.eval_g_inv", traced, args, kwargs)
                    top.state = True
                    # the inversions of f run next, in the caller's frame
                    self._open("bivariate.diag_inv", "bivariate.diag_inv")
                    return out
                if attr == "eval_inv_transposed":
                    return self._around("bivariate.eval_h_inv_t", traced, args, kwargs)
            if (
                (group == "bivariate.inv_u" and attr == "mul_trunc")
                or (group == "bivariate.inv_v" and attr == "mul_trunc_t")
                or (group == "bivariate.diag_inv" and attr == "diagonal")
            ):
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._close(top)
            return traced(*args, **kwargs)

        return wrapper

    def _around(self, factor, traced, args, kwargs):
        sp = self._open(factor, factor)
        try:
            return traced(*args, **kwargs)
        finally:
            self._close(sp)

    def _kernel_wrapper(self, conv):
        stack = self.stack

        @functools.wraps(conv)
        def kernel(mod, a, b):
            t0 = perf()
            out = conv(mod, a, b)
            dt = perf() - t0
            length = len(a) + len(b) - 1
            i = 0 if length < 64 else 1 if length < 1024 else 2 if length < 16384 else 3
            acc = self._acc
            acc[CONV_CALLS[i]] += 1
            acc[CONV_S[i]] += dt
            acc["modfield.conv_len_sum"] += length
            acc["self:modfield"] += dt
            if stack:
                top = stack[-1]
                top.child += dt
                top.conv_calls += 1
                top.conv_s += dt
                acc["kernel:" + top.module] += dt
            return out

        return kernel

    # -- installation --------------------------------------------------------

    def install(self, package="basisconv"):
        """Wrap every target in every conversion-path namespace binding it."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        bound = defaultdict(set)     # namespace -> attributes rebound there
        for modname, attr, group in TARGETS:
            orig = getattr(mods[modname], attr, None)
            if orig is None:
                self._lose(f"{modname}.{attr}", group, f"calls:{group}", f"self:{modname}")
                continue
            traced = self._span_wrapper(orig, f"{modname}.{attr}", group)
            for ns_name, ns in mods.items():
                for key, val in list(vars(ns).items()):
                    if val is not orig:
                        continue
                    wrapper = traced
                    if ns_name == "bivariate":
                        wrapper = self._factor_wrapper(traced, key)
                    elif ns_name == "compseq" and key in OP_CALLS:
                        wrapper = self._op_wrapper(traced, f"compseq.{OP_CALLS[key]}")
                    setattr(ns, key, wrapper)
                    bound[ns_name].add(key)

        modname, clsname, group = TREE
        cls = getattr(mods[modname], clsname, None)
        if cls is None:
            self._lose(f"{modname}.{clsname}", group, f"calls:{group}", f"self:{modname}")
        else:
            cls.__init__ = self._span_wrapper(cls.__init__, f"{modname}.{clsname}", group)

        modname, attr = KERNEL
        conv = getattr(mods[modname], attr, None)
        if conv is not None:
            kernel = self._kernel_wrapper(conv)
            for ns_name in KERNEL_NAMESPACES:
                if getattr(mods[ns_name], attr, None) is conv:
                    setattr(mods[ns_name], attr, kernel)
                    bound[ns_name].add(attr)
        for ns_name in KERNEL_NAMESPACES:
            if attr not in bound[ns_name]:
                self._lose(f"{ns_name}.{attr}", *CONV_CALLS, *CONV_S,
                           "modfield.conv_len_sum", "self:modfield", "kernel:evalgrid")

        for attr, factor in TO_FACTORS.items():
            if attr not in bound["bivariate"]:
                self._lose(f"bivariate.{attr}", f"bivariate.{factor}")
        for factor, attrs in FROM_FACTORS.items():
            for attr in attrs:
                if attr not in bound["bivariate"]:
                    self._lose(f"bivariate.{attr}", f"bivariate.{factor}")
        for attr, op in OP_CALLS.items():
            if attr not in bound["compseq"]:
                self._lose(f"compseq.{attr}", f"compseq.{op}")

    def _lose(self, binding, *keys):
        if binding not in self.missing:
            self.missing.append(binding)
        self._blocked.update(keys)

    # -- results ---------------------------------------------------------------

    def _value(self, acc, key):
        if key in ("modfield.conv_calls", "modfield.conv_s"):
            parts = CONV_CALLS if key == "modfield.conv_calls" else CONV_S
            if any(p in self._blocked for p in parts):
                return None
            return sum(acc[p] for p in parts)
        if key in self._blocked:
            return None
        return acc[key]

    def metrics(self, passes, setups, warm_scale, setup_scale):
        """({metric: (value, unit)}, [metrics that could not be measured]).

        Warm metrics are per pass, set-up metrics per cold set-up; seconds
        are multiplied by the phase's scale (reference over wall time)."""
        out, missing = {}, []
        tables = (
            ("", WARM_METRICS, self._acc_by_phase.get("warm", {}), passes, warm_scale, "/pass"),
            ("setup.", SETUP_METRICS, self._acc_by_phase.get("setup", {}), setups, setup_scale, ""),
        )
        for prefix, table, acc, per, scale, suffix in tables:
            acc = defaultdict(float, acc)
            for name, key, kind in table:
                value = self._value(acc, key)
                if value is None:
                    missing.append(prefix + name)
                    continue
                value /= per
                if kind == "s":
                    value *= scale
                elif value == int(value):
                    value = int(value)
                out[prefix + name] = (value, kind + suffix)
        return out, missing

    def dump(self, path, header):
        """Write the spans as JSON lines: one header object, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
