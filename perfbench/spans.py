"""Outside-in span tracer for the pnsrisk package.

A Tracer replaces public functions and methods of the package with
timing wrappers while it is active (``with tracer:``) and puts the
originals back on exit.  Nothing under ``src/`` changes: a function is
wrapped on its owning module and on every other pnsrisk module that
imported it by name (``from .model import surrogate_sf`` makes a second
binding in ``pnsrisk.train``), so calls are seen however they are looked
up.  Spans live in memory only.

Self time is a span's duration minus the durations of its direct child
spans.  Counters are exact: backward calls, Philox streams created (by
the layer whose span is innermost), and graph sizes of the losses that
``casn_objective`` returns.
"""

import importlib
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("autodiff", "model", "train", "risk", "synth", "evaluate", "pns", "cli")

# (layer, attribute path on the layer's module); the span is "layer.last_name"
TARGETS = (
    ("autodiff", "Tensor.backward"),
    ("model", "GaussianEncoder.encode"),
    ("model", "GaussianEncoder.kl_node"),
    ("model", "GaussianEncoder.draw"),
    ("model", "surrogate_sf"),
    ("model", "surrogate_m"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("train", "train"),
    ("train", "casn_objective"),
    ("train", "separation_penalty"),
    ("train", "irm_penalty"),
    ("train", "save_model"),
    ("risk", "estimate_risk"),
    ("risk", "domain_shift_bound"),
    ("risk", "sufficiency_deviation_trial"),
    ("synth", "generate"),
    ("synth", "write_csv"),
    ("synth", "read_csv"),
    ("evaluate", "evaluate"),
    ("evaluate", "distance_correlation"),
    ("pns", "analyze"),
    ("cli", "run_repro"),
)

# take graph counts on every WALK_EVERY-th objective of a train() call
WALK_EVERY = 100


def package_modules():
    """The pnsrisk submodules by layer name.  Resolved through
    importlib, because ``pnsrisk.train`` and ``pnsrisk.evaluate`` as
    attributes of the package are the re-exported functions."""
    return {layer: importlib.import_module(f"pnsrisk.{layer}") for layer in LAYERS}


def graph_counts(loss, param_ids):
    """(nodes, useful) of the graph under ``loss``, leaves included.
    A node is useful when it is a parameter in ``param_ids`` or lies on
    a path from the loss to one."""
    useful = {}
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            useful[key] = key in param_ids or any(useful[id(p)] for p in node.parents)
        elif key not in useful:
            useful[key] = None
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in useful)
    return len(useful), sum(1 for flag in useful.values() if flag)


def _param_ids(*owners):
    return {id(p) for owner in owners for p in owner.parameters().values()}


class _Span:
    __slots__ = ("name", "children")

    def __init__(self, name):
        self.name = name
        self.children = {}


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self, mods):
        self.mods = mods
        self.stack = []
        self.durations = {}      # span name -> [seconds per call]
        self.self_time = {}      # span name -> total self seconds
        self.per_unit = {}       # span name -> [seconds per unit of work]
        self.counts = {}         # exact counters
        self.graphs = {}         # variant -> {"min": (nodes, useful), "max": ..., "calls": n}
        self.train_steps = []    # (train span - its estimate_risk) / total_steps
        self.wall = None
        self._undo = []

    # ---- installation ----

    def __enter__(self):
        pnsrisk_mods = [m for name, m in sys.modules.items()
                        if name == "pnsrisk" or name.startswith("pnsrisk.")]
        for layer, path in TARGETS:
            owner = self.mods[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for module in pnsrisk_mods:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        self._patch(np.random, "Philox", self._counting_philox(np.random.Philox))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def _counting_philox(self, philox):
        tracer = self

        def counting_philox(*args, **kwargs):
            layer = tracer.stack[-1].name.split(".")[0] if tracer.stack else "bench"
            tracer._count(f"{layer}.philox_streams")
            return philox(*args, **kwargs)

        return counting_philox

    # ---- spans ----

    def _wrap(self, name, fn):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            span = _Span(name)
            tracer.stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer.stack.pop()
                tracer._close(span, duration)
            if after is not None:
                after(span, duration, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span, duration):
        self.durations.setdefault(span.name, []).append(duration)
        own = duration - sum(span.children.values())
        self.self_time[span.name] = self.self_time.get(span.name, 0.0) + own
        if self.stack:
            parent = self.stack[-1].children
            parent[span.name] = parent.get(span.name, 0.0) + duration

    def run(self, fn):
        """Call ``fn`` under a root span; record the traced wall time."""
        span = _Span("bench.op")
        self.stack.append(span)
        start = perf_counter()
        try:
            return fn()
        finally:
            self.wall = perf_counter() - start
            self.stack.pop()
            self._close(span, self.wall)

    # ---- per-span hooks: units of work and counters ----

    def _per_unit(self, name, value):
        self.per_unit.setdefault(name, []).append(value)

    def _after_autodiff_backward(self, span, duration, args, kwargs, result):
        self._count("autodiff.backward_calls")

    def _after_risk_estimate_risk(self, span, duration, args, kwargs, result):
        self._per_unit("risk.estimate_risk", duration / len(args[0]))

    def _after_synth_generate(self, span, duration, args, kwargs, result):
        self._per_unit("synth.generate", duration / len(result))

    def _after_train_train(self, span, duration, args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs["config"]
        inner = duration - span.children.get("risk.estimate_risk", 0.0)
        if config.total_steps:
            self.train_steps.append(inner / config.total_steps)

    def _after_train_casn_objective(self, span, duration, args, kwargs, result):
        x, y, enc_c, enc_cbar, head, prior_c, prior_cbar, config = args[:8]
        entry = self.graphs.setdefault(config.variant, {"calls": 0})
        calls = entry["calls"]
        entry["calls"] = calls + 1
        if calls % WALK_EVERY:
            return
        min_loss, max_loss, _ = result
        seen = {"min": graph_counts(min_loss, _param_ids(enc_c, head))}
        if max_loss is not None:
            seen["max"] = graph_counts(max_loss, _param_ids(enc_cbar))
        for role, counts in seen.items():
            if entry.setdefault(role, counts) != counts:
                raise AssertionError(
                    f"{config.variant} {role} objective graph changed size: "
                    f"{entry[role]} then {counts}")

    # ---- reduction ----

    def exact_counts(self):
        """Every exact counter of this operation, for run-to-run checks."""
        out = dict(self.counts)
        for variant, entry in sorted(self.graphs.items()):
            out[f"{variant}.objective_calls"] = entry["calls"]
            for role in ("min", "max"):
                if role in entry:
                    out[f"{variant}.{role}_nodes"], out[f"{variant}.{role}_useful"] = entry[role]
        return out


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


# per-call medians: (metric, span, scale to the metric's unit)
PER_CALL = (
    ("autodiff.backward_us", "autodiff.backward", 1e6),
    ("model.encode_us", "model.encode", 1e6),
    ("model.kl_node_us", "model.kl_node", 1e6),
    ("model.draw_us", "model.draw", 1e6),
    ("model.surrogate_sf_us", "model.surrogate_sf", 1e6),
    ("model.surrogate_m_us", "model.surrogate_m", 1e6),
    ("model.save_checkpoint_ms", "model.save_checkpoint", 1e3),
    ("model.load_checkpoint_ms", "model.load_checkpoint", 1e3),
    ("train.casn_objective_us", "train.casn_objective", 1e6),
    ("train.separation_penalty_us", "train.separation_penalty", 1e6),
    ("train.irm_penalty_us", "train.irm_penalty", 1e6),
    ("risk.domain_shift_bound_us", "risk.domain_shift_bound", 1e6),
    ("risk.deviation_trial_ms", "risk.sufficiency_deviation_trial", 1e3),
    ("synth.write_csv_ms", "synth.write_csv", 1e3),
    ("synth.read_csv_ms", "synth.read_csv", 1e3),
    ("evaluate.evaluate_ms", "evaluate.evaluate", 1e3),
    # every call is at n = 500: the acceptance n_eval, and the controls slices
    ("evaluate.distance_correlation_ms", "evaluate.distance_correlation", 1e3),
    ("pns.analyze_us", "pns.analyze", 1e6),
)

# (metric, unit) of everything layer_metrics returns, in output order
LAYER_METRICS = (
    [(name, "us" if name.endswith("_us") else "ms") for name, _, _ in PER_CALL]
    + [
        ("autodiff.backward_calls", "count"),
        ("autodiff.nodes_per_min_objective", "count"),
        ("autodiff.nodes_per_max_objective", "count"),
        ("autodiff.useful_node_frac_min", "fraction"),
        ("autodiff.useful_node_frac_max", "fraction"),
        ("train.step_us", "us"),
        ("risk.estimate_risk_us_per_row", "us"),
        ("risk.philox_streams", "count"),
        ("synth.generate_us_per_row", "us"),
        ("cli.run_repro_self_ms", "ms"),
        ("trace_overhead_frac", "fraction"),
        ("trace_coverage_frac", "fraction"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
)


def layer_metrics(tracers, untraced_walls):
    """Per-layer metrics from the tracers of one run's traced operations.

    Per-call figures are medians over every call of every traced
    operation; self times and counters are per operation.  Counters
    must repeat exactly from one operation to the next.
    """
    first = tracers[0].exact_counts()
    for other in tracers[1:]:
        if other.exact_counts() != first:
            raise AssertionError(f"counters differ between operations: "
                                 f"{first} vs {other.exact_counts()}")

    def pooled(field, name):
        return [v for t in tracers for v in getattr(t, field).get(name, ())]

    out = {metric: _median(pooled("durations", span), scale)
           for metric, span, scale in PER_CALL}
    ops = len(tracers)
    out["autodiff.backward_calls"] = first.get("autodiff.backward_calls", 0)

    graphs = tracers[0].graphs
    for role in ("min", "max"):
        calls = sum(g["calls"] for g in graphs.values() if role in g)
        nodes = sum(g[role][0] * g["calls"] for g in graphs.values() if role in g)
        useful = sum(g[role][1] * g["calls"] for g in graphs.values() if role in g)
        out[f"autodiff.nodes_per_{role}_objective"] = nodes / calls if calls else 0
        out[f"autodiff.useful_node_frac_{role}"] = useful / nodes if nodes else 0.0

    out["train.step_us"] = _median([v for t in tracers for v in t.train_steps], 1e6)
    out["risk.estimate_risk_us_per_row"] = _median(pooled("per_unit", "risk.estimate_risk"), 1e6)
    out["risk.philox_streams"] = first.get("risk.philox_streams", 0)
    out["synth.generate_us_per_row"] = _median(pooled("per_unit", "synth.generate"), 1e6)
    out["cli.run_repro_self_ms"] = sum(
        t.self_time.get("cli.run_repro", 0.0) for t in tracers) / ops * 1e3

    traced = statistics.median(t.wall for t in tracers)
    out["trace_overhead_frac"] = traced / statistics.median(untraced_walls) - 1.0
    covered = [1.0 - t.self_time["bench.op"] / t.wall for t in tracers]
    out["trace_coverage_frac"] = statistics.median(covered)
    for layer in LAYERS:
        total = sum(seconds for t in tracers for name, seconds in t.self_time.items()
                    if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = total / ops
    return out
