"""Span tracing of solitonlab's layers from outside the package.

Tracer.installed() replaces each traced function under every name a
solitonlab module looks it up by (spectral imports sturm_count from
_kernels by name, find_stable_h calls evolve_nlw through its module
globals, ...), and restores the originals on exit.  Each call records a
span (name, start, end, parent) in memory; per_layer() derives calls,
busy time and self time from them.  Nothing is traced in untraced runs.
"""

import contextlib
import json
import math
import sys
import time

# (module, attribute) of every traced function.  eigh_tridiagonal is
# scipy's, traced where dynamics looks it up.
TARGETS = [
    ("solitonlab._kernels", "sturm_count"),
    ("solitonlab._kernels", "shoot_count"),
    ("solitonlab._kernels", "shoot_solution"),
    ("solitonlab._kernels", "inverse_iteration"),
    ("solitonlab._kernels", "rk4_shoot"),
    ("solitonlab._kernels", "leapfrog"),
    ("solitonlab._kernels", "tridiag_solve"),
    ("solitonlab.radial", "assemble_channel_operator"),
    ("solitonlab.spectral", "eigenvalue_by_index"),
    ("solitonlab.spectral", "negative_eigenpairs"),
    ("solitonlab.spectral", "zero_energy_diagnosis"),
    ("solitonlab.spectral", "birman_schwinger_count"),
    ("solitonlab.solitons", "nls_ground_state"),
    ("solitonlab.linearized", "gap_scan"),
    ("solitonlab.linearized", "gap_holds_at"),
    ("solitonlab.linearized", "sigma_star"),
    ("solitonlab.resolvent", "classify_zero_mode"),
    ("solitonlab.dynamics", "find_stable_h"),
    ("solitonlab.dynamics", "evolve_nlw"),
    ("solitonlab.dynamics", "static_background"),
    ("solitonlab.dynamics", "unstable_mode"),
    ("solitonlab.dynamics", "sine_split"),
    ("solitonlab.dynamics", "linear_propagate"),
    ("solitonlab.dynamics", "eigh_tridiagonal"),
]

LAYERS = ["kernels", "radial", "spectral", "solitons", "linearized",
          "resolvent", "dynamics"]

# Metric names drop the leading underscore of _kernels: a metric name
# starts with a letter.
SPAN_NAMES = [f"{mod.split('.')[1].lstrip('_')}.{attr}" for mod, attr in TARGETS]


def _layer(span_name):
    return span_name.split(".")[0]


class Tracer:
    """Spans of one traced process: (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.extra = []  # (span index, dict of counters) from result hooks
        self._stack = []

    def _wrap(self, name, fn, hook):
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), math.nan, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                extra.append((idx, hook(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced names for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "solitonlab" or name.startswith("solitonlab.")]
        patched = []
        try:
            for (mod_name, attr), span_name in zip(TARGETS, SPAN_NAMES):
                fn = getattr(sys.modules.get(mod_name), attr, None)
                if fn is None:
                    continue  # gone from the program: reports 0 calls
                wrapper = self._wrap(span_name, fn, HOOKS.get(span_name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            patched.append((m, key, fn))
            yield self
        finally:
            for m, key, fn in reversed(patched):
                setattr(m, key, fn)

    def mark(self):
        """Index of the next span, to select the spans of one pass."""
        return len(self.spans)

    def dump(self, path):
        """Write the spans as JSON lines [name, start, end, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_layer(self, ranges):
        """Calls, time and derived counters over the spans in `ranges`.

        ranges is a list of (first, stop) span-index pairs, e.g. the set-up
        and one pass.
        """
        picked = [i for first, stop in ranges for i in range(first, stop)]
        inside = set(picked)
        calls = {n: 0 for n in SPAN_NAMES}
        total = {n: 0.0 for n in SPAN_NAMES}
        child_time = {}
        layer_busy = {l: 0.0 for l in LAYERS}
        layer_self = {l: 0.0 for l in LAYERS}
        for i in picked:
            name, t0, t1, parent = self.spans[i]
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            child_time[parent] = child_time.get(parent, 0.0) + dur
            # a layer is busy from its outermost span: skip spans whose
            # parent belongs to the same layer
            if parent < 0 or _layer(self.spans[parent][0]) != _layer(name):
                layer_busy[_layer(name)] += dur
        for i in picked:
            name = self.spans[i][0]
            own = self.spans[i][2] - self.spans[i][1] - child_time.get(i, 0.0)
            layer_self[_layer(name)] += own
        evolve_self = sum((self.spans[i][2] - self.spans[i][1] - child_time.get(i, 0.0)
                           for i in picked if self.spans[i][0] == "dynamics.evolve_nlw"), 0.0)

        counters = {}
        for idx, values in self.extra:
            if idx in inside:
                for k, v in values.items():
                    counters[k] = counters.get(k, 0.0) + v

        node_steps = counters.get("node_steps", 0.0)
        sim = counters.get("sim_time", 0.0)
        ground_states = calls["solitons.nls_ground_state"]
        m = {
            "kernels.sturm_count.calls": (calls["kernels.sturm_count"], "count"),
            "kernels.sturm_count.s": (total["kernels.sturm_count"], "s"),
            "kernels.shoot_count.calls": (calls["kernels.shoot_count"], "count"),
            "kernels.shoot_count.s": (total["kernels.shoot_count"], "s"),
            "kernels.shoot_solution.s": (total["kernels.shoot_solution"], "s"),
            "kernels.inverse_iteration.s": (total["kernels.inverse_iteration"], "s"),
            "kernels.rk4_shoot.calls": (calls["kernels.rk4_shoot"], "count"),
            "kernels.rk4_shoot.s": (total["kernels.rk4_shoot"], "s"),
            "kernels.leapfrog.calls": (calls["kernels.leapfrog"], "count"),
            "kernels.leapfrog.s": (total["kernels.leapfrog"], "s"),
            "kernels.leapfrog.node_steps": (int(node_steps), "count"),
            "kernels.leapfrog.ns_per_node_step": (
                1e9 * total["kernels.leapfrog"] / node_steps if node_steps else 0.0, "ns"),
            "kernels.tridiag_solve.s": (total["kernels.tridiag_solve"], "s"),
            "radial.assemble_channel_operator.calls": (
                calls["radial.assemble_channel_operator"], "count"),
            "radial.assemble_channel_operator.s": (
                total["radial.assemble_channel_operator"], "s"),
            "spectral.eigenvalue_by_index.calls": (calls["spectral.eigenvalue_by_index"], "count"),
            "spectral.negative_eigenpairs.s": (total["spectral.negative_eigenpairs"], "s"),
            "spectral.zero_energy_diagnosis.s": (total["spectral.zero_energy_diagnosis"], "s"),
            "spectral.birman_schwinger_count.s": (total["spectral.birman_schwinger_count"], "s"),
            "solitons.nls_ground_state.calls": (ground_states, "count"),
            "solitons.nls_ground_state.s": (total["solitons.nls_ground_state"], "s"),
            "solitons.shots_per_ground_state": (
                calls["kernels.rk4_shoot"] / ground_states if ground_states else 0.0, "count"),
            "linearized.gap_scan.calls": (calls["linearized.gap_scan"], "count"),
            "linearized.gap_scan.s": (total["linearized.gap_scan"], "s"),
            "linearized.sigma_star.s": (total["linearized.sigma_star"], "s"),
            "linearized.sigma_rounds": (calls["linearized.gap_holds_at"], "count"),
            "resolvent.classify_zero_mode.s": (total["resolvent.classify_zero_mode"], "s"),
            "dynamics.find_stable_h.s": (total["dynamics.find_stable_h"], "s"),
            "dynamics.evolve_nlw.calls": (calls["dynamics.evolve_nlw"], "count"),
            "dynamics.evolve_nlw.s": (total["dynamics.evolve_nlw"], "s"),
            "dynamics.evolve_nlw.self_s": (evolve_self, "s"),
            "dynamics.sim_time": (sim, "time_units"),
            "dynamics.decided_fraction": (
                counters.get("decided_time", 0.0) / sim if sim else 0.0, "ratio"),
            "dynamics.static_background.s": (total["dynamics.static_background"], "s"),
            "dynamics.unstable_mode.s": (total["dynamics.unstable_mode"], "s"),
            "dynamics.sine_split.s": (total["dynamics.sine_split"], "s"),
            "dynamics.linear_propagate.s": (total["dynamics.linear_propagate"], "s"),
            "dynamics.eigh_tridiagonal.s": (total["dynamics.eigh_tridiagonal"], "s"),
            "dynamics.eigvec_bytes": (int(counters.get("eigvec_bytes", 0)), "bytes_computed"),
        }
        for layer in LAYERS:
            m[f"layer.{layer}.busy_s"] = (layer_busy[layer], "s")
            m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        return m


def _leapfrog_hook(args, kwargs, result):
    # leapfrog(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt, n_steps, ...)
    # returns (snapshots, last_step, reason)
    steps = result[1]
    return {"node_steps": steps * len(args[0]), "sim_time": steps * args[6]}


def _evolve_hook(args, kwargs, result):
    """Simulated time of one run and the part of it before its outcome was fixed."""
    from solitonlab.dynamics import EvolveConfig
    config = kwargs.get("config", args[3] if len(args) > 3 else EvolveConfig())
    t_final = kwargs.get("t_final", args[1] if len(args) > 1 else None)
    if math.isfinite(result.blowup_time):
        sim = result.blowup_time
    else:
        sim = max(1, int(round(t_final / result.dt))) * result.dt
    decided = sim
    exited = abs(result.n_plus_series) > config.exit_n_plus
    if exited.any():
        decided = min(decided, float(result.times[int(exited.argmax())]))
    if math.isfinite(result.exit_time):
        decided = min(decided, result.exit_time)
    return {"decided_time": decided}


def _eigh_hook(args, kwargs, result):
    if kwargs.get("eigvals_only", False):
        return {}
    n = len(args[0])
    return {"eigvec_bytes": 8 * n * n}


HOOKS = {
    "kernels.leapfrog": _leapfrog_hook,
    "dynamics.evolve_nlw": _evolve_hook,
    "dynamics.eigh_tridiagonal": _eigh_hook,
}
