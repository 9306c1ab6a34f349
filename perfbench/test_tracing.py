"""The tracer patches the names callers look up, nests spans and restores.

Run with `python -m pytest perfbench/test_tracing.py` from the repository
root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from solitonlab import _kernels, dynamics, radial, spectral  # noqa: E402


def test_spans_nest_under_the_callers_names_and_originals_return():
    original = spectral.sturm_count
    op = radial.assemble_channel_operator(radial.make_grid(np.pi, 64), 0, np.zeros(64))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert spectral.sturm_count is not original
        assert _kernels.sturm_count is spectral.sturm_count
        e = spectral.eigenvalue_by_index(op, 0)
    assert spectral.sturm_count is original
    assert abs(e - 1.0) < 1e-3

    names = [s[0] for s in tracer.spans]
    assert names[0] == "spectral.eigenvalue_by_index"
    assert set(names[1:]) == {"kernels.sturm_count"}
    assert all(s[3] == 0 for s in tracer.spans[1:])

    m = tracer.per_layer([(0, tracer.mark())])
    assert m["spectral.eigenvalue_by_index.calls"][0] == 1
    assert m["kernels.sturm_count.calls"][0] == len(names) - 1
    assert m["kernels.leapfrog.calls"][0] == 0
    busy = m["layer.spectral.busy_s"][0]
    own = m["layer.spectral.self_s"][0]
    assert 0.0 <= own <= busy
    assert abs(busy - own - m["kernels.sturm_count.s"][0]) < 1e-9


def test_leapfrog_counters_from_evolve():
    g = radial.make_grid(20.0, 200)
    state = dynamics.RadialState(g, 1e-3 * np.exp(-g.nodes ** 2), np.zeros(g.n),
                                 "perturbation")
    tracer = tracing.Tracer()
    with tracer.installed():
        traj = dynamics.evolve_nlw(state, 1.0)
    m = tracer.per_layer([(0, tracer.mark())])
    steps = int(round(1.0 / traj.dt))
    assert m["kernels.leapfrog.calls"][0] == 1
    assert m["kernels.leapfrog.node_steps"][0] == steps * g.n
    assert abs(m["dynamics.sim_time"][0] - steps * traj.dt) < 1e-12
    assert 0.0 < m["dynamics.decided_fraction"][0] <= 1.0
    assert m["dynamics.evolve_nlw.self_s"][0] < m["dynamics.evolve_nlw.s"][0]
