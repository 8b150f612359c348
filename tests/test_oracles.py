import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zenocool
from zenocool import fidelity_bbh_rank1_d3, fidelity_xx_rank1, zeno_run
from zenocool import ProtocolConfig, SystemLayout, XXZSpec, BBHSpec

ENGINE_MODULES = ("qudit", "hamiltonians", "evolution", "protocol", "sweeps", "presets")


def test_no_engine_module_imports_the_oracles():
    """The engine modules hold only what a run executes: none names `oracles` in an import
    (`from .oracles import ...`, `from . import oracles`, `import zenocool.oracles`)."""
    offenders = []
    for module in ENGINE_MODULES:
        path = Path(zenocool.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{module}: {name}" for name in names if "oracles" in name.split(".")]
    assert offenders == []


def test_xx_at_zero_coupling_is_one_over_d():
    for d in (2, 3, 4, 5):
        for n in (0, 1, 7, 40):
            assert fidelity_xx_rank1(d, n, 0.0) == pytest.approx(1 / d, abs=1e-14)


def test_xx_d3_asymptote_at_pi():
    assert fidelity_xx_rank1(3, 200, math.pi) == pytest.approx(0.5, abs=1e-3)


def test_xx_d4_matches_engine():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 4),
                            hamiltonian=XXZSpec(J=1.0, Delta=0.0), tau=1.2,
                            n_measurements=10, rank=1)
    record = zeno_run(config)
    assert record.fidelities[-1, 0] == pytest.approx(
        fidelity_xx_rank1(4, 10, 1.2), abs=1e-8)


@given(d=st.sampled_from([2, 3, 4, 5]), n=st.integers(0, 300), x=st.floats(0.0, 12.0))
def test_xx_outputs_in_unit_interval(d, n, x):
    f = fidelity_xx_rank1(d, n, x)
    assert 0.0 < f <= 1.0


def test_xx_d2_periodicity():
    # cos^2(Jtau/2) in this operator normalization: period 2*pi in Jtau
    rng = np.random.default_rng(5)
    for x in rng.uniform(0, 2 * math.pi, 20):
        for n in (1, 3, 11):
            assert fidelity_xx_rank1(2, n, x) == pytest.approx(
                fidelity_xx_rank1(2, n, x + 2 * math.pi), abs=1e-12)


def test_xx_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        fidelity_xx_rank1(6, 1, 1.0)
    with pytest.raises(ValueError):
        fidelity_xx_rank1(2, -1, 1.0)


def test_xx_accepts_arrays():
    xs = np.linspace(0, 6.2, 63)
    out = fidelity_xx_rank1(3, 12, xs)
    assert out.shape == xs.shape
    assert np.all((out > 0) & (out <= 1))


def test_bbh_at_zero_coupling_is_one_third():
    for theta in (-5 * math.pi / 8, -math.pi / 8, math.pi / 2, 3 * math.pi / 4):
        for n in (0, 1, 25):
            assert fidelity_bbh_rank1_d3(n, theta, 0.0) == pytest.approx(1 / 3, abs=1e-14)


def test_bbh_matches_engine_haldane_phase():
    theta = -math.pi / 8
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=BBHSpec(J=1.0, theta=theta), tau=1.0,
                            n_measurements=40, rank=1)
    record = zeno_run(config)
    for n in (1, 10, 25, 40):
        assert record.fidelities[n - 1, 0] == pytest.approx(
            fidelity_bbh_rank1_d3(n, theta, 1.0), abs=1e-8)


def test_bbh_critical_phase_never_cools():
    # theta = pi/2: the two-state branch is frozen, so fidelity <= 1/2 forever
    vals = [fidelity_bbh_rank1_d3(n, math.pi / 2, 1.0) for n in range(1, 501)]
    assert max(vals) < 1.0
    assert max(vals) <= 0.5 + 1e-12


@given(theta=st.floats(-math.pi, math.pi), n=st.integers(0, 200), x=st.floats(0.0, 8.0))
def test_bbh_outputs_in_unit_interval(theta, n, x):
    f = fidelity_bbh_rank1_d3(n, theta, x)
    assert 0.0 < f <= 1.0
