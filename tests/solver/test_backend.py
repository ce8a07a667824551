"""make_backend: name registry behavior."""

import pytest

from repro.errors import SolverError
from repro.solver.backend import BACKEND_NAMES, make_backend
from repro.solver.scipy_backend import scipy_available


def test_unknown_backend_raises_with_valid_names():
    with pytest.raises(SolverError) as exc:
        make_backend("cplex")
    msg = str(exc.value)
    assert "cplex" in msg
    for name in BACKEND_NAMES:
        assert name in msg, f"error should list valid backend {name!r}"


@pytest.mark.parametrize("bad", ["", "Pure", "scipy-lp", "gurobi"])
def test_other_unknown_names_rejected(bad):
    with pytest.raises(SolverError):
        make_backend(bad)


def test_known_names_construct_solvers():
    for name in BACKEND_NAMES:
        if name in ("scipy", "pure-scipy-lp") and not scipy_available():
            continue
        backend = make_backend(name)
        assert hasattr(backend, "solve")


def test_auto_resolves_to_a_backend():
    backend = make_backend("auto")
    assert hasattr(backend, "solve")


@pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
def test_scipy_loose_gap_solve_reports_the_dual_bound_not_the_objective():
    """HiGHS stopping inside ``rel_gap`` must not claim a gap-free optimum."""
    import numpy as np

    from repro.solver import Model
    from repro.solver.scipy_backend import ScipyMILPSolver
    from repro.verify import check_certificate

    rng = np.random.default_rng(0)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(40)]
    for _ in range(6):
        weights = rng.uniform(0.0, 5.0, len(xs))
        m.add_constraint(sum(float(w) * x for w, x in zip(weights, xs)),
                         "<=", 0.3 * float(weights.sum()))
    m.set_objective(sum(float(v) * x
                        for v, x in zip(rng.uniform(1.0, 10.0, len(xs)), xs))
                    + 7.0, sense="maximize")

    loose = ScipyMILPSolver(rel_gap=0.5).solve(m)
    assert loose.gap > 0.0
    assert loose.bound > loose.objective  # maximize: the bound sits above
    assert check_certificate(m, loose).ok
    tight = ScipyMILPSolver(rel_gap=1e-9).solve(m)
    # The loose solve's bound is a proof about the true optimum.
    assert loose.objective <= tight.objective + 1e-9 <= loose.bound + 1e-6
    assert tight.bound == pytest.approx(tight.objective, rel=1e-6)
