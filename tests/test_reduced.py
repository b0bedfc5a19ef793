"""Field-alignment reductions and their closed-form verification."""

import math

import numpy as np
import pytest

from outflow1d.gas import EndStates, GasParams
from outflow1d.reduced import (SYSTEM_OF_CASE, closed_form_E, closed_form_b,
                               format_case_table, reduce_case,
                               verify_reduction)
from outflow1d.solver import FieldState, Grid1D

PARAMS = GasParams(eps=0.01)
END = EndStates(u_minus=-0.5, theta_minus=1.0, rho_plus=1.0, u_plus=-0.5,
                theta_plus=1.0)
GRID = Grid1D(40.0, 64)


def base_state():
    n = GRID.n_nodes
    return FieldState(np.ones(n), np.full(n, -0.5), np.ones(n),
                      np.zeros(n), np.zeros(n))


class TestCaseTable:
    def test_alignment_to_system_map(self):
        assert SYSTEM_OF_CASE == {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3,
                                  7: 4, 8: 4, 9: 5}

    @pytest.mark.parametrize("case", [0, 10, -3])
    def test_rejects_unknown_case(self, case):
        with pytest.raises(ValueError):
            reduce_case(case)

    def test_fully_coupled_cases(self):
        for case in (1, 2):
            m = reduce_case(case)
            assert m.has_transport and m.has_lorentz
            assert m.heating == "(E + u b)^2"
        assert reduce_case(2).b_sign == -1      # stored b = -B component
        assert reduce_case(1).b_sign == 1

    def test_lorentz_and_constraint_flags(self):
        assert [reduce_case(c).has_lorentz for c in range(1, 10)] == [
            True, True, True, True, False, False, True, True, False]
        assert [reduce_case(c).eb_constrained for c in range(1, 10)] == [
            False, False, False, False, True, True, True, True, False]

    def test_heating_expressions(self):
        assert reduce_case(3).heating == "E^2 + (u b)^2"
        assert reduce_case(5).heating == "E^2"
        assert reduce_case(7).heating == "E^2 + (u b)^2"
        assert reduce_case(9).heating == "E^2"

    def test_table_rendering(self):
        table = format_case_table()
        lines = table.splitlines()
        assert len(lines) == 11                 # header + rule + 9 cases
        assert "fully coupled" in table
        for case in range(1, 10):
            assert any(line.strip().startswith(str(case)) for line in lines)


class TestClosedForms:
    def test_uniform_relaxation(self):
        E = closed_form_E(PARAMS, 0.8, 0.02, system=2)
        assert float(E) == pytest.approx(0.8 * math.exp(-2.0), rel=1e-14)

    def test_frozen_branch_kills_E(self):
        E = closed_form_E(PARAMS, np.full(5, 0.3), 0.01, system=4,
                          branch="frozen")
        np.testing.assert_array_equal(E, 0.0)

    def test_closed_form_E_validation(self):
        with pytest.raises(ValueError):
            closed_form_E(PARAMS, 1.0, 0.1, system=1)
        with pytest.raises(ValueError):
            closed_form_E(PARAMS, 1.0, 0.1, system=7)
        with pytest.raises(ValueError):
            closed_form_E(PARAMS, 1.0, 0.1, system=3, branch="both")

    def test_transported_b_solves_its_ode(self):
        # b(x) = b(0) exp(int u) must satisfy b_x = u b
        x = np.arange(0.0, 20.0, 0.005)
        u0 = -0.5 + 0.1 * np.sin(0.7 * x)
        b = closed_form_b(x, 2.0, u0=u0, system=2)
        bx = np.gradient(b, x)
        np.testing.assert_allclose(bx[2:-2], (u0 * b)[2:-2], rtol=2e-4,
                                   atol=1e-10)
        assert b[0] == 2.0

    def test_constant_b_systems(self):
        x = np.linspace(0.0, 10.0, 33)
        np.testing.assert_array_equal(closed_form_b(x, 1.5, system=3,
                                                    branch="frozen"), 1.5)
        np.testing.assert_array_equal(closed_form_b(x, 1.5, system=5), 1.5)

    def test_decay_branch_kills_b(self):
        x = np.linspace(0.0, 10.0, 33)
        np.testing.assert_array_equal(
            closed_form_b(x, 1.5, system=4, branch="decay"), 0.0)

    def test_transport_needs_velocity(self):
        with pytest.raises(ValueError):
            closed_form_b(np.linspace(0, 1, 5), 1.0, system=2)


class TestVerifyReduction:
    def test_fully_coupled_cases_are_rejected(self):
        with pytest.raises(ValueError):
            verify_reduction(PARAMS, END, GRID, base_state(), case=1)

    def test_uniform_decay_case(self):
        state = base_state()
        state.E[:] = 0.5
        report = verify_reduction(PARAMS, END, GRID, state, case=5)
        assert report["passed"]
        assert report["system"] == 3
        assert report["err_E"] <= 1e-12        # exact factor, uniform field
        assert report["err_b"] == 0.0

    def test_frozen_branch_keeps_b(self):
        state = base_state()
        state.E[:] = 0.5
        state.b[:] = 1.2
        report = verify_reduction(PARAMS, END, GRID, state, case=5,
                                  branch="frozen")
        assert report["passed"] and report["err_b"] == 0.0

    def test_profile_decay_case(self):
        state = base_state()
        arg = (GRID.x - 20.0) / 4.0
        state.E += 0.3 * np.exp(-0.5 * arg * arg)
        report = verify_reduction(PARAMS, END, GRID, state, case=9)
        assert report["passed"] and report["system"] == 5

    def test_transported_b_profile_is_static(self):
        state = base_state()
        state.E[:] = 0.4
        state.b[:] = closed_form_b(GRID.x, 1.0, u0=state.u, system=2)
        report = verify_reduction(PARAMS, END, GRID, state, case=3)
        assert report["passed"] and report["system"] == 2
        assert report["err_b"] == 0.0
