"""Field-alignment reductions: the case table and its closed forms."""

import pytest

from outflow1d.reduced import CASE_NOTES, format_case_table, reduce_case


class TestCaseTable:
    def test_alignment_to_system_map(self):
        assert {c: reduce_case(c).system for c in range(1, 10)} == {
            1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4, 9: 5}

    @pytest.mark.parametrize("case", [0, 10, -3])
    def test_rejects_unknown_case(self, case):
        with pytest.raises(ValueError):
            reduce_case(case)

    def test_fully_coupled_cases(self):
        for case in (1, 2):
            m = reduce_case(case)
            assert m.has_lorentz
            assert CASE_NOTES[case][1] == "none: E, b transported"
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
        assert all(note in table for note, _ in CASE_NOTES.values())
        for case in range(1, 10):
            assert any(line.strip().startswith(str(case)) for line in lines)
