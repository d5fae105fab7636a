"""Tests for the non-stationary load scenarios."""

import hashlib

import numpy as np
import pytest

from repro.workloads.nonstationary import (
    PAPER_PHASE1,
    PAPER_PHASE2,
    LoadShiftScenario,
)


class TestValidation:
    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            LoadShiftScenario(phases=(), boundaries=())

    def test_rejects_wrong_boundary_count(self):
        with pytest.raises(ValueError):
            LoadShiftScenario(phases=((1.0,), (2.0,)), boundaries=())

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            LoadShiftScenario(
                phases=((1.0,), (2.0,), (3.0,)), boundaries=(10, 5)
            )

    def test_rejects_mismatched_k(self):
        with pytest.raises(ValueError):
            LoadShiftScenario(phases=((1.0, 1.0), (1.0,)), boundaries=(5,))

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            LoadShiftScenario(phases=((0.0, 1.0),), boundaries=())


class TestPhases:
    def test_paper_scenario(self):
        scenario = LoadShiftScenario.paper_figure10(m=150_000)
        assert scenario.k == 5
        assert scenario.multiplier(0, 0) == PAPER_PHASE1[0]
        assert scenario.multiplier(0, 74_999) == PAPER_PHASE1[0]
        assert scenario.multiplier(0, 75_000) == PAPER_PHASE2[0]
        assert scenario.multiplier(4, 149_999) == PAPER_PHASE2[4]

    def test_phase_of(self):
        scenario = LoadShiftScenario(
            phases=((1.0,), (2.0,), (3.0,)), boundaries=(10, 20)
        )
        assert scenario.phase_of(0) == 0
        assert scenario.phase_of(9) == 0
        assert scenario.phase_of(10) == 1
        assert scenario.phase_of(19) == 1
        assert scenario.phase_of(20) == 2

    def test_constant_uniform(self):
        scenario = LoadShiftScenario.constant(3)
        assert scenario.k == 3
        assert all(scenario.multiplier(i, 1000) == 1.0 for i in range(3))

    def test_constant_heterogeneous(self):
        scenario = LoadShiftScenario.constant(2, (1.0, 2.0))
        assert scenario.multiplier(1, 0) == 2.0


class TestMultiplierMatrix:
    """The bulk form the chunked engine hoists: ``[j, i] == multiplier(i, j)``."""

    def test_single_phase_is_a_read_only_view_of_one_row(self):
        scenario = LoadShiftScenario.constant(3, (1.0, 2.0, 0.5))
        m = 4096
        matrix = scenario.multiplier_matrix(m)
        assert matrix.shape == (m, 3) and matrix.dtype == np.float64
        for j in (0, 1, m // 2, m - 1):
            for i in range(3):
                assert matrix[j, i] == scenario.multiplier(i, j)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 7.0
        # k floats, not m x k: one row, zero stride along the stream
        assert matrix.strides[0] == 0
        assert matrix.base is not None and matrix.base.nbytes == 3 * 8
        assert np.array_equal(matrix, np.tile([1.0, 2.0, 0.5], (m, 1)))

    def test_two_phase_matrix_is_byte_identical_to_the_gathered_table(self):
        m = 1001
        scenario = LoadShiftScenario.paper_figure10(m)
        matrix = scenario.multiplier_matrix(m)
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        assert np.array_equal(matrix[: m // 2], np.tile(PAPER_PHASE1, (m // 2, 1)))
        assert np.array_equal(matrix[m // 2 :], np.tile(PAPER_PHASE2, (m - m // 2, 1)))
        # recorded before the single-phase view existed
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
            "2e573192d5670e7c076ec88ea9c83abd5eb21f2f836cbc7410b2a58ffb764e65"
        )
