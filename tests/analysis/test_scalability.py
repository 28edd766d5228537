"""Tests for the Section IV-B scalability comparison."""

import numpy as np
import pytest

from repro.analysis import scalability_comparison
from repro.baselines import Swps3Model
from repro.sequence import SWISSPROT_PROFILE


@pytest.fixture(scope="module")
def result():
    # Full scale: the GPU side needs fine-grained inter-task groups (the
    # SWPS3 side is scale-invariant).
    return scalability_comparison(swps3_sample_rows=15_000)


class TestScalability:
    def test_paper_quoted_doublings(self, result):
        assert 1.7 < result.extra["swps3_doubling"] < 2.1
        assert 1.7 < result.extra["gpu_doubling"] < 2.1

    def test_gpu_beats_eight_cores(self, result):
        assert result.extra["gpu_vs_8core"] > 1.0

    def test_rows_cover_both_systems(self, result):
        systems = {row[0] for row in result.rows}
        assert systems == {"SWPS3", "CUDASW++ improved"}
        assert len(result.rows) == 7

    def test_swps3_scaling_near_linear(self, result):
        swps3 = [row[2] for row in result.rows if row[0] == "SWPS3"]
        # 1 -> 2 -> 4 cores each roughly double.
        assert 1.8 < swps3[1] / swps3[0] < 2.1
        assert 1.8 < swps3[2] / swps3[1] < 2.1

    def test_four_core_row_is_the_swps3_report(self, result):
        """Re-timing the report's own counts on its own host reproduces
        it exactly: the 4-core row is the Figure 7 SWPS3 model."""
        rng = np.random.default_rng(0)  # scalability_comparison(seed=0)
        db = SWISSPROT_PROFILE.build(rng)
        report = Swps3Model().report(567, db, rng, sample_rows=15_000)
        row = next(r for r in result.rows if r[:2] == ("SWPS3", "4 cores"))
        assert row[2] == report.gcups
