"""Tests for Farrar's striped loop and the SWPS3 model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import BLOSUM62, GapPenalty
from repro.baselines import (
    CpuSpec,
    StripedCounts,
    Swps3Model,
    XEON_E5345,
    farrar_sweep,
    swps3_time_seconds,
)
from repro.sequence import (
    SWISSPROT_PROFILE,
    Sequence,
    StripedProfile,
    random_protein,
)
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()


def _sweep(q, d, gaps=GP, target_lanes=8):
    profile = StripedProfile(q.codes, BLOSUM62, target_lanes=target_lanes)
    return farrar_sweep(profile, d.codes, gaps)


class TestStripedCorrectness:
    def test_exact_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, n = int(rng.integers(1, 120)), int(rng.integers(1, 120))
            q, d = random_protein(m, rng), random_protein(n, rng)
            s, _ = _sweep(q, d)
            assert s == sw_score_scalar(q, d, BLOSUM62, GP), (m, n)

    def test_exact_under_cheap_gaps(self):
        """Cheap gap models maximize lazy-F pressure (gaps cross lanes)."""
        rng = np.random.default_rng(1)
        gp = GapPenalty(3, 1)
        for _ in range(20):
            m, n = int(rng.integers(1, 100)), int(rng.integers(1, 100))
            q, d = random_protein(m, rng), random_protein(n, rng)
            s, _ = _sweep(q, d, gp, target_lanes=4)
            assert s == sw_score_scalar(q, d, BLOSUM62, gp), (m, n)

    @pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16])
    def test_lane_count_never_changes_scores(self, lanes):
        rng = np.random.default_rng(lanes)
        q, d = random_protein(90, rng), random_protein(70, rng)
        s, _ = _sweep(q, d, target_lanes=lanes)
        assert s == sw_score_scalar(q, d, BLOSUM62, GP)

    @settings(max_examples=30, deadline=None)
    @given(
        q=st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=40),
        d=st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=40),
    )
    def test_property_agreement(self, q, d):
        q, d = Sequence.from_text("q", q), Sequence.from_text("d", d)
        s, _ = _sweep(q, d)
        assert s == sw_score_scalar(q, d, BLOSUM62, GP)

    def test_profile_reuse(self):
        """One profile serves every subject, as SWPS3 reuses it across
        the database."""
        rng = np.random.default_rng(2)
        q = random_protein(50, rng)
        prof = StripedProfile(q.codes, BLOSUM62, target_lanes=8)
        for n in (40, 1, 75):
            d = random_protein(n, rng)
            s, _ = farrar_sweep(prof, d.codes, GP)
            assert s == _sweep(q, d)[0] == sw_score_scalar(q, d, BLOSUM62, GP)

    def test_profile_mismatch_rejected(self):
        """SWPS3's word pass is 16-bit: a profile whose matrix has no
        int16 tier cannot drive it."""
        n = BLOSUM62.alphabet.size
        w = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(w, 32767)
        huge = type(BLOSUM62)("huge", BLOSUM62.alphabet, w)
        rng = np.random.default_rng(3)
        prof = StripedProfile(random_protein(50, rng).codes, huge)
        assert prof.profile16 is None
        with pytest.raises(ValueError, match="int16"):
            farrar_sweep(prof, random_protein(40, rng).codes, GP)

    def test_counts_structure(self):
        rng = np.random.default_rng(4)
        q, d = random_protein(40, rng), random_protein(30, rng)
        _, c = _sweep(q, d)
        assert c.cells == 40 * 30
        assert c.columns == 30
        assert c.segment_length == 5  # ceil(40/8)
        assert c.main_rows == 5 * 30
        assert c.lazy_rows >= 0
        assert 0 <= c.lazy_fraction < 1
        assert c.vector_ops > 0

    def test_bad_lanes(self):
        """The lane count is the CPU's: it is validated there."""
        with pytest.raises(ValueError):
            CpuSpec(name="no lanes", clock_ghz=2.0, cores=1, lanes=0)


class TestCpuCostModel:
    def test_time_positive_and_scales(self):
        c = StripedCounts(cells=10_000, columns=100, segment_length=10,
                          main_rows=1000, lazy_rows=50)
        t4 = swps3_time_seconds(c, XEON_E5345)
        t1 = swps3_time_seconds(c, XEON_E5345, threads=1)
        assert t1 == pytest.approx(4 * t4, rel=0.05)

    def test_lazy_rows_cost_extra(self):
        base = StripedCounts(10_000, 100, 10, 1000, 0)
        lazy = StripedCounts(10_000, 100, 10, 1000, 500)
        assert swps3_time_seconds(lazy) > swps3_time_seconds(base)

    def test_validation(self):
        c = StripedCounts(1, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            swps3_time_seconds([], XEON_E5345)
        with pytest.raises(ValueError):
            swps3_time_seconds(c, XEON_E5345, threads=5)
        with pytest.raises(ValueError):
            swps3_time_seconds(c, XEON_E5345, n_sequences=0)


class TestSwps3Model:
    @pytest.fixture(scope="class")
    def swissprot(self):
        rng = np.random.default_rng(6)
        return SWISSPROT_PROFILE.build(rng, scale=0.02)

    def test_report_magnitude(self, swissprot):
        """Figure 7: SWPS3 on 4 Xeon cores sits well below CUDASW++."""
        rng = np.random.default_rng(7)
        rep = Swps3Model().report(567, swissprot, rng, sample_rows=20_000)
        assert 3.0 < rep.gcups < 12.0
        assert rep.total_cells == 567 * swissprot.total_residues
        assert 0 <= rep.lazy_fraction < 0.2

    @pytest.mark.parametrize(
        "query_length,time_seconds,lazy_fraction",
        [
            (567, 0.29393190793991414, 0.0030785370660170804),
            (144, 0.07571785107296138, 0.017259052272128195),
        ],
    )
    def test_report_pinned(
        self, swissprot, query_length, time_seconds, lazy_fraction
    ):
        """The scale model's exact output: Figure 7's SWPS3 curve moves
        only if these do."""
        rng = np.random.default_rng(7)
        rep = Swps3Model().report(
            query_length, swissprot, rng, sample_rows=20_000
        )
        assert rep.time_seconds == time_seconds
        assert rep.lazy_fraction == lazy_fraction

    def test_report_validation(self, swissprot):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            Swps3Model().report(0, swissprot, rng)
        with pytest.raises(ValueError):
            Swps3Model().report(100, swissprot, rng, sample_rows=0)
