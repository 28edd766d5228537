"""SWPS3's adaptive 8-bit/16-bit precision scheme, as the striped engine
runs it.

SWPS3 scores a pair with saturating bytes first and reruns it with
16-bit words only when the byte pass overflows.  The repository runs
that scheme once, as the ``uint8`` -> ``int16`` -> exact tier ladder of
:func:`~repro.engine.striped.score_packed_group_striped`; these tests
check the scheme's contract there, one pair per group: the byte pass is
exact below its cap, a score at or past the cap reruns, and the ladder's
result is always exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import pack_database, score_packed_group_striped
from repro.engine.striped import _lazy_f_sweep
from repro.sequence import Database, Sequence, StripedProfile, random_protein
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()


def _group(d):
    (group,) = pack_database(Database.from_sequences([d]), 1)
    return group


def _byte_pass(q, d, matrix=BLOSUM62):
    """The saturating ``uint8`` pass alone, and its cap."""
    profile = StripedProfile(q.codes, matrix)
    (score,), _ = _lazy_f_sweep(
        _group(d).codes, profile.profile8, GP, profile.bias, profile.cap8
    )
    return int(score), profile.cap8


def _ladder(q, d, matrix=BLOSUM62):
    """The whole tier ladder, and the work counters it charged."""
    profile = StripedProfile(q.codes, matrix)
    with obs.collect("counters") as instr:
        (score,) = score_packed_group_striped(profile, _group(d), GP)
    return int(score), instr.counters.as_dict()


class TestSaturatedPass:
    def test_scores_below_clamp_are_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = random_protein(int(rng.integers(1, 80)), rng)
            d = random_protein(int(rng.integers(1, 80)), rng)
            exact = sw_score_scalar(q, d, BLOSUM62, GP)
            s, cap = _byte_pass(q, d)
            assert s == min(exact, cap)

    def test_clamp_caps_high_scores(self):
        rng = np.random.default_rng(1)
        q = random_protein(150, rng)
        s, cap = _byte_pass(q, q)
        assert s == cap
        assert sw_score_scalar(q, q, BLOSUM62, GP) > cap

    def test_clamp_validation(self):
        """The byte tier exists down to a cap of 1 — every positive score
        then overflows and reruns exactly — and not one unit below."""
        n = BLOSUM62.alphabet.size

        def match_matrix(match):
            w = np.full((n, n), -1, dtype=np.int32)
            np.fill_diagonal(w, match)
            return type(BLOSUM62)(f"match{match}", BLOSUM62.alphabet, w)

        rng = np.random.default_rng(2)
        q = random_protein(10, rng)
        tight = match_matrix(253)  # bias 1 + 253 leaves exactly 1 byte
        assert StripedProfile(q.codes, tight).cap8 == 1
        s, counters = _ladder(q, q, tight)
        assert s == sw_score_scalar(q, q, tight, GP)
        assert counters["engine.striped.overflow_reruns"] == 1
        assert StripedProfile(q.codes, match_matrix(254)).profile8 is None


class TestAdaptive:
    def test_always_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            q = random_protein(int(rng.integers(1, 90)), rng)
            d = random_protein(int(rng.integers(1, 90)), rng)
            s, _ = _ladder(q, d)
            assert s == sw_score_scalar(q, d, BLOSUM62, GP)

    def test_random_pairs_stay_in_byte_pass(self):
        """Unrelated sequences score far below the cap: no rerun needed —
        the scheme's whole economy."""
        rng = np.random.default_rng(4)
        for _ in range(15):
            q = random_protein(120, rng)
            d = random_protein(120, rng)
            _, counters = _ladder(q, d)
            assert "engine.striped.overflow_reruns" not in counters

    def test_homologs_trigger_rerun(self):
        rng = np.random.default_rng(5)
        q = random_protein(120, rng)
        s, counters = _ladder(q, q)
        assert counters["engine.striped.overflow_reruns"] == 1
        assert s == sw_score_scalar(q, q, BLOSUM62, GP)
        assert s > StripedProfile(q.codes, BLOSUM62).cap8

    def test_overflow_costs_both_passes(self):
        rng = np.random.default_rng(6)
        q = random_protein(100, rng)
        d = random_protein(100, rng)
        _, cheap = _ladder(q, d)
        _, expensive = _ladder(q, q)
        assert expensive["engine.striped.stripes"] == (
            2 * cheap["engine.striped.stripes"]
        )
        assert expensive["engine.striped.columns"] == 200
        assert cheap["engine.striped.columns"] == 100

    @settings(max_examples=30, deadline=None)
    @given(
        q=st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=30),
        d=st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=30),
    )
    def test_property_exactness(self, q, d):
        q, d = Sequence.from_text("q", q), Sequence.from_text("d", d)
        s, _ = _ladder(q, d)
        assert s == sw_score_scalar(q, d, BLOSUM62, GP)

    def test_boundary_score_at_limit(self):
        """A pair whose exact score equals the byte cap must rerun (the
        byte pass cannot tell the cap from saturation) and stay exact."""
        # BLOSUM62's cap is 255 - (4 bias + 11 max) = 240; 21 W-W (231)
        # + M-M (5) + A-A (4) = 240.
        q = Sequence.from_text("q", "W" * 21 + "MA")
        assert sw_score_scalar(q, q, BLOSUM62, GP) == 240
        assert StripedProfile(q.codes, BLOSUM62).cap8 == 240
        s, counters = _ladder(q, q)
        assert s == 240
        assert counters["engine.striped.overflow_reruns"] == 1
