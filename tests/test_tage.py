"""Behavioural tests for the TAGE predictor, plus a differential test
of the packed-lane predictor against the register-object reference in
``tests/reference_tage.py``."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_tage
from repro.branch.predictors.tage import TagePredictor, _fold


class TestFold:
    def test_zero_folds_to_zero(self):
        assert _fold(0, 8) == 0

    def test_short_history_unchanged(self):
        assert _fold(0b1011, 8) == 0b1011

    def test_fold_reduces_width(self):
        assert _fold((1 << 40) - 1, 10) < (1 << 10)

    def test_fold_is_xor_of_chunks(self):
        history = 0b1111_0000_1010
        assert _fold(history, 4) == 0b1111 ^ 0b0000 ^ 0b1010


class TestTageBasics:
    def test_initial_prediction_is_boolean(self):
        p = TagePredictor()
        assert p.predict(0x400) in (True, False)

    def test_learns_strong_bias(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x400)
            p.update(0x400, True)
        assert p.predict(0x400) is True

    def test_learns_not_taken_bias(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x404)
            p.update(0x404, False)
        assert p.predict(0x404) is False

    def test_update_without_predict_is_safe(self):
        p = TagePredictor()
        p.update(0x100, True)  # must internally re-predict, not crash

    def test_storage_within_8kb_budget(self):
        bits = TagePredictor().storage_bits()
        assert 6 * 1024 * 8 <= bits <= 9 * 1024 * 8

    def test_reset_forgets(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x400)
            p.update(0x400, True)
        p.reset()
        assert p.history == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TagePredictor(base_entries=100)
        with pytest.raises(ValueError):
            TagePredictor(history_lengths=(10, 5))


class TestTageHistory:
    def test_history_shifts_on_update(self):
        p = TagePredictor()
        p.predict(0x100)
        p.update(0x100, True)
        assert p.history & 1 == 1
        p.predict(0x100)
        p.update(0x100, False)
        assert p.history & 1 == 0

    def test_history_masked_to_max_length(self):
        p = TagePredictor(history_lengths=(3, 6))
        for i in range(100):
            p.predict(0x100)
            p.update(0x100, True)
        assert p.history < (1 << 6)


class TestTageLearnsPatterns:
    def _accuracy_on_pattern(self, predictor, pattern, warm=300, measure=300):
        idx = 0
        for _ in range(warm):
            predictor.predict(0x400)
            predictor.update(0x400, pattern[idx % len(pattern)])
            idx += 1
        correct = 0
        for _ in range(measure):
            outcome = pattern[idx % len(pattern)]
            if predictor.predict(0x400) == outcome:
                correct += 1
            predictor.update(0x400, outcome)
            idx += 1
        return correct / measure

    def test_short_period_pattern_learned(self):
        acc = self._accuracy_on_pattern(TagePredictor(), [True, True, False])
        assert acc > 0.9

    def test_longer_period_pattern_learned(self):
        pattern = [True] * 6 + [False]  # loop with 6 trips
        acc = self._accuracy_on_pattern(TagePredictor(), pattern)
        assert acc > 0.85

    def test_correlated_pair_learned(self):
        """B copies A's outcome: global history makes B predictable."""
        p = TagePredictor()
        import random
        rng = random.Random(42)
        correct = 0
        total = 0
        last_a = False
        for i in range(2000):
            a = rng.random() < 0.5
            p.predict(0x100)
            p.update(0x100, a)
            pred_b = p.predict(0x200)
            if i > 500:
                total += 1
                correct += pred_b == a
            p.update(0x200, a)
            last_a = a
        assert correct / total > 0.8

    def test_beats_bimodal_on_alternation(self):
        from repro.branch.predictors.bimodal import BimodalPredictor
        pattern = [True, False]
        tage_acc = self._accuracy_on_pattern(TagePredictor(), pattern)
        bim = BimodalPredictor()
        bim_correct = 0
        idx = 0
        for _ in range(600):
            outcome = pattern[idx % 2]
            if bim.predict(0x400) == outcome:
                bim_correct += 1
            bim.update(0x400, outcome)
            idx += 1
        assert tage_acc > bim_correct / 600


@st.composite
def geometries(draw):
    """TAGE geometries whose history lengths hit the fold-lane edge cases.

    Lengths are drawn shorter than a fold width (the window's out bit
    lands inside the lane), as exact multiples of one (the out bit lands on
    bit 0, where the new bit also enters) and freely.
    """
    index_bits = draw(st.integers(4, 11))
    tag_bits = draw(st.integers(4, 12))
    widths = (index_bits, tag_bits, tag_bits - 1)
    length = st.one_of(
        st.integers(1, min(widths) - 1),
        st.builds(lambda w, k: w * k, st.sampled_from(widths), st.integers(1, 12)),
        st.integers(1, 160),
    )
    lengths = draw(st.lists(length, min_size=1, max_size=6, unique=True))
    return {
        "base_entries": 1 << draw(st.integers(2, 12)),
        "table_entries": 1 << index_bits,
        "tag_bits": tag_bits,
        "history_lengths": tuple(sorted(lengths)),
    }


def _calls(seed: int, n_pcs: int, n_calls: int) -> list[tuple[int, int, bool]]:
    """A seeded random interleaving of ``(op, pc, taken)`` calls.

    ``op`` 0 is a wrong-path ``predict``, 1 a correct-path
    ``predict_update``, 2 a bare ``update``. Each pc's outcomes follow a
    short periodic pattern with a little noise, so tagged entries hit,
    providers disagree with their alternates and useful bits move —
    purely random outcomes would leave most of the update logic unused.
    """
    rng = random.Random(seed)
    pcs = [rng.randrange(1 << 20) * 4 for _ in range(n_pcs)]
    patterns = [[rng.random() < 0.6 for _ in range(rng.randint(1, 7))] for _ in pcs]
    trips = [0] * n_pcs
    calls = []
    for _ in range(n_calls):
        k = rng.randrange(n_pcs)
        op = rng.choices((0, 1, 2), weights=(3, 6, 1))[0]
        taken = patterns[k][trips[k] % len(patterns[k])]
        if rng.random() < 0.05:
            taken = not taken
        if op:
            trips[k] += 1
        calls.append((op, pcs[k], taken))
    return calls


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    geometry=geometries(),
    seed=st.integers(0, 2**32 - 1),
    n_pcs=st.integers(1, 12),
    aging_period=st.sampled_from((64, 1 << 18)),
)
def test_packed_tage_matches_reference(geometry, seed, n_pcs, aging_period):
    """Same predictions, history, tables and folds as the reference TAGE.

    A short aging period also exercises the useful-bit reset.
    """

    class Packed(TagePredictor):
        __slots__ = ()
        _USEFUL_RESET_PERIOD = aging_period

    class Reference(reference_tage.TagePredictor):
        _USEFUL_RESET_PERIOD = aging_period

    got = Packed(**geometry)
    want = Reference(**geometry)
    for op, pc, taken in _calls(seed, n_pcs, 1500):
        if op == 0:
            assert got.predict(pc) == want.predict(pc)
        elif op == 1:
            expected = want.predict(pc)
            want.update(pc, taken)
            assert got.predict_update(pc, taken) == expected
        else:
            got.update(pc, taken)
            want.update(pc, taken)
        assert got.history == want.history
    assert got.base == want.base
    index, tag0, tag1 = got._lanes
    for t, table in enumerate(want.tables):
        assert got.ctr[t] == table.ctr
        assert got.tag[t] == table.tag
        assert got.useful[t] == table.useful
        assert index.lane(got._fold_index, t) == table._f_index.value
        assert tag0.lane(got._fold_tag0, t) == table._f_tag0.value
        assert tag1.lane(got._fold_tag1, t) == table._f_tag1.value


def test_fold_lanes_hold_the_folded_history_window():
    """Each lane equals ``_fold`` of its table's history window."""
    p = TagePredictor(table_entries=64, tag_bits=7, history_lengths=(3, 6, 14, 50))
    for i in range(300):
        p.predict_update(0x400 + (i % 5) * 4, (i * 7) % 3 != 0)
    index, tag0, tag1 = p._lanes
    for t, length in enumerate(p.history_lengths):
        window = p.history & ((1 << length) - 1)
        assert index.lane(p._fold_index, t) == _fold(window, 6)
        assert tag0.lane(p._fold_tag0, t) == _fold(window, 7)
        assert tag1.lane(p._fold_tag1, t) == _fold(window, 6)


def test_predict_update_returns_the_prediction():
    p = TagePredictor()
    for i in range(200):
        pc = 0x100 + (i % 3) * 4
        expected = p.predict(pc)
        assert p.predict_update(pc, i % 4 != 0) == expected
