import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hdcam.hvcore import Rng
from hdcam.lta import LtaDecision, SensingSpec, argmin_serial, decide

UA = 1e-6


def _spec(**kw):
    return SensingSpec(**kw)


def _separated(n, rng, min_delta=0.21e-6):
    """Currents whose pairwise deltas all exceed the comparator resolution."""
    deltas = min_delta + rng.exponential(0.4e-6, size=n)
    values = np.cumsum(deltas)
    rng.shuffle(values)
    return values


class TestSensingSpec:
    def test_defaults(self):
        spec = _spec()
        assert spec.resolution == 0.2e-6 and spec.floor == 1e-9 and spec.batch == 8

    def test_resolution_floor_ordering(self):
        with pytest.raises(ValueError):
            _spec(resolution=1e-9, floor=2e-9)

    def test_batch_minimum(self):
        with pytest.raises(ValueError):
            _spec(batch=1)


class TestCompareBatch:
    """A single comparator batch: argmin_serial over 2..8 currents."""

    def test_picks_minimum(self, rng):
        assert argmin_serial([5 * UA, 3 * UA, 9 * UA], _spec(), rng).winner == 1

    def test_sub_resolution_pair_both_outcomes(self):
        currents = [1.0 * UA, 1.1 * UA, 5 * UA]
        winners = {argmin_serial(currents, _spec(), Rng(s)).winner for s in range(40)}
        assert winners == {0, 1}

    def test_exact_resolution_boundary_ambiguous(self):
        currents = [1.0 * UA, 1.2 * UA, 5 * UA]
        decisions = [argmin_serial(currents, _spec(), Rng(s)) for s in range(60)]
        assert {d.winner for d in decisions} == {0, 1}
        assert all(d.ambiguous_flags == 1 for d in decisions)

    def test_all_below_floor_uniform_choice(self):
        currents = [0.5e-9, 0.2e-9, 0.8e-9]
        winners = {argmin_serial(currents, _spec(), Rng(s)).winner for s in range(60)}
        assert winners == {0, 1, 2}


class TestArgminSerial:
    def test_single_row(self, rng):
        decision = argmin_serial([3 * UA], _spec(), rng)
        assert decision.winner == 0 and decision.trace == [] and decision.ambiguous_flags == 0

    def test_eight_separated_equals_argmin(self, rng):
        currents = _separated(8, Rng(1))
        decision = argmin_serial(currents, _spec(), rng)
        assert decision.winner == int(np.argmin(currents))
        assert len(decision.trace) == 1

    def test_twenty_rows_brute_force_oracle(self):
        for seed in range(20):
            currents = _separated(20, Rng(seed))
            decision = argmin_serial(currents, _spec(), Rng(99))
            assert decision.winner == int(np.argmin(currents))

    def test_nine_rows_two_batches(self, rng):
        # Nine rows: the first batch of 8, then its winner against the ninth.
        currents = _separated(9, Rng(2))
        decision = argmin_serial(currents, _spec(), rng)
        assert decision.winner == int(np.argmin(currents))
        assert [len(b.rows) for b in decision.trace] == [8, 2]

    def test_batching_structure(self, rng):
        currents = _separated(20, Rng(4))
        decision = argmin_serial(currents, _spec(), rng)
        assert decision.trace[0].rows == tuple(range(8))
        # subsequent batches carry the previous winner plus 7 fresh rows
        assert decision.trace[1].rows[0] == decision.trace[0].winner
        assert decision.trace[1].rows[1:] == tuple(range(8, 15))
        assert decision.trace[2].rows[0] == decision.trace[1].winner
        assert decision.trace[2].rows[1:] == tuple(range(15, 20))

    def test_carry_forward_min_never_loses(self):
        for seed in range(10):
            currents = _separated(30, Rng(seed))
            decision = argmin_serial(currents, _spec(), Rng(7))
            best = int(np.argmin(currents))
            seen = False
            for batch in decision.trace:
                if seen or best in batch.rows:
                    seen = True
                    assert batch.winner == best

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_exhaustive_permutations(self, n):
        base = _separated(n, Rng(n))
        spec = _spec()
        for perm in itertools.permutations(range(n)):
            currents = base[list(perm)]
            decision = argmin_serial(currents, spec, Rng(0))
            assert decision.winner == int(np.argmin(currents))
            assert decision.ambiguous_flags == 0

    def test_sampled_permutations_n10(self):
        base = _separated(10, Rng(3))
        gen = np.random.default_rng(5)
        for _ in range(300):
            perm = gen.permutation(10)
            decision = argmin_serial(base[perm], _spec(), Rng(1))
            assert decision.winner == int(np.argmin(base[perm]))

    def test_ambiguity_monotone_in_resolution(self):
        for seed in range(12):
            gen = np.random.default_rng(seed)
            currents = np.sort(gen.uniform(0, 30e-6, size=24))
            currents[5] = currents[4] + 0.05e-6  # planted close pair
            gen.shuffle(currents)
            flags = [
                argmin_serial(currents, _spec(resolution=r), Rng(11)).ambiguous_flags
                for r in (0.8e-6, 0.4e-6, 0.2e-6, 0.1e-6, 0.02e-6)
            ]
            assert all(b <= a for a, b in zip(flags, flags[1:]))

    def test_empty_input(self, rng):
        with pytest.raises(ValueError):
            argmin_serial([], _spec(), rng)

    def test_returns_decision_type(self, rng):
        assert isinstance(argmin_serial([1 * UA, 2 * UA], _spec(), rng), LtaDecision)


# A current on a grid of a quarter of the resolution, so that equal currents
# and sub-resolution pairs are common; or one below the sensing floor; or any.
CURRENT = st.one_of(
    st.integers(0, 60).map(lambda n: n * 0.05e-6),
    st.floats(0, 1e-9, exclude_max=True),
    st.floats(0, 30e-6),
)


@st.composite
def _matrices(draw):
    """(currents (q, k), spec): k = 1, k <= batch, and several stages all occur."""
    batch = draw(st.integers(2, 9))
    k = draw(st.integers(1, 40))
    q = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(CURRENT, min_size=k, max_size=k), min_size=q, max_size=q))
    spec = _spec(batch=batch, resolution=draw(st.sampled_from([0.2e-6, 1e-6, 0.01e-6])))
    return np.array(rows, dtype=np.float64).reshape(q, k), spec


class TestDecide:
    """decide senses a (q, k) matrix at once; it must match argmin_serial run
    query by query, draws included."""

    def _check(self, currents, spec, seed):
        rng, reference_rng = Rng(seed), Rng(seed)
        winners, flags = decide(currents, spec, rng)
        reference = [argmin_serial(row, spec, reference_rng) for row in currents]
        assert winners.tolist() == [d.winner for d in reference]
        assert flags.tolist() == [d.ambiguous_flags for d in reference]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        return flags

    @given(_matrices(), st.integers(0, 2**32 - 1))
    @example((np.array([[3 * UA], [0.0]]), _spec()), 0)  # k = 1: nothing to compare
    @example((np.array([[1.0 * UA, 1.1 * UA, 5 * UA], [2 * UA, 1 * UA, 5 * UA]]), _spec(batch=2)), 1)
    @example((np.full((3, 20), 0.5e-9), _spec()), 2)  # every current below the floor
    # A second-stage pair exactly one resolution apart is ambiguous.
    @example((np.array([[5 * UA + n * UA for n in range(8)] + [1.0 * UA, 1.2 * UA]]), _spec()), 3)
    def test_matches_per_query_argmin_serial(self, case, seed):
        self._check(*case, seed)

    def test_planted_ties_in_later_stages(self):
        # Separated rows with a sub-resolution pair planted in the last stage of
        # some queries: only those are re-run, and they draw in query order.
        gen = np.random.default_rng(8)
        currents = np.stack([_separated(30, Rng(s)) for s in range(50)])
        planted = gen.choice(50, size=10, replace=False)
        best = currents[planted].argmin(axis=1)
        currents[planted, 29] = currents[planted, best] + 0.05e-6
        flags = self._check(currents, _spec(), seed=4)
        assert set(np.flatnonzero(flags)) == set(planted)
