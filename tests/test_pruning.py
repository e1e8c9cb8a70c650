import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import routedp.pruning as pruning
from helpers import naive_pareto, naive_single_best, random_candidate_groups
from routedp.pruning import prune_pareto_front

INT64_MAX = int(np.iinfo(np.int64).max)

# Ways to spell the DP states 0..k-1 of random_candidate_groups as state ids:
# dense ordinals, sparse group * n + target ids with n = 1000, ids near 2**61
# (folding a cost rank into them would pass 2**62, so the key is re-ranked
# first) and ids at the top of the int64 range.
STATE_LAYOUTS = {
    "dense": lambda rng, k: np.arange(k, dtype=np.int64),
    "sparse": lambda rng, k: rng.choice(500 * 1000, size=k, replace=False).astype(np.int64),
    "near_2_61": lambda rng, k: (1 << 61) - 3 + rng.permutation(k).astype(np.int64),
    "int64_top": lambda rng, k: INT64_MAX - rng.permutation(k).astype(np.int64),
}


def candidates(rng, layout, n_states=12):
    """random_candidate_groups with relabelled states, unique actions (so
    no two rows tie on every key) and shuffled rows."""
    state, cost, obj, _, slot, score, is_direct = random_candidate_groups(rng, n_states)
    state = STATE_LAYOUTS[layout](rng, n_states)[state]
    action = rng.permutation(state.size).astype(np.int64)
    p = rng.permutation(state.size)
    return tuple(a[p] for a in (state, cost, obj, action, slot, score, is_direct))


def arrays(*rows):
    """Build flat candidate columns from (state, cost, obj, ...) tuples."""
    cols = list(zip(*rows))
    return [np.array(c, dtype=float) if any(isinstance(x, float) for x in c)
            else np.array(c, dtype=np.int64) for c in cols]


class TestSingleBest:
    def test_min_cost_wins(self):
        state, cost = arrays((0, 5.0), (0, 7.0))
        keep = prune_pareto_front(state, cost)
        assert keep.tolist() == [True, False]

    def test_distinct_states_all_survive(self):
        state, cost = arrays((0, 5.0), (1, 7.0), (2, 1.0))
        assert prune_pareto_front(state, cost).all()

    def test_exact_tie_resolved_by_tie_keys(self):
        state = np.zeros(3, dtype=np.int64)
        cost = np.array([4.0, 4.0, 4.0])
        slot = np.array([2, 0, 1])
        score = np.array([1.0, 1.0, 9.0])
        # higher score first, then lower slot: candidate 2 wins
        keep = prune_pareto_front(state, cost, tie_keys=(slot, -score))
        assert keep.tolist() == [False, False, True]

    def test_empty_input(self):
        e = np.empty(0, dtype=np.int64)
        assert prune_pareto_front(e, np.empty(0)).shape == (0,)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            state, cost, _, _, slot, score, _ = random_candidate_groups(rng, 12)
            got = prune_pareto_front(state, cost, tie_keys=(slot, -score))
            want = naive_single_best(state, cost, slot, score)
            np.testing.assert_array_equal(got, want)


class TestParetoFront:
    def test_strict_domination(self):
        state, cost, cap = arrays((0, 5.0, 3.0), (0, 6.0, 2.0))
        keep = prune_pareto_front(state, cost, cap)
        assert keep.tolist() == [True, False]

    def test_incomparable_pair_both_kept(self):
        state, cost, cap = arrays((0, 5.0, 2.0), (0, 6.0, 3.0))
        assert prune_pareto_front(state, cost, cap).all()

    def test_equal_cost_higher_objective_wins(self):
        state, cost, cap = arrays((0, 5.0, 2.0), (0, 5.0, 3.0))
        keep = prune_pareto_front(state, cost, cap)
        assert keep.tolist() == [False, True]

    def test_exact_tie_keeps_one(self):
        state = np.zeros(2, dtype=np.int64)
        cost = np.array([5.0, 5.0])
        cap = np.array([3.0, 3.0])
        pref = np.array([1, 0])
        keep = prune_pareto_front(state, cost, cap, tie_keys=(pref,))
        assert keep.tolist() == [False, True]

    def test_matches_naive_oracle_with_via_preference(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            state, cost, obj, action, slot, score, is_direct = \
                random_candidate_groups(rng, 10)
            got = prune_pareto_front(state, cost, obj,
                                     tie_keys=(action, slot, -score, is_direct))
            want = naive_pareto(state, cost, obj, action, slot, score, is_direct)
            np.testing.assert_array_equal(got, want)

    def test_matches_naive_oracle_time_variant(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            state, cost, obj, action, slot, score, _ = \
                random_candidate_groups(rng, 10)
            got = prune_pareto_front(state, cost, -obj,
                                     tie_keys=(action, slot, -score))
            want = naive_pareto(state, cost, -obj, action, slot, score)
            np.testing.assert_array_equal(got, want)


class TestFoldedOrder:
    """The folded-key order against the naive oracles, on inputs that reach
    every branch of the fold: shuffled rows, sparse and huge state ids,
    exact ties with and without tie keys, one row and identical rows."""

    @pytest.mark.parametrize("layout", sorted(STATE_LAYOUTS))
    def test_single_best_matches_oracle(self, layout):
        rng = np.random.default_rng(3)
        for trial in range(50):
            state, cost, _, _, slot, score, _ = candidates(rng, layout)
            got = prune_pareto_front(state, cost, tie_keys=(slot, -score))
            np.testing.assert_array_equal(got, naive_single_best(state, cost, slot, score))

    @pytest.mark.parametrize("layout", sorted(STATE_LAYOUTS))
    def test_pareto_matches_oracle(self, layout):
        rng = np.random.default_rng(4)
        for trial in range(50):
            state, cost, obj, action, slot, score, is_direct = candidates(rng, layout)
            got = prune_pareto_front(state, cost, obj,
                                     tie_keys=(action, slot, -score, is_direct))
            want = naive_pareto(state, cost, obj, action, slot, score, is_direct)
            np.testing.assert_array_equal(got, want)

    def test_huge_state_ids_are_reranked_before_folding(self, monkeypatch):
        # With three cost ranks, state * 3 + 2 would pass 2**63 - 1 and wrap
        # to the front of the order, splitting state `big` in two.
        big = (1 << 63) // 3
        state = np.array([big, big, big, big + 1])
        cost = np.array([3.0, 1.0, 2.0, 1.0])
        calls = []
        rank = pruning._dense_rank
        monkeypatch.setattr(pruning, "_dense_rank", lambda x: calls.append(x.dtype) or rank(x))
        assert prune_pareto_front(state, cost).tolist() == [False, True, False, True]
        assert calls == [np.float64, np.int64]
        assert prune_pareto_front(state, cost, np.ones(4)).tolist() == [False, True, False, True]

    @pytest.mark.parametrize("layout", sorted(STATE_LAYOUTS))
    def test_no_tie_keys_earliest_row_wins(self, layout):
        rng = np.random.default_rng(5)
        for trial in range(50):
            state, cost, obj, *_ = candidates(rng, layout)
            rows = np.arange(state.size)
            zeros = np.zeros(state.size)
            np.testing.assert_array_equal(prune_pareto_front(state, cost),
                                          naive_single_best(state, cost, rows, zeros))
            np.testing.assert_array_equal(prune_pareto_front(state, cost, obj),
                                          naive_pareto(state, cost, obj, rows, zeros, zeros))

    def test_one_row(self):
        one = np.array([7], dtype=np.int64)
        assert prune_pareto_front(one, np.array([2.0]), tie_keys=(one,)).tolist() == [True]
        assert prune_pareto_front(one, np.array([2.0]), np.array([1.0]),
                                  tie_keys=(one,)).tolist() == [True]

    @pytest.mark.parametrize("tie_keys", [(), (np.zeros(5), np.ones(5))])
    def test_identical_rows_keep_the_first(self, tie_keys):
        state = np.full(5, 1 << 61, dtype=np.int64)
        cost = np.full(5, 2.5)
        want = [True, False, False, False, False]
        assert prune_pareto_front(state, cost, tie_keys=tie_keys).tolist() == want
        assert prune_pareto_front(state, cost, -cost, tie_keys=tie_keys).tolist() == want


@st.composite
def candidate_rows(draw):
    ids = draw(st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=4, unique=True))
    m = draw(st.integers(1, 16))
    grid = st.integers(0, 3)
    col = lambda: np.array(draw(st.lists(grid, min_size=m, max_size=m)), dtype=float)
    state = np.array(ids, dtype=np.int64)[draw(st.lists(
        st.integers(0, len(ids) - 1), min_size=m, max_size=m))]
    action = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    return state, col() / 3.0, col() / 7.0, action, col().astype(np.int64), col() / 5.0


@settings(max_examples=300, deadline=None)
@given(candidate_rows())
def test_kernels_match_oracles_property(rows):
    state, cost, obj, action, slot, score = rows
    np.testing.assert_array_equal(
        prune_pareto_front(state, cost, tie_keys=(slot, -score)),
        naive_single_best(state, cost, slot, score))
    np.testing.assert_array_equal(
        prune_pareto_front(state, cost, obj, tie_keys=(action, slot, -score)),
        naive_pareto(state, cost, obj, action, slot, score))


@settings(max_examples=300, deadline=None)
@given(candidate_rows())
def test_no_objective_is_a_constant_objective_property(rows):
    # TSP dominance is the Pareto front with no resource, i.e. a constant one.
    state, cost, _, _, slot, score = rows
    got = prune_pareto_front(state, cost, tie_keys=(slot, -score))
    np.testing.assert_array_equal(
        got, prune_pareto_front(state, cost, np.zeros_like(cost), tie_keys=(slot, -score)))
    np.testing.assert_array_equal(got, naive_single_best(state, cost, slot, score))
