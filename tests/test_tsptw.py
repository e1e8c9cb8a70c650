"""TSPTW expansion: the vectorized one-step lookahead against the per-row
oracle, and full-beam exactness against the exact DP."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_tsptw_kept
from routedp import Heatmap, Policy, ProblemKind, SolverConfig, exact_dp, generate_tsptw, solve
from routedp.instances import Instance
from routedp.policy import build_policy_tables
from routedp.solver import Beam, _Context, expand_tsptw, group_by_visited


def tsptw_context(coords, time_windows, adj=None):
    inst = Instance(ProblemKind.TSPTW, np.asarray(coords, dtype=float),
                    time_windows=np.asarray(time_windows, dtype=float))
    n, costs = inst.n, inst.cost_matrix()
    heat = Heatmap(np.full((n, n), 0.5) - 0.5 * np.eye(n))
    tables = build_policy_tables(heat, costs, inst.kind)
    if adj is None:
        adj = ~np.eye(n, dtype=bool)
    return _Context(inst, costs, adj, tables, SolverConfig(beam_size=8))


def tsptw_beam(n, rows):
    """Beam of (visited customers, current node, time) rows, depot visited."""
    m = len(rows)
    visited = np.zeros((m, n), dtype=bool)
    visited[:, 0] = True
    for r, (customers, _, _) in enumerate(rows):
        visited[r, list(customers)] = True
    current = np.array([cur for _, cur, _ in rows], dtype=np.int64)
    time = np.array([t for _, _, t in rows], dtype=float)
    zeros = np.zeros(m)
    return Beam(zeros, current, zeros, visited, time, np.arange(m, dtype=np.int64))


def expand_and_oracle(ctx, beam):
    beam, groups = group_by_visited(beam)
    cand = expand_tsptw(beam, groups, ctx)
    got = list(zip(cand.parent_pos.tolist(), cand.target.tolist(), cand.extra.tolist()))
    want = naive_tsptw_kept(beam.visited, beam.current, beam.extra, ctx.adj, ctx.costs,
                            ctx.instance.time_windows)
    return got, want


class TestLookahead:
    # Depot at the origin, A at (10, 0) with the earliest deadline 12, B at
    # (-10, 0) and C at (0, 5) with a late deadline.  From the depot at time
    # 0, A is reached at 10 and B is then reached at 30.
    COORDS = [[0.0, 0.0], [10.0, 0.0], [-10.0, 0.0], [0.0, 5.0]]

    @pytest.mark.parametrize("u_b, a_kept", [(31.0, True), (29.0, False)])
    def test_earliest_deadline_target_needs_the_next_deadline(self, u_b, a_kept):
        tw = [[0.0, math.inf], [0.0, 12.0], [0.0, u_b], [0.0, 1000.0]]
        ctx = tsptw_context(self.COORDS, tw)
        got, want = expand_and_oracle(ctx, tsptw_beam(4, [((), 0, 0.0)]))
        assert got == want
        assert (1 in [t for _, t, _ in got]) == a_kept

    def test_equal_deadlines_fold_every_unvisited_node(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
        tw = [[0.0, math.inf]] + [[0.0, 6.0]] * 4
        ctx = tsptw_context(coords, tw)
        rows = [((1,), 1, 1.0), ((2,), 2, 2.0), ((1,), 1, 1.5), ((4,), 4, 4.0)]
        got, want = expand_and_oracle(ctx, tsptw_beam(5, rows))
        assert got == want
        assert got   # the lookahead keeps some moves and drops others
        assert len(got) < 3 * len(rows)

    def test_last_two_steps(self):
        tw = [[0.0, math.inf], [0.0, 12.0], [0.0, 40.0], [0.0, 1000.0]]
        ctx = tsptw_context(self.COORDS, tw)
        one_left = tsptw_beam(4, [((1, 2), 2, 30.0), ((1, 2), 1, 10.0), ((1, 3), 3, 25.0)])
        got, want = expand_and_oracle(ctx, one_left)
        assert got == want and len(got) == 3
        none_left = tsptw_beam(4, [((1, 2, 3), 3, 50.0)])
        got, want = expand_and_oracle(ctx, none_left)
        assert got == want == []

    def test_infinite_deadlines_and_coincident_points(self):
        # Customers 1-3 share a point 5 from the depot, so costs among them are 0.
        coords = [[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]
        tw = [[0.0, math.inf], [0.0, 5.0], [0.0, math.inf], [0.0, 5.0]]
        ctx = tsptw_context(coords, tw)
        got, want = expand_and_oracle(ctx, tsptw_beam(4, [((), 0, 0.0), ((), 0, 0.5)]))
        assert got == want == [(0, 1, 5.0), (0, 2, 5.0), (0, 3, 5.0)]


@st.composite
def tsptw_beams(draw):
    """A random TSPTW instance, adjacency and beam in which every row has
    visited the same number of customers, as at one solver step."""
    n = draw(st.integers(2, 12))
    grid = st.integers(0, 3)   # a coarse grid: coincident points and zero costs
    coords = np.array(draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n)),
                      dtype=float) * 10.0
    deadline = st.one_of(st.just(math.inf), st.integers(0, 90).map(float))
    if draw(st.booleans()):   # one shared deadline: every unvisited node folds
        hi = np.full(n, draw(deadline))
    else:
        hi = np.array(draw(st.lists(deadline, min_size=n, max_size=n)))
    lo = np.minimum(hi, draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    lo[0] = 0.0
    if draw(st.booleans()):
        adj = ~np.eye(n, dtype=bool)
    else:
        adj = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        adj = adj.reshape(n, n) & ~np.eye(n, dtype=bool)
    k = draw(st.integers(0, n - 1))   # visited customers; n - 1 - k left
    subset = st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True)
    sets = draw(st.lists(subset, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        customers = draw(st.sampled_from(sets))
        current = draw(st.sampled_from(customers)) if customers else 0
        rows.append((customers, current, float(draw(st.integers(0, 60)))))
    return tsptw_context(coords, np.column_stack([lo, hi]), adj), tsptw_beam(n, rows)


@settings(max_examples=400, deadline=None)
@given(tsptw_beams())
def test_lookahead_matches_per_row_oracle(case):
    ctx, beam = case
    got, want = expand_and_oracle(ctx, beam)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**16),
       max_window=st.floats(20.0, 1000.0), shrink=st.floats(0.5, 1.0),
       policy=st.sampled_from(list(Policy)))
def test_full_beam_matches_exact_dp(n, seed, max_window, shrink, policy):
    # Shrunk deadlines make some instances infeasible; both must agree on those.
    base = generate_tsptw(n, seed=seed, max_window=max_window)
    tw = base.time_windows.copy()
    tw[1:, 1] *= shrink
    tw[1:, 0] = np.minimum(tw[1:, 0], tw[1:, 1])
    inst = Instance(ProblemKind.TSPTW, base.coords, time_windows=tw)
    ref = exact_dp(inst)
    res = solve(inst, SolverConfig(beam_size=n * 2**n, threshold=0.0, policy=policy))
    assert res.found == ref.feasible
    if ref.feasible:
        assert abs(res.solution.cost - ref.optimal_cost) <= 1e-9
