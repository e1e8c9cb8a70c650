import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routedp import (DEPOT, Instance, ProblemKind, euclidean_cost_matrix,
                     generate_tsp, generate_tsptw, generate_vrp,
                     read_instance, write_instance)
from routedp.instances import InstanceFormatError, capacity_for_size


class TestEuclideanCosts:
    def test_three_four_five_triangle(self):
        c = euclidean_cost_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert c[0, 1] == 5.0
        assert c[1, 0] == 5.0

    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        c = euclidean_cost_matrix(rng.random((7, 2)))
        assert np.all(np.diag(c) == 0)

    def test_unit_right_triangle(self):
        c = euclidean_cost_matrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert c[1, 2] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        c = euclidean_cost_matrix(rng.random((10, 2)))
        assert np.array_equal(c, c.T)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert c[i, j] <= c[i, k] + c[k, j] + 1e-12


class TestGenerators:
    def test_tsp_range(self):
        inst = generate_tsp(100, seed=0)
        assert inst.coords.shape == (100, 2)
        assert np.all((inst.coords >= 0) & (inst.coords <= 1))

    def test_tsp_determinism(self):
        a, b = generate_tsp(5, seed=7), generate_tsp(5, seed=7)
        assert np.array_equal(a.coords, b.coords)

    def test_tsp_seed_sensitivity(self):
        a, b = generate_tsp(5, seed=7), generate_tsp(5, seed=8)
        assert not np.array_equal(a.coords, b.coords)

    def test_vrp_capacity_and_demands(self):
        inst = generate_vrp(100, seed=0)
        assert inst.capacity == 50
        assert inst.demands[DEPOT] == 0
        assert np.all(inst.demands[1:] >= 1)
        assert np.all(inst.demands[1:] <= 9)
        assert np.all(inst.demands[1:] == inst.demands[1:].astype(int))

    def test_vrp_capacity_table(self):
        assert generate_vrp(20, seed=3).capacity == 30
        assert capacity_for_size(10) == 20
        assert capacity_for_size(50) == 40
        # interpolated and clamped between/outside the anchors
        assert capacity_for_size(15) == 25
        assert capacity_for_size(5) == 20
        assert capacity_for_size(200) == 50

    def test_tsptw_window_invariants(self):
        inst = generate_tsptw(20, seed=0, max_window=1000.0)
        tw = inst.time_windows
        assert np.all(tw[:, 0] >= 0)
        assert np.all(tw[:, 0] <= tw[:, 1])
        assert tw[DEPOT, 0] == 0
        assert math.isinf(tw[DEPOT, 1])
        assert np.all((inst.coords >= 0) & (inst.coords <= 100))

    def test_tsptw_narrow_windows_are_narrower(self):
        widths = {100.0: [], 1000.0: []}
        for mw in widths:
            for seed in range(100):
                tw = generate_tsptw(20, seed=seed, max_window=mw).time_windows
                widths[mw].append(np.mean(tw[1:, 1] - tw[1:, 0]))
        assert np.mean(widths[100.0]) < np.mean(widths[1000.0])

    @pytest.mark.parametrize("max_window", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_tsptw_max_window_must_be_finite_and_positive(self, max_window):
        with pytest.raises(ValueError, match="max_window must be finite and positive"):
            generate_tsptw(5, seed=0, max_window=max_window)

    def test_tsptw_generated_instances_are_feasible(self):
        from routedp import exact_dp
        for seed in range(10):
            inst = generate_tsptw(8, seed=seed)
            assert exact_dp(inst).feasible


class TestValidation:
    def test_vrp_requires_demands_and_capacity(self):
        with pytest.raises(ValueError):
            Instance(ProblemKind.VRP, np.zeros((3, 2)) + np.arange(3)[:, None])

    def test_depot_demand_must_be_zero(self):
        with pytest.raises(ValueError, match="depot demand"):
            Instance(ProblemKind.VRP, np.arange(6.0).reshape(3, 2),
                     demands=np.array([1.0, 2.0, 2.0]), capacity=5.0)

    def test_demand_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            Instance(ProblemKind.VRP, np.arange(6.0).reshape(3, 2),
                     demands=np.array([0.0, 9.0, 2.0]), capacity=5.0)

    def test_window_l_above_u_rejected(self):
        tw = np.array([[0.0, math.inf], [5.0, 2.0], [0.0, 9.0]])
        with pytest.raises(ValueError, match="node 1"):
            Instance(ProblemKind.TSPTW, np.arange(6.0).reshape(3, 2), time_windows=tw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coords_rejected(self, bad):
        coords = np.arange(6.0).reshape(3, 2)
        coords[1, 0] = bad
        with pytest.raises(ValueError, match="coords must be finite"):
            Instance(ProblemKind.TSP, coords)

    @pytest.mark.parametrize("coords", [[[0, 0], [1e308, 1e308], [-1e308, 0]],
                                        [[0, 0], [1e200, 0]],
                                        [[0, 0], [1e154, 0], [0, 1e154]]])
    def test_overflowing_distance_rejected(self, coords):
        with pytest.raises(ValueError, match="a pairwise distance overflows"):
            Instance(ProblemKind.TSP, coords)

    def test_distances_near_overflow_accepted(self):
        # The bounding box diagonal overflows, but no pairwise distance does.
        inst = Instance(ProblemKind.TSP, [[0, 0], [1.1e154, 0], [0.55e154, 1.1e154]])
        assert np.isfinite(inst.cost_matrix()).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_demand_rejected(self, bad):
        with pytest.raises(ValueError, match="demands must be finite"):
            Instance(ProblemKind.VRP, np.arange(6.0).reshape(3, 2),
                     demands=np.array([0.0, bad, 2.0]), capacity=5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_capacity_rejected(self, bad):
        with pytest.raises(ValueError, match="capacity must be finite"):
            Instance(ProblemKind.VRP, np.arange(6.0).reshape(3, 2),
                     demands=np.array([0.0, 1.0, 2.0]), capacity=bad)

    @pytest.mark.parametrize("window", [(math.nan, 9.0), (1.0, math.nan),
                                        (math.inf, math.inf), (-math.inf, 9.0)])
    def test_nan_or_infinite_lower_window_rejected(self, window):
        tw = np.array([[0.0, math.inf], window, [0.0, 9.0]])
        with pytest.raises(ValueError, match="node 1 has a non-finite lower bound"):
            Instance(ProblemKind.TSPTW, np.arange(6.0).reshape(3, 2), time_windows=tw)

    def test_infinite_upper_window_accepted(self):
        tw = np.array([[0.0, math.inf], [1.0, math.inf], [0.0, 9.0]])
        inst = Instance(ProblemKind.TSPTW, np.arange(6.0).reshape(3, 2), time_windows=tw)
        assert math.isinf(inst.time_windows[1, 1])

    def test_tsp_rejects_extra_fields(self):
        with pytest.raises(ValueError):
            Instance(ProblemKind.TSP, np.arange(6.0).reshape(3, 2), capacity=5.0)

    def test_instances_are_immutable(self):
        inst = generate_tsp(5, seed=0)
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 9.0


class TestInstanceIO:
    def test_vrp_round_trip_identical(self, tmp_path):
        inst = generate_vrp(100, seed=0)
        path = tmp_path / "vrp100.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.kind == inst.kind
        assert np.array_equal(back.coords, inst.coords)
        assert np.array_equal(back.demands, inst.demands)
        assert back.capacity == inst.capacity

    def test_tsptw_round_trip_with_infinite_window(self, tmp_path):
        inst = generate_tsptw(10, seed=1)
        path = tmp_path / "t.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.time_windows, inst.time_windows)
        assert math.isinf(back.time_windows[DEPOT, 1])

    def test_missing_capacity_is_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0,1]}')
        with pytest.raises(InstanceFormatError, match="capacity"):
            read_instance(path)

    def test_nan_coordinate_is_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "tsp", "coords": [[0, 0], [NaN, 1], [2, 2]]}')
        with pytest.raises(InstanceFormatError, match="coords must be finite"):
            read_instance(path)

    def test_overflowing_distance_is_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "tsp", "coords": [[0, 0], [1e308, 1e308], [-1e308, 0]]}')
        with pytest.raises(InstanceFormatError, match="distance overflows") as err:
            read_instance(path)
        assert str(path) in str(err.value)

    def test_inverted_window_is_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "tsptw", "coords": [[0,0],[1,1]],'
                        ' "time_windows": [[0, null], [5, 2]]}')
        with pytest.raises(InstanceFormatError, match="l > u"):
            read_instance(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "tsp",\n!!!')
        with pytest.raises(InstanceFormatError, match="line 2"):
            read_instance(path)

    @pytest.mark.parametrize("body,match", [
        (b'\xff\xfe{"problem": "tsp"}', "not UTF-8 text"),
        (b'{"problem": "tsp", "coords": [[0, 0], [1, 1]], "x": ' + b"[" * 100_000
         + b"]" * 100_000 + b"}", "nested too deeply"),
        (b'{"problem": "tsp", "coords": ' + b"[" * 990 + b"]" * 990 + b"}", "bad.json"),
    ], ids=["not-utf8", "nested-too-deeply", "deep-coords"])
    def test_unreadable_file_is_reported_with_its_path(self, tmp_path, body, match):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        with pytest.raises(InstanceFormatError, match=match) as err:
            read_instance(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("body,match", [
        ('{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0,1], "capacity": "5"}',
         "capacity"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [1, 2]}',
         "time_windows"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[0], [0, 1]]}',
         "time_windows"),
        ('{"problem": "tsp", "coords": {"x": 1}}', "bad.json"),
        ('{"problem": "tsp", "coords": [[0, 0], [1' + "0" * 400 + ', 1]]}', "too large"),
        ('{"problem": "vrp", "coords": [[0, 0], [1, 1]], "demands": [0, 1],'
         ' "capacity": 1' + "0" * 400 + '}', "too large"),
    ])
    def test_wrongly_typed_field_is_reported(self, tmp_path, body, match):
        path = tmp_path / "bad.json"
        path.write_text(body)
        with pytest.raises(InstanceFormatError, match=match) as err:
            read_instance(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("body,key", [
        ('{"problem": "tsp", "coords": [[0, 0], [1, "1"]]}', "coords"),
        ('{"problem": "tsp", "coords": [[0, 0], [1, true]]}', "coords"),
        ('{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0, "1"], "capacity": 5}',
         "demands"),
        ('{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0, true], "capacity": 5}',
         "demands"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[0, null], ["0", 5]]}',
         "time_windows"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[0, null], [0, false]]}',
         "time_windows"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[null, null], [0, 5]]}',
         "time_windows"),
    ])
    def test_non_number_value_is_reported(self, tmp_path, body, key):
        path = tmp_path / "bad.json"
        path.write_text(body)
        with pytest.raises(InstanceFormatError, match=f"'{key}' holds .* not a number"):
            read_instance(path)

    @pytest.mark.parametrize("body,key", [
        ('{"problem": "tsp", "coords": [[0,0],[1,1]], "demands": [0, "x"], "capacity": "five",'
         ' "time_windows": 7}', "demands"),
        ('{"problem": "tsp", "coords": [[0,0],[1,1]], "capacity": 5}', "capacity"),
        ('{"problem": "tsp", "coords": [[0,0],[1,1]], "time_windows": [[0, null], [0, 5]]}',
         "time_windows"),
        ('{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0,1], "capacity": 5,'
         ' "time_windows": [[0, null], [0, 5]]}', "time_windows"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[0, null], [0, 5]],'
         ' "demands": [0, 1]}', "demands"),
        ('{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [[0, null], [0, 5]],'
         ' "capacity": 5}', "capacity"),
    ])
    def test_another_problems_field_is_rejected(self, tmp_path, body, key):
        path = tmp_path / "bad.json"
        path.write_text(body)
        with pytest.raises(InstanceFormatError, match=f"unexpected field '{key}'"):
            read_instance(path)

    @pytest.mark.parametrize("generate,fields", [
        (generate_tsp, set()),
        (generate_vrp, {"demands", "capacity"}),
        (generate_tsptw, {"time_windows"}),
    ])
    def test_written_fields_are_the_problems_own(self, tmp_path, generate, fields):
        path = tmp_path / "inst.json"
        write_instance(generate(5, seed=0), path)
        assert set(json.loads(path.read_text())) == {"problem", "coords"} | fields

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "mstp", "coords": [[0,0],[1,1]]}')
        with pytest.raises(InstanceFormatError, match="mstp"):
            read_instance(path)


# Any JSON value, and number rows shaped like coords or windows (with values
# past float range, or whose distances overflow), so that drawn files also
# reach the checks past the field types.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)
NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -1e308, 1e308])
FIELD_VALUES = JSON_VALUES | NUMBERS | st.lists(NUMBERS | st.none(), max_size=4) | st.lists(
    st.lists(NUMBERS | st.none(), min_size=2, max_size=2), max_size=4)
FIELDS = {"tsp": ("coords",), "vrp": ("coords", "demands", "capacity"),
          "tsptw": ("coords", "time_windows")}
# Each problem with its own fields, or any problem value with any fields.
INSTANCE_OBJECTS = st.one_of(
    *(st.fixed_dictionaries({"problem": st.just(p), **{k: FIELD_VALUES for k in own}})
      for p, own in FIELDS.items()),
    st.fixed_dictionaries({"problem": st.sampled_from(list(FIELDS)) | JSON_VALUES},
                          optional={k: FIELD_VALUES for k in FIELDS["vrp"] + FIELDS["tsptw"]}))


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.json"


@settings(max_examples=400, deadline=None)
@given(INSTANCE_OBJECTS)
def test_any_field_value_loads_or_raises_the_format_error(instance_file, obj):
    instance_file.write_text(json.dumps(obj), encoding="utf-8")
    try:
        assert isinstance(read_instance(instance_file), Instance)
    except InstanceFormatError:
        pass
