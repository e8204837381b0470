import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshrink.cost import (
    CO2_LBS_PER_GPU_HOUR,
    LATENCY_TABLE_FORMAT,
    LatencyTable,
    MacModel,
    co2_estimate,
    interpolate_latency,
    layer_macs,
    synthetic_latency_table,
    total_resource,
)
from netshrink.errors import LookupMissError, NetshrinkError, ParseError, TableError
from netshrink.supernet import LayerSpec, SubNetChoice, full_width_choice, spatial_flow

from reference import count_conv_taps


TABLE_META = {"format": LATENCY_TABLE_FORMAT}


def stride1_specs():
    return [
        LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
        LayerSpec(index=1, c=8, t=8, k_max=3, stride=1),
        LayerSpec(index=2, c=8, t=4, k_max=3, stride=1),
    ]


class TestLayerMacs:
    def test_closed_form(self):
        assert layer_macs(8, 16, 3, 8, 8) == 73_728

    def test_zero_width_is_free(self):
        assert layer_macs(8, 0, 3, 8, 8) == 0

    def test_matches_tap_counting_oracle(self):
        for c, m, k, h, w in [(3, 8, 5, 8, 8), (8, 4, 3, 4, 4), (2, 1, 3, 5, 7)]:
            assert layer_macs(c, m, k, h, w) == count_conv_taps(c, m, k, h, w)

    def test_network_total_matches_oracle(self):
        specs = stride1_specs()
        model = MacModel(specs, (8, 8))
        choice = full_width_choice(specs)
        spatial = spatial_flow(specs, (8, 8))
        want = sum(
            count_conv_taps(s.c, m, k, *spatial[i + 1])
            for i, (s, (m, k)) in enumerate(zip(specs, choice.pairs))
        )
        assert total_resource(choice, model) == want


class TestCo2:
    def test_paper_figures(self):
        assert co2_estimate(397) == 113
        assert co2_estimate(2304) == 655
        assert co2_estimate(0) == 0

    def test_ratio(self):
        assert abs(CO2_LBS_PER_GPU_HOUR - 0.2844) <= 1e-4

    def test_negative_hours_rejected(self):
        for hours in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and >= 0"):
                co2_estimate(hours)


class TestInterpolation:
    table = {3: {0: 0.0, 4: 2.0, 8: 6.0}}

    def test_grid_point_exact(self):
        assert interpolate_latency(self.table, 4, 3) == 2.0

    def test_midpoint_is_mean(self):
        assert interpolate_latency(self.table, 6, 3) == pytest.approx(4.0)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(LookupMissError):
            interpolate_latency(self.table, 4, 5)

    def test_out_of_range_width_rejected(self):
        with pytest.raises(LookupMissError):
            interpolate_latency(self.table, 9, 3)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=3, max_size=6),
        st.integers(0, 100),
    )
    def test_monotone_table_gives_monotone_interpolant(self, increments, q):
        ms = [0, 2, 5, 9, 12, 16][: len(increments)]
        vals = np.cumsum(increments)
        table = {3: dict(zip(ms, vals))}
        lo, hi = ms[0], ms[-1]
        q1 = lo + (hi - lo) * (q / 100)
        q2 = lo + (hi - lo) * min(1.0, q / 100 + 0.07)
        assert interpolate_latency(table, q1, 3) <= interpolate_latency(table, q2, 3) + 1e-12


class TestLatencyTable:
    def test_single_layer_total_equals_entry(self):
        specs = stride1_specs()[:1]
        table = synthetic_latency_table(specs, (8, 8), seed=1)
        choice = SubNetChoice(((8, 5),))
        assert total_resource(choice, table) == table.layers[0][5][8]

    def test_all_zero_width_choice_costs_nothing(self):
        specs = stride1_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=2)
        choice = SubNetChoice(((0, 3), (0, 3), (0, 3)))
        assert total_resource(choice, table) == 0.0

    def test_random_choice_matches_summation_oracle(self):
        specs = stride1_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            pairs = tuple(
                (int(rng.choice(s.width_grid)), int(rng.choice(s.kernel_grid))) for s in specs
            )
            choice = SubNetChoice(pairs)
            brute = sum(
                table.layers[i][k if m > 0 else min(table.layers[i])][m]
                for i, (m, k) in enumerate(pairs)
            )
            assert total_resource(choice, table) == pytest.approx(brute)

    def test_missing_entry_names_layer_and_point(self):
        table = LatencyTable({0: {3: {4: 1.0}}})
        with pytest.raises(LookupMissError, match=r"layer 0.*M=2, k=3"):
            table.layer_cost(0, 2, 3)

    def test_synthetic_table_validates(self):
        specs = [
            LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
            LayerSpec(index=1, c=8, t=8, k_max=3, stride=2),
        ]
        table = synthetic_latency_table(specs, (8, 8), seed=4)
        table.validate_against(specs)

    def test_validation_catches_nonmonotone(self):
        specs = stride1_specs()[:1]
        for axis in ("M", "k"):
            table = synthetic_latency_table(specs, (8, 8), seed=5)
            by_m = table.layers[0][3]
            if axis == "M":
                by_m[max(by_m)] = 0.0  # the widest entry at kernel 3 costs nothing
            else:
                table.layers[0][5] = {m: ms / 2 for m, ms in by_m.items()}  # k=5 at half k=3's cost
            with pytest.raises(TableError, match=f"latency not non-decreasing in {axis}") as info:
                table.validate_against(specs)
            assert isinstance(info.value, ValueError)  # what the benchmark's table check catches

    def test_validation_catches_nonzero_removal(self):
        specs = stride1_specs()[:1]
        table = synthetic_latency_table(specs, (8, 8), seed=6)
        for k in table.layers[0]:
            table.layers[0][k][0] = 0.5
        with pytest.raises(TableError, match="M=0"):
            table.validate_against(specs)

    def test_file_round_trip(self, tmp_path):
        specs = stride1_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=7, interpolate=True)
        path = tmp_path / "latency.json"
        table.save(path)
        loaded = LatencyTable.load(path)
        assert loaded.layers == table.layers
        assert loaded.interpolate is True
        # file shape is {layer_index: {k: {M: ms}}} with string-keyed integers
        raw = json.loads(path.read_text())
        assert "0" in raw and "3" in raw["0"]
        assert all(isinstance(key, str) for key in raw["0"]["3"])

    @pytest.mark.parametrize(
        "payload,field",
        [
            ([{"0": {}}], ": must be a JSON object, got list"),
            ({"0": {"3": {"4": 1.0}}}, "field 'meta.format' must be"),
            ({"meta": {"format": "bogus"}}, "field 'meta.format' must be"),
            ({"meta": []}, "field 'meta': must be a JSON object, got list"),
            ({"meta": TABLE_META, "0": [1.0]}, "layer '0': must be a JSON object, got list"),
            ({"meta": TABLE_META, "x": {}}, "layer 'x': key 'x' is not an integer"),
            ({"meta": TABLE_META, "0": {"3": [1.0]}}, "layer '0' kernel '3': must be a JSON object"),
            ({"meta": TABLE_META, "0": {"k3": {}}}, "kernel 'k3': key 'k3' is not an integer"),
            ({"meta": TABLE_META, "0": {"3": {"four": 1.0}}}, "kernel '3': key 'four' is not"),
            ({"meta": TABLE_META, "0": {"3": {"4": "1.5"}}}, "kernel '3' width '4': latency must be"),
            ({"meta": TABLE_META, "0": {"3": {"4": None}}}, "kernel '3' width '4': latency must be"),
            ({"meta": TABLE_META, "0": {"3": {"4": float("nan")}}}, "width '4': latency must be"),
            ({"meta": TABLE_META, "0": {"3": {"4": 10**400}}}, "width '4': latency must be"),
        ],
    )
    def test_malformed_table_names_path_and_field(self, tmp_path, payload, field):
        path = tmp_path / "latency.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(field)) as info:
            LatencyTable.load(path)
        assert str(info.value).startswith(f"latency table {path}")

    @pytest.mark.parametrize("value", ["no", 0, [1]])
    def test_interpolate_must_be_a_json_boolean(self, tmp_path, value):
        path = tmp_path / "latency.json"
        path.write_text(json.dumps({"meta": {**TABLE_META, "interpolate": value}}))
        with pytest.raises(ParseError, match=re.escape(f"latency table {path}: field 'meta.interpolate'")):
            LatencyTable.load(path)

    @settings(max_examples=200, deadline=None)
    @given(
        layers=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(
                st.sampled_from(["0", "1", "3", "5", "-1"]) | st.text(max_size=3),
                inner,
                max_size=4,
            ),
            max_leaves=20,
        ),
        meta=st.sampled_from([TABLE_META, {"format": "bogus"}, {}, [], None]),
    )
    def test_only_netshrink_errors_escape_the_table_loader(self, tmp_path_factory, layers, meta):
        payload = dict(layers, meta=meta) if isinstance(layers, dict) else layers
        path = tmp_path_factory.mktemp("fuzz") / "latency.json"
        path.write_text(json.dumps(payload))
        try:
            table = LatencyTable.load(path)
        except NetshrinkError:
            return
        for layer, by_k in table.layers.items():
            for k, by_m in by_k.items():
                assert type(layer) is int and type(k) is int
                assert all(type(m) is int and np.isfinite(v) for m, v in by_m.items())

    def test_interpolation_through_table_lookup(self):
        specs = stride1_specs()[:1]
        table = synthetic_latency_table(specs, (8, 8), seed=8, interpolate=True)
        between = table.layer_cost(0, 3, 5)
        lo, hi = table.layers[0][5][2], table.layers[0][5][4]
        assert lo < between < hi


class TestResourceInvariants:
    def test_monotone_in_width_and_kernel(self):
        specs = stride1_specs()
        for model in (synthetic_latency_table(specs, (8, 8), seed=9), MacModel(specs, (8, 8))):
            base = full_width_choice(specs)
            r_full = total_resource(base, model)
            for i, spec in enumerate(specs):
                prev = None
                for m in spec.width_grid:
                    r = total_resource(base.replace(i, m, spec.kernel_grid[-1]), model)
                    if prev is not None:
                        assert r >= prev
                    prev = r
                assert total_resource(base, model) == r_full

    def test_removing_a_layer_strictly_reduces_latency(self):
        specs = stride1_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=10)
        base = full_width_choice(specs)
        for i in range(len(specs)):
            assert total_resource(base.replace(i, 0, 3), table) < total_resource(base, table)

    def test_additivity_over_single_layer_restrictions(self):
        specs = stride1_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=11)
        choice = SubNetChoice(((4, 3), (6, 3), (2, 3)))
        per_layer = [table.layer_cost(i, m, k) for i, (m, k) in enumerate(choice.pairs)]
        assert total_resource(choice, table) == pytest.approx(sum(per_layer))
