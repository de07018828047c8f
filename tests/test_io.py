import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import temsphere as ts
from temsphere._io import (
    ConfigError,
    DataError,
    config_hash,
    parse_config,
    read_timeseries_csv,
    write_json,
    write_timeseries_csv,
)

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


class TestConfigParsing:
    def test_round_trip_identity(self, sample_config_dict):
        config = parse_config(sample_config_dict)
        assert config.raw == sample_config_dict
        again = parse_config(config.raw)
        assert again.target == config.target
        assert again.pulse == config.pulse
        assert again.receiver == config.receiver

    def test_hash_is_stable_and_order_independent(self, sample_config_dict):
        h1 = config_hash(sample_config_dict)
        reordered = json.loads(
            json.dumps(sample_config_dict, sort_keys=True)
        )
        assert config_hash(reordered) == h1
        changed = json.loads(json.dumps(sample_config_dict))
        changed["standoff_m"] = 0.6
        assert config_hash(changed) != h1

    def test_missing_field_names_path(self, sample_config_dict):
        bad = json.loads(json.dumps(sample_config_dict))
        del bad["target"]["resistivity_ohm_m"]
        with pytest.raises(ConfigError, match="target.resistivity_ohm_m"):
            parse_config(bad)

    def test_bad_mu_names_path(self, sample_config_dict):
        bad = json.loads(json.dumps(sample_config_dict))
        bad["background"]["mu_r"] = 0.2
        with pytest.raises(ConfigError, match="background.mu_r"):
            parse_config(bad)

    def test_uniform_transmitter(self, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["loops"]["transmitter"] = {"kind": "uniform", "amplitude_a_per_m": 2.0}
        config = parse_config(cfg)
        assert isinstance(config.transmitter, ts.UniformField)
        assert config.transmitter.amplitude_a_per_m == 2.0

    def test_polygon_receiver(self, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["loops"]["receiver"] = {
            "kind": "polygon",
            "vertices_m": [[0.3, 0, 0.2], [0, 0.3, 0.2], [-0.3, -0.3, 0.2]],
        }
        config = parse_config(cfg)
        assert config.receiver.kind == "polygon"

    def test_max_l_range(self, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["max_l"] = 30
        with pytest.raises(ConfigError, match="options.max_l"):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("options.max_l", 0),
            ("options.max_n", 0),
            ("options.max_l", 2.7),
            ("loops.receiver.windings", 1.7),
            ("pulse.windings", 2.0),
            ("options.collapse_transient", "no"),
            ("target.radius_m", float("nan")),
            ("target.radius_m", float("inf")),
            ("target.radius_m", 10**400),
            ("options.regime_tol", 0),
            ("options.regime_tol", -1),
            ("options.regime_tol", 1.5),
        ],
        ids=["max_l-0", "max_n-0", "max_l-2.7", "rx-windings-1.7", "pulse-windings-2.0",
             "collapse-no", "radius-nan", "radius-inf", "radius-10^400", "regime_tol-0",
             "regime_tol--1", "regime_tol-1.5"],
    )
    def test_bad_scalar_names_path(self, sample_config_dict, path, value):
        # each of these used to be coerced (0 -> default, 2.7 -> 2, "no" -> True)
        # or accepted (NaN) without an error
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            parse_config(with_value(sample_config_dict, path, value))

    def test_strict_scalars_kept(self, sample_config_dict):
        cfg = with_value(sample_config_dict, "options.max_l", 12)
        cfg = with_value(cfg, "options.collapse_transient", False)
        cfg = with_value(cfg, "loops.receiver.windings", 3)
        config = parse_config(cfg)
        assert (config.max_l, config.collapse_transient, config.receiver.windings) == (
            12, False, 3)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("pulse.table[1][1]", float("nan")),
            ("pulse.table[2][0]", 3e-4),
            ("pulse.table[2][0]", 1e-4),
            ("pulse.table[0][0]", "0"),
            ("pulse.table[1]", [1e-4]),
            ("pulse.table[1]", [1e-4, 0.4, 0.0]),
            ("pulse.table[1]", 0.4),
            ("pulse.table", {"0": [0.0, 1.0]}),
            ("loops.transmitter.vertices_m[0][2]", True),
            ("loops.transmitter.vertices_m[3][0]", float("inf")),
            ("loops.transmitter.vertices_m[1]", [0.3, 0.3]),
            ("loops.transmitter.vertices_m", "square"),
        ],
        ids=["current-nan", "last-knot-after-t0", "last-knot-before-t0", "knot-string",
             "row-short", "row-long", "row-scalar", "table-object", "vertex-true",
             "vertex-inf", "vertex-2d", "vertices-string"],
    )
    def test_bad_table_or_vertex_names_path(self, table_polygon_config, path, value):
        # a NaN knot used to fail later as "values must be finite", a true
        # coordinate became 1.0 and a last knot after t0_s was accepted
        with pytest.raises(ConfigError) as info:
            parse_config(with_value(table_polygon_config, path, value))
        assert info.value.path == path

    @pytest.mark.parametrize(
        "path",
        ["optoins", "options.max_m", "target.radius", "background.sigma", "pulse.tau_r",
         "loops.transmiter", "loops.receiver.vertices_m", "loops.receiver.amplitude_a_per_m",
         "loops.transmitter.radius_m", "loops.transmitter.amplitude_a_per_m"],
    )
    def test_unknown_key_names_path(self, table_polygon_config, path):
        # a misspelled key used to be ignored, and its default silently used;
        # loop keys are checked per kind (a polygon transmitter, a circular
        # receiver)
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(with_value(table_polygon_config, path, 1.0))
        assert info.value.path == path

    @pytest.mark.parametrize("key", ["radius_m", "windings", "vertices_m"])
    def test_unknown_key_of_uniform_transmitter(self, sample_config_dict, key):
        cfg = with_value(sample_config_dict, "loops.transmitter",
                         {"kind": "uniform", "amplitude_a_per_m": 2.0, key: 1})
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(cfg)
        assert info.value.path == f"loops.transmitter.{key}"

    def test_readme_example_parses(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        example = re.search(r"Example scenario config.*?```json\n(.*?)```", text, re.S).group(1)
        config = parse_config(json.loads(example))
        assert (config.max_l, config.max_n) == (1, 500)

    def test_table_and_vertices_kept(self, table_polygon_config):
        config = parse_config(table_polygon_config)
        assert config.pulse.table == ((0.0, 1.0), (1e-4, 0.4), (2e-4, 0.0))
        assert config.transmitter.vertices == tuple(
            tuple(v) for v in table_polygon_config["loops"]["transmitter"]["vertices_m"])


@pytest.fixture(scope="module")
def table_polygon_config(sample_config_dict):
    """The sample config with a tabulated pulse and a square transmitter."""
    cfg = json.loads(json.dumps(sample_config_dict))
    cfg["pulse"].update(ramp="table", t0_s=2e-4, table=[[0, 1], [1e-4, 0.4], [2e-4, 0.0]])
    cfg["loops"]["transmitter"] = {"kind": "polygon", "vertices_m": [
        [0.3, 0.3, 0.3], [-0.3, 0.3, 0.3], [-0.3, -0.3, 0.3], [0.3, -0.3, 0.3]]}
    return cfg


def with_value(config: dict, path: str, value) -> dict:
    """Deep copy of ``config`` with ``path`` (``a.b`` or ``a.b[i][j]``) set to ``value``."""
    out = json.loads(json.dumps(config))
    node = out
    *parents, leaf = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


JSON_SCALARS = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)

# config path -> what parse_config keeps of it
KEPT = {
    "options.max_l": lambda c: c.max_l,
    "options.max_n": lambda c: c.max_n,
    "pulse.windings": lambda c: c.pulse.windings,
    "loops.transmitter.windings": lambda c: c.transmitter.windings,
    "loops.receiver.windings": lambda c: c.receiver.windings,
    "target.radius_m": lambda c: c.target.radius_m,
    "pulse.table[1][1]": lambda c: c.pulse.table[1][1],
    "pulse.table[2][0]": lambda c: c.pulse.table[2][0],
    "loops.transmitter.vertices_m[0][2]": lambda c: c.transmitter.vertices[0][2],
}
FLOAT_PATHS = ("target.radius_m", "pulse.table[1][1]", "pulse.table[2][0]",
               "loops.transmitter.vertices_m[0][2]")


@settings(derandomize=True, max_examples=450, deadline=None)
@given(path=st.sampled_from(sorted(KEPT)), value=JSON_SCALARS)
def test_scalar_kept_exactly_or_rejected_by_path(table_polygon_config, path, value):
    try:
        config = parse_config(with_value(table_polygon_config, path, value))
    except ConfigError as exc:
        assert exc.path == path
        return
    kept = KEPT[path](config)
    if path in FLOAT_PATHS:
        # JSON numbers are doubles: the value is kept as the float of the input
        assert not isinstance(value, bool) and math.isfinite(kept) and kept == float(value)
        if path == "pulse.table[2][0]":
            assert kept == config.pulse.t0_s
    else:
        assert type(kept) is int and type(value) is int and kept == value


def test_write_json_rejects_non_finite(tmp_path):
    # NaN and Infinity are not JSON tokens (RFC 8259): no file is written
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "out.json", {"margin": value})
    assert not list(tmp_path.iterdir())
    write_json(tmp_path / "out.json", {"margin": None})
    assert json.loads((tmp_path / "out.json").read_text()) == {"margin": None}


class TestCsv:
    def test_round_trip_bits(self, tmp_path):
        t = np.geomspace(1e-5, 1.0, 40)
        v = np.sin(t) * 1e-7
        series = ts.TimeSeries(times_s=t, values=v)
        path = tmp_path / "series.csv"
        write_timeseries_csv(path, series)
        back = read_timeseries_csv(path)
        assert np.array_equal(back.times_s, t)
        assert np.array_equal(back.values, v)

    def test_extra_columns(self, tmp_path):
        t = np.array([1.0, 2.0])
        series = ts.TimeSeries(times_s=t, values=np.array([3.0, 4.0]))
        path = tmp_path / "series.csv"
        write_timeseries_csv(
            path, series, extra_columns={"regime": np.array(["early", "late"])}
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,value,regime"
        assert lines[1].endswith(",early")

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,volts\n1,2\n")
        with pytest.raises(DataError, match="line 1"):
            read_timeseries_csv(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,value\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataError):
            read_timeseries_csv(path)
