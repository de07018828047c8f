import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from temsphere import cli
from temsphere._io import config_hash, read_timeseries_csv


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "temsphere.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def config_path(tmp_path, sample_config_dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sample_config_dict))
    return path


def strip_timestamp(manifest_text):
    data = json.loads(manifest_text)
    data.pop("created_utc")
    return data


# target radii whose square is in float range but whose cube (mode norms,
# voltages) overflows or underflows to 0
CUBE_OUT_OF_RANGE = (1e103, 1e150, 1e-120)


class TestModesCommand:
    def test_writes_library_with_expected_fundamental(self, tmp_path, config_path):
        out = tmp_path / "out"
        result = run_cli("modes", "--config", str(config_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lib = json.loads((out / "modes.json").read_text())
        assert len(lib["modes"]) == 500
        assert lib["modes"][0]["lambda_per_s"] == pytest.approx(87.97, rel=1e-3)

    def test_invalid_radius_names_schema_path(self, tmp_path, sample_config_dict):
        bad = dict(sample_config_dict)
        bad["target"] = {**bad["target"], "radius_m": -1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = run_cli("modes", "--config", str(path), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "target.radius_m" in result.stderr

    def test_three_thousand_modes_exit_0(self, tmp_path, sample_config_dict):
        # past the old absolute residual gate, which exited 4 here
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["max_n"] = 3000
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = run_cli("modes", "--config", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert len(json.loads((out / "modes.json").read_text())["modes"]) == 3000

    def test_rerun_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = run_cli(
                "modes", "--config", str(config_path), "--out", str(out),
                "--max-n", "40",
            )
            assert result.returncode == 0
        assert (out1 / "modes.json").read_bytes() == (out2 / "modes.json").read_bytes()


class TestArgumentChecks:
    """Bad flags and config scalars exit 2 and name the flag or schema path."""

    @pytest.mark.parametrize(
        "flag, value", [("--max-l", "0"), ("--max-l", "13"), ("--max-n", "0")]
    )
    def test_option_override_out_of_range(self, tmp_path, config_path, capsys, flag, value):
        code = cli.main(
            ["modes", "--config", str(config_path), "--out", str(tmp_path / "o"), flag, value]
        )
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_option_overrides_applied(self, tmp_path, config_path):
        out = tmp_path / "o"
        code = cli.main(
            ["modes", "--config", str(config_path), "--out", str(out),
             "--max-l", "2", "--max-n", "3"]
        )
        assert code == 0
        lib = json.loads((out / "modes.json").read_text())
        assert (lib["max_l"], lib["max_n"], len(lib["modes"])) == (2, 3, 2 * 3)

    @pytest.mark.parametrize("window", ["1e-5", "a,b", "1e-3,1e-4", "nan,1"])
    def test_fit_bad_window(self, tmp_path, capsys, window):
        data = tmp_path / "data.csv"
        data.write_text("t_s,value\n1e-3,1.0\n2e-3,0.5\n")
        code = cli.main(
            ["fit", "--data", str(data), "--out", str(tmp_path / "o"), "--window", window]
        )
        assert code == 2
        assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("options", "max_l", 0),
            ("options", "max_n", 0),
            ("options", "max_l", 2.7),
            ("receiver", "windings", 1.7),
            ("options", "collapse_transient", "no"),
            ("target", "radius_m", float("nan")),
        ],
    )
    def test_bad_config_scalar_exit_2(
        self, tmp_path, sample_config_dict, capsys, section, key, value
    ):
        cfg = json.loads(json.dumps(sample_config_dict))
        node = cfg["loops"]["receiver"] if section == "receiver" else cfg[section]
        node[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # NaN is written as the JSON token NaN
        code = cli.main(["modes", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        where = "loops.receiver" if section == "receiver" else section
        assert f"{where}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            ("pulse.table[1][1]", float("nan")),
            ("pulse.table[2][0]", 3e-4),
            ("loops.transmitter.vertices_m[0][2]", True),
        ],
        ids=["current-nan", "last-knot-after-t0", "vertex-true"],
    )
    def test_bad_table_or_vertex_exit_2(
        self, tmp_path, sample_config_dict, capsys, where, value
    ):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["pulse"].update(ramp="table", t0_s=2e-4, table=[[0.0, 1.0], [1e-4, 0.4], [2e-4, 0.0]])
        cfg["loops"]["transmitter"] = {"kind": "polygon", "vertices_m": [
            [0.3, 0.3, 0.3], [-0.3, 0.3, 0.3], [-0.3, -0.3, 0.3]]}
        *keys, row, col = re.findall(r"\w+", where)
        node = cfg
        for key in keys:
            node = node[key]
        node[int(row)][int(col)] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["modes", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert where in capsys.readouterr().err


    @pytest.mark.parametrize(
        "where", ["optoins", "options.max_m", "pulse.tau_r", "loops.receiver.vertices_m"]
    )
    def test_unknown_config_key_exit_2(self, tmp_path, sample_config_dict, capsys, where):
        # "optoins" used to run silently with the default max_n of 500
        cfg = json.loads(json.dumps(sample_config_dict))
        *parents, leaf = where.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[leaf] = {"max_n": 10} if leaf == "optoins" else 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["modes", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{where}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    def test_csv_monotone_and_early_power_law(self, tmp_path, config_path):
        out = tmp_path / "sim"
        # tau_c = 0.112 s; gates from 1e-5 tau_c to 10 tau_c
        result = run_cli(
            "simulate", "--config", str(config_path), "--out", str(out),
            "--gates", "1.12e-6,1.12,100",
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0] == "t_s,value,regime,quality"
        series = read_timeseries_csv(out / "simulate.csv")
        assert np.all(np.diff(series.times_s) > 0)
        regime = [line.split(",")[2] for line in lines[1:]]
        early = np.array([r == "early" for r in regime])
        assert early.sum() >= 5
        y = series.values[early] * np.sqrt(series.times_s[early])
        assert (y.max() - y.min()) / y.mean() < 0.01

    def test_linearity_in_current(self, tmp_path, sample_config_dict):
        outs = []
        for scale in (1.0, 10.0):
            cfg = json.loads(json.dumps(sample_config_dict))
            cfg["pulse"]["base_current_a"] = scale
            path = tmp_path / f"cfg{scale}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"out{scale}"
            result = run_cli(
                "simulate", "--config", str(path), "--out", str(out),
                "--gates", "1e-5,0.5,40", "--max-n", "100",
            )
            assert result.returncode == 0, result.stderr
            outs.append(read_timeseries_csv(out / "simulate.csv").values)
        assert np.allclose(outs[1], 10.0 * outs[0], rtol=1e-12)

    def test_determinism_byte_identical(self, tmp_path, config_path):
        payloads = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            result = run_cli(
                "simulate", "--config", str(config_path), "--out", str(out),
                "--gates", "1e-5,1.0,50", "--max-n", "60", "--seed", "3",
            )
            assert result.returncode == 0
            payloads.append((out / "simulate.csv").read_bytes())
            manifest = strip_timestamp((out / "manifest_simulate.json").read_text())
            assert manifest["seed"] == 3
        assert payloads[0] == payloads[1]

    def test_bad_gates_exit_2(self, tmp_path, config_path):
        result = run_cli(
            "simulate", "--config", str(config_path), "--out", str(tmp_path / "x"),
            "--gates", "always",
        )
        assert result.returncode == 2


class TestNonFiniteInput:
    """Non-finite gates and data cells exit 2 or 3 naming the flag or the
    line, and write nothing under --out (scan points: TestPublish)."""

    @pytest.mark.parametrize("gates", ["1e-6,inf,5", "1e-6,nan,5", "nan,1e-3,5"])
    def test_gates_exit_2(self, tmp_path, config_path, capsys, gates):
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config_path), "--out", str(out), "--gates", gates]
        assert cli.main(argv) == 2
        assert "--gates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, where, changes", [
        ("simulate", "standoff_m", {"standoff_m": 1e300}),
        ("simulate", "target.radius_m", {"target.radius_m": 1e300}),
        ("simulate", "target.radius_m", {"target.radius_m": 1e-300}),
        ("simulate", "target", {"target.resistivity_ohm_m": 1e-300, "target.mu_r": 1e300}),
        ("simulate", "background",
         {"background.resistivity_ohm_m": 1e-300, "background.mu_r": 1e300}),
        ("modes", "mode decay rate", {"target.resistivity_ohm_m": 1e300}),
        ("simulate", "mode decay rate", {"target.resistivity_ohm_m": 1e300}),
    ] + [(command, "target.radius_m", {"target.radius_m": radius})
         for command in ("modes", "simulate") for radius in CUBE_OUT_OF_RANGE],
        ids=["far-standoff", "huge-radius", "tiny-radius", "target-d0", "background-d0",
             "modes-rate", "simulate-rate"]
        + [f"{command}-radius-{radius:g}" for command in ("modes", "simulate")
           for radius in CUBE_OUT_OF_RANGE])
    def test_time_scale_or_rate_out_of_float_range_exit_2(
        self, tmp_path, sample_config_dict, capsys, command, where, changes
    ):
        # these used to exit 1 with OverflowError or ZeroDivisionError, exit 2
        # naming no schema path, or write "lambda_per_s": Infinity; a radius
        # whose cube leaves float range used to do the first or the second
        cfg = json.loads(json.dumps(sample_config_dict))
        for path, value in changes.items():
            *parents, leaf = path.split(".")
            node = cfg
            for key in parents:
                node = node[key]
            node[leaf] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "simulate":
            argv += ["--gates", "1e-6,1.0,20"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize("row", ["inf,0.25", "nan,0.25", "4e-3,nan", "4e-3,-inf"])
    def test_data_row_exit_3(self, tmp_path, capsys, row):
        data = tmp_path / "data.csv"
        data.write_text(f"t_s,value\n1e-3,1.0\n2e-3,0.5\n{row}\n8e-3,0.125\n")
        out = tmp_path / "out"
        assert cli.main(["fit", "--data", str(data), "--out", str(out), "--terms", "1"]) == 3
        assert "line 4" in capsys.readouterr().err
        assert not out.exists()


class TestEarlyCommand:
    def test_report_contains_closed_form_checks(self, tmp_path, config_path):
        out = tmp_path / "early"
        result = run_cli(
            "early", "--config", str(config_path), "--out", str(out),
            "--gates", "1.12e-6,1.12e-4,20",
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "early.json").read_text())
        entry = report["harmonics"]["1,0"]
        # nonmagnetic dipole: unit closed-form K coefficient i (3/2) sqrt(2)
        assert entry["surface_current_unit_closed_form"][1] == pytest.approx(
            1.5 * np.sqrt(2.0)
        )
        assert report["amplitude_v_sqrt_s"] != 0.0
        series = read_timeseries_csv(out / "early.csv")
        y = series.values * np.sqrt(series.times_s)
        assert np.max(np.abs(y / y[0] - 1)) < 1e-9

    def test_field_scan_csv(self, tmp_path, config_path):
        out = tmp_path / "scan"
        result = run_cli(
            "early", "--config", str(config_path), "--out", str(out),
            "--gates", "1.12e-6,1.12e-4,10", "--scan", "0.2,1.0,0.0",
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "early_scan.csv").read_text().splitlines()
        assert lines[0] == "r,theta,phi,t_s,dA,dB,dE"
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        # dE falls as 1/sqrt(t), dA and dB grow as sqrt(t)
        t, da, de = rows[:, 3], rows[:, 4], rows[:, 6]
        assert np.allclose(de * np.sqrt(t), de[0] * np.sqrt(t[0]), rtol=1e-9)
        assert np.allclose(da / np.sqrt(t), da[0] / np.sqrt(t[0]), rtol=1e-9)

    def test_transient_flags_agree_with_simulate(self, tmp_path, sample_config_dict):
        # with the background transient kept, the early window opens 10
        # tau_tr after t_tr = t0 + tau_tr; simulate.csv must time its
        # 'transient' flag from the same reference as early.csv
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["collapse_transient"] = False
        cfg["options"]["max_n"] = 80
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        tau_tr = 0.5**2 * 4e-7 * np.pi / 10.0  # standoff^2 mu_0 sigma_b
        gates = f"{1.5 * tau_tr!r},{100 * tau_tr!r},60"
        for command in ("simulate", "early"):
            code = cli.main([command, "--config", str(path), "--out", str(tmp_path / command),
                             "--gates", gates])
            assert code == 0

        def transient(csv_path):
            lines = csv_path.read_text().splitlines()
            column = lines[0].split(",").index("quality")
            rows = [line.split(",") for line in lines[1:]]
            return np.array([float(r[0]) for r in rows]), [r[column] == "transient" for r in rows]

        t, sim = transient(tmp_path / "simulate" / "simulate.csv")
        t_early, early = transient(tmp_path / "early" / "early.csv")
        assert np.array_equal(t, t_early)
        assert np.any((t >= 10 * tau_tr) & (t < 11 * tau_tr))  # where the references differ
        assert sim == early
        assert early == list(t - tau_tr < 10 * tau_tr)


class TestFitAndClassify:
    def make_data(self, tmp_path, seed=0, noise=0.01):
        rng = np.random.default_rng(seed)
        t = np.geomspace(1e-3, 3.0, 80)
        clean = 0.3 * np.exp(-1.0 * t) + 3.0 * np.exp(-10.0 * t)
        vals = clean * (1 + noise * rng.standard_normal(t.shape))
        path = tmp_path / "data.csv"
        lines = ["t_s,value"] + [
            f"{repr(float(a))},{repr(float(b))}" for a, b in zip(t, vals)
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fit_recovers_planted_parameters(self, tmp_path):
        data = self.make_data(tmp_path, seed=11)
        out = tmp_path / "fit"
        result = run_cli(
            "fit", "--data", str(data), "--out", str(out), "--terms", "2", "--seed", "7"
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "fit.json").read_text())
        assert report["converged"]
        rates = report["model"]["rates_per_s"]
        assert rates[0] == pytest.approx(1.0, rel=0.05)
        assert rates[1] == pytest.approx(10.0, rel=0.05)

    def test_fit_seed_rerun_identical(self, tmp_path):
        data = self.make_data(tmp_path, seed=5)
        reports = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            result = run_cli(
                "fit", "--data", str(data), "--out", str(out),
                "--terms", "2", "--seed", "9",
            )
            assert result.returncode == 0
            reports.append((out / "fit.json").read_bytes())
        assert reports[0] == reports[1]

    def test_malformed_csv_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,value\n1.0,2.0\nbroken,row\n")
        result = run_cli(
            "fit", "--data", str(path), "--out", str(tmp_path / "o"), "--terms", "1"
        )
        assert result.returncode == 3
        assert "line 3" in result.stderr

    def test_classify_self_generated(self, tmp_path, sample_config_dict):
        # simulate with config A, classify against {A, B}; A must win
        cfg_a = json.loads(json.dumps(sample_config_dict))
        cfg_a["options"]["max_n"] = 80
        cfg_b = json.loads(json.dumps(cfg_a))
        cfg_b["target"] = {"radius_m": 0.05, "resistivity_ohm_m": 8.9e-8, "mu_r": 200.0}
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(cfg_a))
        sim_out = tmp_path / "sim"
        result = run_cli(
            "simulate", "--config", str(cfg_path), "--out", str(sim_out),
            "--gates", "2e-3,1.0,30",
        )
        assert result.returncode == 0, result.stderr
        lib_path = tmp_path / "library.json"
        lib_path.write_text(
            json.dumps(
                {
                    "candidates": [
                        {"name": "steel_5cm", "config": cfg_b},
                        {"name": "aluminum_5cm", "config": cfg_a},
                    ]
                }
            )
        )
        out = tmp_path / "cls"
        result = run_cli(
            "classify", "--data", str(sim_out / "simulate.csv"),
            "--library", str(lib_path), "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "classify.json").read_text())
        assert report["best"] == "aluminum_5cm"

    @pytest.mark.parametrize("case", ["one-candidate", "zero-misfit"])
    def test_classify_undefined_margin_is_null(self, tmp_path, sample_config_dict, case):
        # the margin (second best - best) / best is undefined with one
        # candidate or a best misfit of 0; it used to be written as the
        # non-JSON token Infinity
        def reject(token):
            raise ValueError(f"{token} is not a JSON value")

        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["max_n"] = 40
        other = json.loads(json.dumps(cfg))
        other["target"]["mu_r"] = 60.0
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(cfg))
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(sim),
                         "--gates", "2e-3,1.0,30"]) == 0
        candidates = [{"name": "other", "config": other}]
        if case == "zero-misfit":
            candidates.append({"name": "self", "config": cfg})
        lib_path = tmp_path / "library.json"
        lib_path.write_text(json.dumps({"candidates": candidates}))
        out = tmp_path / "cls"
        assert cli.main(["classify", "--data", str(sim / "simulate.csv"),
                         "--library", str(lib_path), "--out", str(out)]) == 0
        report = json.loads((out / "classify.json").read_text(), parse_constant=reject)
        json.loads((out / "manifest_classify.json").read_text(), parse_constant=reject)
        assert report["margin"] is None
        if case == "zero-misfit":
            assert report["ranking"][0] == ["self", 0.0]
        else:
            assert [name for name, _ in report["ranking"]] == ["other"]

    def test_classify_manifest_lists_rejected(self, tmp_path, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["max_n"] = 40
        late = json.loads(json.dumps(cfg))
        late["pulse"]["t0_s"] = 0.5  # shuts off after the first gates
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(cfg))
        sim = tmp_path / "sim"
        gates = ["--gates", "2e-3,1.0,30"]
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(sim), *gates]) == 0
        lib_path = tmp_path / "library.json"
        lib_path.write_text(json.dumps({"candidates": [
            {"name": "late", "config": late}, {"name": "a", "config": cfg}]}))
        out = tmp_path / "cls"
        code = cli.main(["classify", "--data", str(sim / "simulate.csv"),
                         "--library", str(lib_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert [name for name, _ in report["ranking"]] == ["a"]
        assert "rejected" not in report
        manifest = json.loads((out / "manifest_classify.json").read_text())
        assert manifest["rejected"] == [["late", "ParameterError"]]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPublish:
    """Each manifest digests the payloads written and every input file; a
    command that fails writes nothing under --out."""

    @pytest.fixture()
    def small_config(self, tmp_path, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["max_n"] = 40
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    @staticmethod
    def manifest(out, command, inputs, record):
        """The manifest, after checking its outputs, inputs and record hash."""
        name = f"manifest_{command}.json"
        manifest = json.loads((out / name).read_text())
        payloads = sorted(p.name for p in out.iterdir() if p.name != name)
        assert manifest["command"] == command
        assert manifest["outputs"] == {f: sha256(out / f) for f in payloads}
        assert manifest["inputs"] == {k: sha256(path) for k, path in inputs.items()}
        assert manifest["config_sha256"] == config_hash(record)
        return manifest

    @pytest.mark.parametrize(
        "command, flags, files",
        [
            ("modes", [], ["modes.json"]),
            ("simulate", ["--gates", "2e-3,1.0,30"], ["simulate.csv"]),
            ("early", [], ["early.json"]),
            ("early", ["--gates", "1e-6,1e-4,10", "--scan", "0.3,1.0,0.5"],
             ["early.csv", "early.json", "early_scan.csv"]),
        ],
        ids=["modes", "simulate", "early", "early-gates-scan"],
    )
    def test_config_command_manifest(self, tmp_path, small_config, command, flags, files):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(small_config), "--out", str(out), *flags]) == 0
        record = json.loads(small_config.read_text())
        manifest = self.manifest(out, command, {"config": small_config}, record)
        assert sorted(manifest["outputs"]) == files

    def test_fit_and_classify_manifests(self, tmp_path, small_config):
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(small_config), "--out", str(sim),
                         "--gates", "2e-3,1.0,30"]) == 0
        data = sim / "simulate.csv"
        out = tmp_path / "fit"
        assert cli.main(["fit", "--data", str(data), "--out", str(out), "--terms", "2"]) == 0
        manifest = self.manifest(out, "fit", {"data": data}, {"terms": 2, "power": False})
        assert list(manifest["outputs"]) == ["fit.json"]
        library = {"candidates": [{"name": "a", "config": json.loads(small_config.read_text())}]}
        lib_path = tmp_path / "library.json"
        lib_path.write_text(json.dumps(library))
        out = tmp_path / "cls"
        assert cli.main(["classify", "--data", str(data), "--library", str(lib_path),
                         "--out", str(out)]) == 0
        manifest = self.manifest(out, "classify", {"data": data, "library": lib_path}, library)
        assert list(manifest["outputs"]) == ["classify.json"]
        assert manifest["rejected"] == []

    def test_each_file_digested_once(self, tmp_path, small_config, monkeypatch):
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(small_config), "--out", str(sim),
                         "--gates", "2e-3,1.0,30"]) == 0
        data = sim / "simulate.csv"
        lib_path = tmp_path / "library.json"
        lib_path.write_text(json.dumps(
            {"candidates": [{"name": "a", "config": json.loads(small_config.read_text())}]}))
        digested = []
        digest = cli.file_digest

        def counted(path):
            digested.append(os.path.basename(path))
            return digest(path)

        monkeypatch.setattr(cli, "file_digest", counted)
        for command, flags, files in [
            ("fit", ["--data", str(data), "--terms", "2"], ["fit.json", "simulate.csv"]),
            ("classify", ["--data", str(data), "--library", str(lib_path)],
             ["classify.json", "library.json", "simulate.csv"]),
            ("early", ["--config", str(small_config), "--gates", "1e-6,1e-4,10",
                       "--scan", "0.3,1.0,0.5"],
             ["config.json", "early.csv", "early.json", "early_scan.csv"]),
        ]:
            digested.clear()
            out = tmp_path / command
            assert cli.main([command, *flags, "--out", str(out)]) == 0
            assert sorted(digested) == files
            if command != "early":
                payload = json.loads((out / f"{command}.json").read_text())
                manifest = json.loads((out / f"manifest_{command}.json").read_text())
                assert payload["inputs"] == manifest["inputs"]

    @pytest.mark.parametrize(
        "flags",
        [["--scan", "0.3,1.0,0.5"], ["--gates", "1e-6,1e-4,10", "--scan", "0.03,1.0,0.5"]]
        + [["--gates", "1e-6,1e-4,10", "--scan", p]
           for p in ("0.3,nan,0.5", "nan,1,1", "inf,1,1", "0.3,1,-inf")],
        ids=["scan-without-gates", "scan-inside-target", "scan-nan-theta", "scan-nan-r",
             "scan-inf-r", "scan-inf-phi"],
    )
    def test_failing_early_writes_nothing(self, tmp_path, small_config, capsys, flags):
        out = tmp_path / "out"
        assert cli.main(["early", "--config", str(small_config), "--out", str(out), *flags]) == 2
        assert "--scan" in capsys.readouterr().err
        assert not out.exists()
