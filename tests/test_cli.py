"""End-to-end CLI behavior: subcommands, exit codes, config layering."""

import io
import json
import warnings

import numpy as np
import pytest

from phctrl.cli import main
from phctrl.core import Dims, loads_system, system_to_dict
from phctrl.ctrb import canonical_witness
from phctrl.experiments import CHUNK, stable_json
from phctrl.sample import SamplerSpec, sample_ph, stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def witness_file(tmp_path, n, m):
    path = tmp_path / f"witness_{n}_{m}.json"
    code = main(["witness", "--n", str(n), "--m", str(m), "-o", str(path)])
    assert code == 0
    return path


class TestWitnessAndCheck:
    def test_witness_emits_expected_system(self, tmp_path, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--m", "1")
        assert code == 0
        system = loads_system(out)
        assert system == canonical_witness(2, 1).base

    def test_check_reports_controllable(self, tmp_path, capsys):
        path = witness_file(tmp_path, 3, 1)
        code, out, _ = run(capsys, "check", "--in", str(path))
        report = json.loads(out)
        assert code == 0
        assert report["controllable"] is True
        assert report["rank"] == 3
        assert report["pbh_agrees"] is True
        assert len(report["sv"]) == 3
        assert report["tol"] > 0

    def test_witness_check_roundtrip_small_range(self, tmp_path, capsys):
        # SVD-rank verdict is sound in its well-conditioned range
        for n in (1, 5, 10, 20):
            path = witness_file(tmp_path, n, 2)
            code, out, _ = run(capsys, "check", "--in", str(path))
            report = json.loads(out)
            assert code == 0
            assert report["controllable"] is True and report["rank"] == n

    def test_witness_check_large_n_diverges_honestly(self, tmp_path, capsys):
        # at n = 50 the reachability matrix conditions past 1/eps: the rank
        # route under-reports while the PBH certificate still holds, which the
        # report flags as a disagreement
        path = witness_file(tmp_path, 50, 1)
        code, out, _ = run(capsys, "check", "--in", str(path))
        report = json.loads(out)
        assert code == 0
        assert report["controllable"] is False
        assert report["pbh_agrees"] is False

    def test_check_from_stdin(self, capsys, monkeypatch):
        text = json.dumps(system_to_dict(canonical_witness(4, 1)))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert json.loads(out)["rank"] == 4


class TestValidate:
    def test_valid_system_normalized(self, capsys, monkeypatch, tmp_path):
        raw = {
            "field": "real", "n": 2, "m": 1,
            "J": [[0.0, -1.0], [1.0, 1e-13]],
            "H": [[2.0, 0.0], [0.0, 3.0]],
            "B": [[1.0], [0.0]],
        }
        path = tmp_path / "dirty.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "validate", "--in", str(path))
        assert code == 0
        system = loads_system(out)
        assert np.array_equal(system.J, -system.J.T)
        assert "valid" in err

    def test_structure_violation_exits_1(self, capsys, tmp_path):
        raw = {
            "field": "real", "n": 2, "m": 1,
            "J": [[1.0, 0.0], [0.0, 0.0]],
            "H": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0], [0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "validate", "--in", str(path))
        assert code == 1
        assert "error:" in err

    def test_ph_gate(self, capsys, tmp_path):
        raw = {
            "field": "real", "n": 2, "m": 1,
            "J": [[0.0, -1.0], [1.0, 0.0]],
            "H": [[1.0, 0.0], [0.0, -1.0]],
            "B": [[1.0], [0.0]],
        }
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(raw))
        assert run(capsys, "validate", "--in", str(path))[0] == 0
        code, _, err = run(capsys, "validate", "--in", str(path), "--ph")
        assert code == 1
        assert "smallest eigenvalue" in err

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert run(capsys, "validate", "--in", str(path))[0] == 1

    def test_missing_file_exits_1(self, capsys):
        assert run(capsys, "validate", "--in", "/nonexistent/x.json")[0] == 1


class TestPackUnpack:
    def test_roundtrip(self, capsys, tmp_path):
        path = witness_file(tmp_path, 3, 2)
        packed_path = tmp_path / "packed.json"
        code, _, _ = run(capsys, "pack", "--in", str(path), "-o", str(packed_path))
        assert code == 0
        packed = json.loads(packed_path.read_text())
        assert packed["n"] == 3 and packed["m"] == 2
        assert len(packed["coords"]) == 9 + 6
        code, out, _ = run(capsys, "unpack", "--in", str(packed_path))
        assert code == 0
        assert loads_system(out) == loads_system(path.read_text())

    def test_pack_hand_coordinates(self, capsys, tmp_path):
        path = witness_file(tmp_path, 2, 1)
        code, out, _ = run(capsys, "pack", "--in", str(path))
        assert json.loads(out)["coords"] == [-1.0, 1.0, 0.0, 1.0, 1.0, 0.0]


class TestSample:
    def test_json_lines_and_determinism(self, capsys):
        argv = ["sample", "--n", "3", "--m", "2", "--count", "4", "--seed", "11"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            system = loads_system(line)
            assert system.dims.n == 3 and system.dims.m == 2

    def test_line_i_draws_from_stream_i_across_chunks(self, capsys):
        # the streams are hashed one chunk at a time; line i is still
        # sample_ph on stream(seed, i)
        count = CHUNK + 2
        code, out, _ = run(capsys, "sample", "--n", "2", "--m", "1", "--count", str(count),
                           "--seed", "12")
        assert code == 0
        spec = SamplerSpec(Dims(2, 1), seed=12)
        assert out.splitlines() == [
            json.dumps(system_to_dict(sample_ph(spec, stream(12, i))), separators=(",", ":"))
            for i in range(count)]

    def test_uncontrollable_kind(self, capsys):
        code, out, _ = run(capsys, "sample", "--kind", "uncontrollable",
                           "--n", "4", "--k", "2", "--m", "1", "--seed", "3")
        assert code == 0
        system = loads_system(out)
        assert not system.B[2:].any()

    def test_complex_field(self, capsys):
        code, out, _ = run(capsys, "sample", "--field", "complex", "--n", "2",
                           "--m", "1", "--seed", "5")
        assert code == 0
        assert json.loads(out)["field"] == "complex"

    def test_env_seed_lowest_precedence(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("PHGEN_SEED", "123")
        _, out_env, _ = run(capsys, "sample", "--n", "2", "--m", "1")
        _, out_explicit, _ = run(capsys, "sample", "--n", "2", "--m", "1",
                                 "--seed", "123")
        assert out_env == out_explicit
        # a config file beats the environment
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77}))
        _, out_cfg, _ = run(capsys, "sample", "--n", "2", "--m", "1",
                            "--config", str(cfg))
        _, out_77, _ = run(capsys, "sample", "--n", "2", "--m", "1",
                           "--seed", "77")
        assert out_cfg == out_77
        # an explicit flag beats the config file
        _, out_flag, _ = run(capsys, "sample", "--n", "2", "--m", "1",
                             "--config", str(cfg), "--seed", "9")
        _, out_9, _ = run(capsys, "sample", "--n", "2", "--m", "1", "--seed", "9")
        assert out_flag == out_9

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PHGEN_SEED", "not-a-number")
        code, _, err = run(capsys, "sample", "--n", "2", "--m", "1")
        assert code == 2
        assert "usage error" in err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "sample", "--config", str(cfg))
        assert code == 2
        assert "unknown keys" in err


class TestMcGenericity:
    def test_summary_and_reports(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(capsys, "mc-genericity", "--n", "3", "--m", "1",
                           "--trials", "150", "--seed", "21", "--cross-check",
                           "--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        assert "controllable fraction: 1.0 (150/150)" in out
        report = json.loads(json_path.read_text())
        assert report["fraction"] == 1.0
        assert report["config"]["subcommand"] == "mc-genericity"
        assert report["config"]["seed"] == 21
        assert report["pbh_agreements"] == 150
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("n,m,field,trials")
        assert lines[1].startswith("3,1,real,150,150,1.0,")

    def test_rerun_reproduces_report(self, capsys, tmp_path):
        args = ["mc-genericity", "--n", "2", "--m", "2", "--trials", "80",
                "--seed", "33"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        capsys.readouterr()
        r1 = json.loads(p1.read_text())
        r2 = json.loads(p2.read_text())
        assert stable_json(r1) == stable_json(r2)

    def test_rerun_from_echoed_config(self, capsys, tmp_path):
        p1 = tmp_path / "first.json"
        assert main(["mc-genericity", "--n", "2", "--m", "1", "--trials", "60",
                     "--seed", "44", "--json", str(p1)]) == 0
        echoed = json.loads(p1.read_text())["config"]
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(
            {k: v for k, v in echoed.items() if k not in ("subcommand", "h_law")}
            | {"h_law": echoed["h_law"]}
        ))
        p2 = tmp_path / "second.json"
        assert main(["mc-genericity", "--config", str(cfg_path),
                     "--json", str(p2)]) == 0
        capsys.readouterr()
        assert stable_json(json.loads(p1.read_text())) == stable_json(
            json.loads(p2.read_text()))


class TestPerturbProbe:
    def test_table_and_outputs(self, capsys, tmp_path):
        json_path = tmp_path / "probe.json"
        csv_path = tmp_path / "probe.csv"
        code, out, _ = run(capsys, "perturb-probe", "--n", "3", "--k", "1",
                           "--m", "1", "--eps-grid", "0,1e-6,1e-2",
                           "--trials-per-eps", "40", "--seed", "55",
                           "--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        report = json.loads(json_path.read_text())
        fractions = {row["eps"]: row["fraction"] for row in report["rows"]}
        assert fractions[0.0] == 0.0
        assert fractions[1e-6] == 1.0
        assert fractions[1e-2] == 1.0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 4

    def test_deterministic(self, capsys, tmp_path):
        args = ["perturb-probe", "--n", "2", "--k", "1", "--m", "1",
                "--eps-grid", "1e-4", "--trials-per-eps", "20", "--seed", "66"]
        p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        capsys.readouterr()
        assert stable_json(json.loads(p1.read_text())) == stable_json(
            json.loads(p2.read_text()))


class TestDistUnctrb:
    def test_uncontrollable_sample_has_zero_distance(self, capsys, tmp_path):
        sys_path = tmp_path / "unctrb.json"
        assert main(["sample", "--kind", "uncontrollable", "--n", "3", "--k",
                     "1", "--m", "1", "--seed", "8", "-o", str(sys_path)]) == 0
        json_path = tmp_path / "dist.json"
        code, out, _ = run(capsys, "dist-unctrb", "--in", str(sys_path),
                           "--json", str(json_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["distance"] <= 1e-8
        assert "upper bound" in out

    def test_witness_distance_positive(self, capsys, tmp_path):
        path = witness_file(tmp_path, 2, 1)
        json_path = tmp_path / "dist.json"
        code, _, _ = run(capsys, "dist-unctrb", "--in", str(path),
                         "--refine-levels", "8", "--json", str(json_path))
        assert code == 0
        assert json.loads(json_path.read_text())["distance"] > 1e-7


class TestProp1:
    def test_partial_measure_and_membership(self, capsys, tmp_path):
        json_path = tmp_path / "prop1.json"
        code, out, _ = run(capsys, "prop1", "--i-max", "1000", "--x", "3.0",
                           "--json", str(json_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["partial_measure"] == pytest.approx(3.2878681, abs=1e-4)
        assert payload["limit"] == pytest.approx(3.2898681336964528)
        assert payload["membership"]["covered"] is True
        assert payload["membership"]["witness_index"] == 7
        assert "partial measure" in out


class TestOverflow:
    def test_krylov_overflow_is_named(self, capsys):
        # (JH)^7 B overflows at this scale
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "mc-genericity", "--n", "8", "--m", "1",
                                 "--j-scale", "1e44", "--trials", "3")
        assert code == 1
        assert "overflow" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "witness", "--n", "two")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_domain_error_bad_dims(self, capsys):
        # each key is valid alone; k < n is a cross-key rule of the library
        code, _, err = run(capsys, "sample", "--kind", "uncontrollable", "--n", "2", "--k", "2")
        assert code == 1
        assert "error:" in err


class TestConfigFileValues:
    """Config-file values are checked against the flags they stand for."""

    @pytest.mark.parametrize("command,config", [
        pytest.param("sample", {"n": "4"}, id="n-string"),
        pytest.param("sample", {"n": 4.0}, id="n-float"),
        pytest.param("sample", {"n": True}, id="n-bool"),
        pytest.param("sample", {"field": "quaternion"}, id="field-choice"),
        pytest.param("sample", {"kind": "bogus"}, id="kind-choice"),
        pytest.param("sample", {"h_law": "gamma"}, id="h_law-choice"),
        pytest.param("mc-genericity", {"trials": "5"}, id="trials-string"),
        pytest.param("mc-genericity", {"cross_check": "yes"}, id="cross_check-string"),
        pytest.param("mc-genericity", {"wishart_p": 3.5}, id="wishart_p-float"),
        pytest.param("perturb-probe", {"eps_grid": 1e-4}, id="eps_grid-number"),
        pytest.param("perturb-probe", {"eps_grid": ["1e-4"]}, id="eps_grid-strings"),
        pytest.param("perturb-probe", {"eps_grid": "0,tiny"}, id="eps_grid-unparsable"),
        pytest.param("validate", {"ph": 1}, id="ph-int"),
        pytest.param("prop1", {"x": "3.0"}, id="x-string"),
        pytest.param("unpack", {"n": 2}, id="unpack-any-key"),
    ])
    def test_wrong_type_is_usage_error(self, capsys, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert err.startswith("usage error:")
        assert out == ""

    def test_unpack_reads_its_config(self, capsys, tmp_path):
        # unpack takes no config key: an empty object is fine, a missing
        # file is an I/O error like for every other command
        packed = tmp_path / "packed.json"
        packed.write_text(json.dumps({"n": 1, "m": 1, "field": "real",
                                      "coords": [0.0, 1.0]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert run(capsys, "unpack", "--in", str(packed), "--config", str(cfg))[0] == 0
        code, _, err = run(capsys, "unpack", "--in", str(packed),
                           "--config", str(tmp_path / "missing.json"))
        assert code == 1
        assert "error:" in err

    def test_values_are_echoed_unconverted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "m": 1, "trials": 5, "j_scale": 1,
                                   "h_law": "shifted-gram", "wishart_p": None}))
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "mc-genericity", "--config", str(cfg),
                         "--json", str(report))
        assert code == 0
        echoed = json.loads(report.read_text())["config"]
        assert echoed["j_scale"] == 1 and isinstance(echoed["j_scale"], int)
        assert echoed["h_law"] == "shifted_gram"

    def test_eps_grid_as_list(self, capsys, tmp_path):
        outputs = []
        for grid in ("0,1e-4", [0, 1e-4]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 2, "m": 1, "eps_grid": grid,
                                       "trials_per_eps": 5}))
            code, out, _ = run(capsys, "perturb-probe", "--config", str(cfg))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "sample", "--count", count)
        assert code == 2
        assert out == ""
        assert "usage error:" in err


class TestBoundaryValues:
    """Non-finite floats and integers below their minimum are usage errors
    in every command, from a flag or from a config file, before anything
    is printed."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["prop1", "--x", "nan"], id="prop1-x-nan"),
        pytest.param(["prop1", "--x", "inf"], id="prop1-x-inf"),
        pytest.param(["dist-unctrb", "--margin", "nan"], id="dist-margin-nan"),
        pytest.param(["mc-genericity", "--j-scale", "nan"], id="mc-j_scale-nan"),
        pytest.param(["mc-genericity", "--j-scale", "inf"], id="mc-j_scale-inf"),
        pytest.param(["mc-genericity", "--b-scale=-inf"], id="mc-b_scale-ninf"),
        pytest.param(["mc-genericity", "--h-law", "shifted-gram", "--gram-eps", "inf"],
                     id="mc-gram_eps-inf"),
        pytest.param(["mc-genericity", "--rank-rel-tol", "nan"], id="mc-rank_rel_tol-nan"),
        pytest.param(["perturb-probe", "--eps-grid", "0,nan"], id="probe-eps_grid-nan"),
        pytest.param(["check", "--pbh-tol", "nan"], id="check-pbh_tol-nan"),
        pytest.param(["validate", "--tol", "inf"], id="validate-tol-inf"),
        pytest.param(["mc-genericity", "--trials", "0"], id="mc-trials-0"),
        pytest.param(["perturb-probe", "--trials-per-eps", "0"], id="probe-trials_per_eps-0"),
        pytest.param(["prop1", "--i-max", "0"], id="prop1-i_max-0"),
        pytest.param(["sample", "--count", "0"], id="sample-count-0"),
        pytest.param(["witness", "--n", "0"], id="witness-n-0"),
        pytest.param(["sample", "--n", "0"], id="sample-n-0"),
        pytest.param(["sample", "--m", "0"], id="sample-m-0"),
        pytest.param(["perturb-probe", "--k", "0"], id="probe-k-0"),
        pytest.param(["perturb-probe", "--max-retries", "-1"], id="probe-max_retries-negative"),
        pytest.param(["dist-unctrb", "--grid-points", "2"], id="dist-grid_points-2"),
        pytest.param(["dist-unctrb", "--refine-levels", "-1"], id="dist-refine_levels-negative"),
    ])
    def test_flag_is_usage_error(self, capsys, tmp_path, argv):
        # --in names a valid system so only the flag under test can fail
        path = witness_file(tmp_path, 2, 1)
        capsys.readouterr()
        if argv[0] in ("dist-unctrb", "check", "validate"):
            argv = argv + ["--in", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("command,text", [
        pytest.param("prop1", '{"x": NaN}', id="x-NaN"),
        pytest.param("mc-genericity", '{"j_scale": Infinity}', id="j_scale-Infinity"),
        pytest.param("mc-genericity", '{"b_scale": -Infinity}', id="b_scale-minus-Infinity"),
        pytest.param("mc-genericity", '{"j_scale": 1e999}', id="j_scale-overflow"),
        pytest.param("perturb-probe", '{"eps_grid": [0, NaN]}', id="eps_grid-list-NaN"),
        pytest.param("mc-genericity", '{"trials": 0}', id="trials-0"),
        pytest.param("perturb-probe", '{"trials_per_eps": -3}', id="trials_per_eps-negative"),
        pytest.param("prop1", '{"i_max": 0}', id="i_max-0"),
        pytest.param("sample", '{"count": 0}', id="count-0"),
        pytest.param("sample", '{"n": 0}', id="n-0"),
        pytest.param("mc-genericity", '{"m": 0}', id="m-0"),
        pytest.param("perturb-probe", '{"k": 0}', id="k-0"),
        pytest.param("perturb-probe", '{"max_retries": -1}', id="max_retries-negative"),
        pytest.param("dist-unctrb", '{"grid_points": 1}', id="grid_points-1"),
        pytest.param("dist-unctrb", '{"refine_levels": -2}', id="refine_levels-negative"),
    ])
    def test_config_value_is_usage_error(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_minimums_are_accepted(self, capsys, tmp_path):
        path = witness_file(tmp_path, 2, 1)
        code, out, _ = run(capsys, "dist-unctrb", "--grid-points", "3", "--refine-levels", "0",
                           "--in", str(path))
        assert code == 0 and out


class TestNonFiniteInput:
    def write(self, tmp_path, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_infinite_h_rejected_by_validate_ph(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "field": "real", "n": 2, "m": 1,
            "J": [[0.0, -1.0], [1.0, 0.0]],
            "H": [[float("inf"), 0.0], [0.0, 1.0]],
            "B": [[1.0], [0.0]],
        })
        code, out, err = run(capsys, "validate", "--ph", "--in", path)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_nan_in_j_rejected_by_validate(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "field": "real", "n": 2, "m": 1,
            "J": [[0.0, float("nan")], [1.0, 0.0]],
            "H": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0], [0.0]],
        })
        code, _, err = run(capsys, "validate", "--in", path)
        assert code == 1
        assert "finite" in err

    def test_nan_coordinate_rejected_by_unpack(self, capsys, tmp_path):
        path = self.write(tmp_path, {"n": 1, "m": 1, "field": "real",
                                     "coords": [float("nan"), 1.0]})
        code, out, err = run(capsys, "unpack", "--in", path)
        assert code == 1
        assert out == ""
        assert "finite" in err
