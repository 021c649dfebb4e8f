import json

import numpy as np
import pytest

from virusgame.cli import main
from virusgame.config import parse_config
from virusgame.dynamics import integrate
from virusgame.risk import risk_profile

SMALL_CONFIG = {
    "n_nodes": 30, "n_sources": 10, "beta": 1e-3, "gamma": 1e-3,
    "delta": 0.1, "delta_s": 0.1, "lambda_influence": 5e-6,
    "x0": 0.0, "s0": 3.0, "infection_cost": 1.0, "update_cost": 0.1,
    "horizon": 300.0, "dt": 0.1,
}

# the Section IV roster: exponential thresholds with the default mean
SECTION_IV_CONFIG = {
    "n_sources": 50, "beta": 1e-4, "gamma": 1e-3, "delta": 0.1,
    "delta_s": 0.1, "lambda_influence": 1e-4, "x0": 0.0, "s0": 10.0,
    "infection_cost": 1.0, "update_cost": 0.1,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def read_trajectory(out_dir):
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,s,x_bar"
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


class TestSimulate:
    def test_writes_trajectory(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path,
                     "--out", str(out)]) == 0
        data = read_trajectory(out)
        assert data[0, 0] == 0.0
        assert data[-1, 0] == pytest.approx(300.0)
        assert str(out / "trajectory.csv") in capsys.readouterr().out

    def test_more_protection_lower_peak(self, config_path, tmp_path):
        lo, hi = tmp_path / "lo", tmp_path / "hi"
        main(["simulate", "--config", config_path, "--p", "0.1",
              "--out", str(lo)])
        main(["simulate", "--config", config_path, "--p", "0.5",
              "--out", str(hi)])
        assert read_trajectory(hi)[:, 1].max() < read_trajectory(lo)[:, 1].max()

    def test_k_and_p_mutually_exclusive(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", config_path, "--p", "0.1",
                  "--k-protected", "3", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    def test_bad_p_rejected(self, config_path, tmp_path):
        code = main(["simulate", "--config", config_path, "--p", "1.5",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("k", ["1000", "-3"])
    def test_k_protected_out_of_range_exits_one(self, config_path, tmp_path,
                                                capsys, k):
        out = tmp_path / "x"
        assert main(["simulate", "--config", config_path, "--k-protected", k,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --k-protected must lie in 0..n_nodes")
        assert not out.exists()

    def test_byte_identical_reruns(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config_path, "--p", "0.2", "--out", str(a)])
        main(["simulate", "--config", config_path, "--p", "0.2", "--out", str(b)])
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


class TestEquilibrium:
    def test_pure_output(self, config_path, capsys):
        assert main(["equilibrium", "--config", config_path,
                     "--mode", "pure"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("psi=")
        assert 0 <= int(out.split("=")[1]) <= SMALL_CONFIG["n_nodes"]

    def test_mixed_output(self, config_path, capsys):
        assert main(["equilibrium", "--config", config_path]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(part.split("=") for part in out.split())
        assert 0.0 <= float(fields["p_star"]) <= 1.0
        assert abs(float(fields["residual"])) <= 1e-9

    def test_mixer_rejection_reported(self, config_path, capsys):
        assert main(["equilibrium", "--config", config_path, "--mode", "mixer",
                     "--n-u", "29", "--n-nu", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("rejected=1")

    @pytest.mark.parametrize("n_u,n_nu", [(20, 11), (-1, 5), (5, -1)])
    def test_mixer_counts_out_of_range_exit_one(self, config_path, capsys,
                                                n_u, n_nu):
        assert main(["equilibrium", "--config", config_path, "--mode", "mixer",
                     "--n-u", str(n_u), "--n-nu", str(n_nu)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --n-u and --n-nu must be")

    def test_bad_mode_exits_one(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["equilibrium", "--config", config_path, "--mode", "bogus"])
        assert exc.value.code == 1


class TestSweep:
    def test_builtin_name_unknown(self, tmp_path):
        code = main(["sweep", "--spec", "not_a_spec",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "toy",
            "config": SMALL_CONFIG,
            "sweep": {"param": "p", "values": [0.1, 0.5]},
            "outputs": ["infection_probability"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        lines = (out / "toy.csv").read_text().splitlines()
        assert lines[0] == "p,infection_probability"
        assert len(lines) == 3
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert probs[0] > probs[1]

    @pytest.mark.parametrize("param,value", [
        ("n_nodes", 100.7),        # a count with a fraction
        ("update_cost", "0.1"),    # a string where a number belongs
        ("k_protected", 500),      # more protected nodes than n_nodes=30
    ])
    def test_bad_sweep_values_refused_at_load(self, tmp_path, capsys,
                                              param, value):
        spec = {
            "name": "toy",
            "config": SMALL_CONFIG,
            "sweep": {"param": param, "values": [value]},
            "outputs": ["infection_probability"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid experiment spec {spec_path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("sweep,outputs", [
        ({"param": "n_nodes", "values": [30, 40]}, []),
        ({"param": "update_cost", "values": [0.1]}, ["p_star", "p_star"]),
    ])
    def test_empty_or_repeated_outputs_refused(self, tmp_path, capsys,
                                               sweep, outputs):
        spec = {"name": "toy", "config": SMALL_CONFIG, "sweep": sweep,
                "outputs": outputs}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid experiment spec {spec_path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "..", "a/b", ""])
    def test_spec_name_escaping_out_refused(self, tmp_path, capsys, name):
        spec = {
            "name": name,
            "config": SMALL_CONFIG,
            "sweep": {"param": "p", "values": [0.1]},
            "outputs": ["infection_probability"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o" / "inner"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid experiment spec {spec_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_spec_extinction_epsilon_reaches_every_output(self, tmp_path,
                                                          capsys):
        """A spec's extinction_epsilon sets the risk tables, the critical
        cost and the trajectories of a sweep, as it does for the other
        subcommands on the same config."""
        config = dict(SECTION_IV_CONFIG, n_nodes=60, horizon=200.0,
                      extinction_epsilon=0.5)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["equilibrium", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.startswith("p_star=0 ")
        cfg = parse_config(config)
        traj = integrate(cfg.params, 6.0, cfg.dist, horizon=200.0,
                         extinction_epsilon=0.5)
        u_c = risk_profile(cfg.params, cfg.dist, horizon=200.0,
                           extinction_epsilon=0.5)[0]  # I_c = 1
        for name, sweep, outputs, row in (
                ("eq", ("update_cost", 0.1), ["p_star", "u_c_star"],
                 f"0.1,0,{u_c:.9g}"),
                ("traj", ("p", 0.1), ["t_f"],
                 f"0.1,{traj.extinction_time:.9g}")):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(json.dumps({
                "name": name, "config": config,
                "sweep": {"param": sweep[0], "values": [sweep[1]]},
                "outputs": outputs}))
            assert main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / "o")]) == 0
            lines = (tmp_path / "o" / f"{name}.csv").read_text().splitlines()
            assert lines[1] == row
        # the default epsilon gives other values, so the spec's was read
        assert traj.extinction_time != integrate(
            cfg.params, 6.0, cfg.dist, horizon=200.0).extinction_time

    def test_non_object_spec_file_exits_one(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]")
        assert main(["sweep", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid experiment spec {spec_path}: ")

    def test_invalid_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--spec", str(bad),
                     "--out", str(tmp_path / "o")]) == 1


class TestOracle:
    def test_comparison_csv(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["oracle", "--config", config_path, "--reps", "100",
                     "--seed", "7", "--k-protected", "5",
                     "--out", str(out)]) == 0
        lines = (out / "oracle_comparison.csv").read_text().splitlines()
        assert lines[0] == "k_protected,n_reps,seed,empirical,std_error,model,abs_diff"
        cells = lines[1].split(",")
        assert cells[:3] == ["5", "100", "7"]
        emp, se, model, diff = map(float, cells[3:])
        assert 0.0 <= emp <= 1.0
        assert diff == pytest.approx(abs(emp - model), rel=1e-8)

    def test_too_few_reps_numerical_or_config(self, config_path, tmp_path):
        code = main(["oracle", "--config", config_path, "--reps", "10",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code != 0

    @pytest.mark.parametrize("args, message", [
        (["--reps", "10"], "need at least 100 replications"),
        (["--reps", "100", "--k-protected", "31"], "k_protected must lie"),
        (["--reps", "100", "--k-protected", "-1"], "k_protected must lie")])
    def test_refused_reps_or_k_exit_one(self, config_path, tmp_path, capsys,
                                        args, message):
        out = tmp_path / "o"
        assert main(["oracle", "--config", config_path, "--seed", "1",
                     "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_one(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["oracle", "--config", config_path, "--reps", "100",
                     "--seed", "-1", "--out", str(out)]) == 1
        assert "error: --seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestConfigHandling:
    def test_dump_config_round_trip(self, config_path, capsys):
        assert main(["dump-config", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        reparsed = parse_config(doc)
        assert reparsed.params.n_nodes == 30
        assert reparsed.params.beta == 1e-3
        assert reparsed.horizon == 300.0
        assert reparsed.dist.kind == "exponential"

    def test_unknown_key_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_nodes": 30, "bogus_key": 1}))
        assert main(["dump-config", "--config", str(bad)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["dump-config", "--config",
                     str(tmp_path / "nope.json")]) == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_no_subcommand_exits_one(self):
        assert main([]) == 1
