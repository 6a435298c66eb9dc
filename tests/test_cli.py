import json
import shlex
import subprocess
import sys
from pathlib import Path

from gsdyn.cli import main
from gsdyn.seminorms import FAMILY_PARAMS


def run_cli(*args, config=None):
    cmd = [sys.executable, "-m", "gsdyn.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_conjugate_json(tmp_path):
    out = tmp_path / "c.json"
    r = run_cli(
        "conjugate", "--weight", "gevrey:2", "--x", "1", "--check",
        "--format", "json", "--output", str(out),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["value"] < 0  # 2 (log 2 - 1)
    assert abs(payload["check"]["gap"]) <= 1e-8


def test_usage_error_exits_2(tmp_path):
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("conjugate", "--weight", "gevrey:2").returncode == 2  # missing --x
    # malformed literals and out-of-range search values, in process
    seminorm = ["seminorm", "--weight", "gevrey:2", "--model"]
    for argv in (
        seminorm + ["gauss:abc"],
        seminorm + ["jet:abc:1=1"],
        seminorm + ["jet:0:x=1"],
        seminorm + ["jet:0:1=1/0"],
        ["poly", "fixed-points", "--psi", "1,abc"],
        ["poly", "fixed-points", "--psi", "1/0,1"],
        ["witness", "repelling", "--x0", "abc"],
        seminorm + ["gauss:1", "--radius", "-1"],
        seminorm + ["gauss:1", "--radius", "0"],
        seminorm + ["gauss:1", "--radius", "nan"],
        seminorm + ["gauss:1", "--radius", "inf"],
        seminorm + ["gauss:1", "--lam", "nan"],
        seminorm + ["gauss:1", "--family", "expq", "--mu", "inf"],
        seminorm + ["gauss:inf"],
        seminorm + ["scaled:nan:gauss:1"],
        seminorm + ["shift:inf:gauss:1"],
        ["witness", "repelling", "--psi", "0,0,1", "--x0", "1", "--lam", "nan", "--m-max", "8"],
        ["witness", "repelling", "--d", "nan"],
        ["witness", "square", "--lam", "nan"],
        ["witness", "square", "--s", "nan"],
        ["witness", "delta", "--lam", "nan"],
        ["witness", "delta", "--delta", "nan"],
        ["conjugate", "--weight", "gevrey:2", "--x", "nan"],
        ["witness", "deg2", "--m-max", "0"],
        ["witness", "fourier", "--tol", "nan"],
        ["witness", "fourier", "--tol", "0"],
        ["witness", "fourier", "--tol", "-1e-6"],
        ["witness", "translation", "--weight", "logpower:inf"],
        ["witness", "deg2", "--a", "inf"],
        ["witness", "rho", "--weight", "gevrey:inf"],
        ["conjugate", "--weight", "gevrey:inf", "--x", "1"],
        ["conjugate", "--weight", "root:inf:gevrey:2", "--x", "1"],
        ["witness", "delta", "--a", "nan"],
        ["witness", "delta", "--a", "inf"],
        ["witness", "fourier", "--b", "nan"],
        ["witness", "fourier", "--b", "inf"],
        # a seminorm parameter the family does not read
        seminorm + ["gauss:1", "--mu", "5"],
        seminorm + ["gauss:1", "--family", "globalp", "--mu", "5"],
        seminorm + ["gauss:1", "--family", "plainp", "--s", "2"],
        seminorm + ["gauss:1", "--family", "expq", "--s", "2"],
        seminorm + ["gauss:1", "--family", "gevreyseq"],
        ["seminorm", "--model", "gauss:1", "--family", "gevreyseq", "--lam", "1"],
    ):
        assert main(argv) == 2, argv
    cfg = tmp_path / "mu.json"
    cfg.write_text(json.dumps({"mu": 5}))
    assert main(seminorm + ["gauss:1", "--config", str(cfg)]) == 2


def test_seminorm_takes_each_family_flag(capsys):
    own = {"weight": "gevrey:2", "lam": 2.0, "mu": 2.0, "s": 1.5}
    for family, keys in FAMILY_PARAMS.items():
        argv = ["--format", "json", "seminorm", "--model", "gauss:1", "--points", "257"]
        for key in ("family",) + keys:
            argv += ["--" + key, str(own.get(key, family))]
        assert main(argv) == 0, argv
        config = json.loads(capsys.readouterr().out)["config"]
        assert all(config[key] == own[key] for key in keys)


def test_logpower_overflow_exits_3(capsys):
    # log(t)^p leaves the double range on the condition grids: a typed limit
    for weight in ("logpower:110", "logpower:200"):
        assert main(["weight-check", "--weight", weight]) == 3
        assert "overflows" in capsys.readouterr().err


def test_dilation_past_double_range_exits_3(capsys, monkeypatch):
    # |a|^m = 2^2000 overflows a double: a typed limit before any rho-construction
    import gsdyn.witnesses as witnesses

    def fail(*args, **kwargs):
        raise AssertionError("rho_construction ran")

    monkeypatch.setattr(witnesses, "rho_construction", fail)
    for a in ("2", "0.5"):
        assert main(["witness", "dilation", "--a", a, "--m", "2000"]) == 3
        assert "dilation factor" in capsys.readouterr().err


def test_bad_weight_exits_2():
    r = run_cli("conjugate", "--weight", "nope:1", "--x", "1")
    assert r.returncode == 2
    for weight in ("gevrey:abc", "root:x:gevrey:2"):
        assert main(["conjugate", "--weight", weight, "--x", "1"]) == 2, weight


def test_expect_mismatch_exits_1():
    r = run_cli(
        "witness", "dilation", "--weight", "gevrey:2", "--a", "1",
        "--k", "1", "--h", "2", "--m", "1", "--ell-max", "3",
        "--expect", "supergeometric",
    )
    assert r.returncode == 1


def test_unexpected_inconclusive_exits_3():
    r = run_cli(
        "witness", "repelling", "--psi", "1/4,0,1", "--x0", "1/2",
        "--d", "2", "--lam", "1", "--m-max", "8",
    )
    assert r.returncode == 3


def test_poly_fixed_points_and_normal_form():
    r = run_cli("poly", "fixed-points", "--psi", "0,0,1", "--format", "json")
    assert r.returncode == 0
    pts = json.loads(r.stdout)["fixed_points"]
    kinds = {p["kind"] for p in pts}
    assert kinds == {"attracting", "repelling"}

    r = run_cli("poly", "normal-form", "--psi", "3,2", "--format", "json")
    assert json.loads(r.stdout)["kind"] == "dilation"


def test_poly_iterate():
    r = run_cli("poly", "iterate", "--psi", "0,0,1", "--m", "3", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["degree"] == 8


def test_csv_series_output():
    r = run_cli(
        "witness", "square", "--s", "2", "--lam", "1", "--m-max", "12",
        "--format", "csv",
    )
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "index,log_value,log_ratio"
    assert len(lines) == 12  # m = 2..12 plus header


def test_json_determinism():
    args = (
        "witness", "delta", "--weight", "gevrey:2", "--a", "2",
        "--delta", "1", "--lam", "1", "--m", "1", "--format", "json",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_empty_suite(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"suite": []}))
    r = run_cli("suite", "--config", str(cfg))
    assert r.returncode == 0


def test_foreign_witness_parameter_exits_2():
    r = run_cli("witness", "square", "--weight", "gevrey:2")
    assert r.returncode == 2
    assert "weight" in r.stderr


def test_suite_entry_with_unknown_param_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    entry = {"witness": "square", "params": {"s": 2.0, "m_max": 12, "points": 64}}
    cfg.write_text(json.dumps({"entries": [entry]}))
    r = run_cli("suite", "--config", str(cfg))
    assert r.returncode == 2
    assert "points" in r.stderr


def test_lambda_aliases_lam():
    args = ("witness", "square", "--s", "2", "--m-max", "12", "--format", "json")
    a = run_cli(*args, "--lam", "2")
    b = run_cli(*args, "--lambda", "2")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["config"]["lam"] == 2.0


def test_negative_rational_values(capsys):
    spaced = run_cli("poly", "fixed-points", "--psi", "-2,0,1", "--format", "json")
    joined = run_cli("poly", "fixed-points", "--psi=-2,0,1", "--format", "json")
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    r = run_cli(
        "witness", "repelling", "--psi", "-3/4,0,1", "--x0", "3/2", "--m-max", "8",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] == "supergeometric"
    # a negative multiplier, psi'(-1) = -2, in process
    argv = ["--format", "json", "witness", "repelling", "--psi=-2,0,1", "--x0=-1", "--m-max", "8"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "supergeometric"


def test_readme_cli_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("gsdyn ")
    ]
    assert len(examples) >= 6
    for argv in examples:
        if argv[0] == "suite":  # the whole battery; criterion 13 runs it
            continue
        r = run_cli(*argv)
        assert r.returncode == 0, (argv, r.stderr)


SEMINORM = ("seminorm", "--model", "gauss:1", "--weight", "gevrey:2", "--format", "json")


def test_config_values_parse_as_flags(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"points": "64", "lam": 3}))
    typed = run_cli(*SEMINORM, "--points", "64", "--lam", "3")
    from_config = run_cli(*SEMINORM, "--config", str(cfg))
    assert typed.returncode == 0, typed.stderr
    assert from_config.returncode == 0, from_config.stderr
    assert from_config.stdout == typed.stdout
    # an explicit flag, here through its alias, wins over the config key
    explicit = run_cli(*SEMINORM, "--config", str(cfg), "--lambda", "2")
    assert explicit.returncode == 0, explicit.stderr
    assert explicit.stdout == run_cli(*SEMINORM, "--points", "64", "--lam", "2").stdout


def test_config_bad_value_exits_2(tmp_path):
    for key, value in (("family", "nope"), ("points", "many"), ("m", 2.5)):
        cfg = tmp_path / ("%s.json" % key)
        cfg.write_text(json.dumps({key: value}))
        r = run_cli(*SEMINORM, "--config", str(cfg))
        assert r.returncode == 2, (key, r.stderr)
        assert "config key %r" % key in r.stderr


def test_deg2_float_overflow_exits_3(capsys):
    # the expanded iterates of this cubic leave the float range: at m = 5 their
    # values overflow at some grid points, where the Gaussian's jets are NaN
    # and must not read as 0, and their own jets turn NaN at m = 6.  Each is a
    # typed limit, not a traceback
    argv = ["witness", "deg2", "--weight", "gevrey:2", "--a", "3", "--psi", "1/3,-2,0,1"]
    for m_max in ("5", "7"):
        assert main(argv + ["--m-max", m_max]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive:") and err.count("\n") == 1
        assert "are NaN from order" in err
