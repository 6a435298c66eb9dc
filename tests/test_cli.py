import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gsdyn.cli as cli
from gsdyn.cli import main
from gsdyn.errors import (
    BoundaryHitError,
    ConfigurationError,
    DomainError,
    GsdynError,
    InconclusiveError,
    ResourceLimitError,
    VerificationError,
)
from gsdyn.weights import FAMILY_PARAMS


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
        seminorm + ["comp:0,abc:gauss:1"],
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
        ["witness", "dilation", "--a", "0"],
        ["witness", "dilation", "--k", "3", "--h", "2"],
        ["witness", "deg2", "--psi", "0,1"],
        ["witness", "deg2", "--a", "2"],
        ["witness", "deg2", "--weight", "logpower:2"],  # not sub-additive
        ["witness", "repelling", "--psi", "0,0,1", "--x0", "2"],  # not a fixed point
        ["witness", "repelling", "--psi", "0,0,1", "--x0", "0"],  # attracting
        ["witness", "translation", "--m-max", "0"],
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
    # every constant of logpower:110 is a double; beta's Gamma(201) is not
    assert main(["weight-check", "--weight", "logpower:110"]) == 0
    capsys.readouterr()
    assert main(["weight-check", "--weight", "logpower:200"]) == 3
    assert "logpow:200" in capsys.readouterr().err


def test_composed_model_literal(capsys):
    # the literal Composed.spec() writes and error messages quote
    argv = ["--format", "json", "seminorm", "--model", "comp:0,0,1:gauss:1", "--weight", "gevrey:2"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["model"] == "comp:0,0,1:gauss:1"


def test_dilation_past_double_range_exits_3(capsys, monkeypatch):
    # |a|^m = 2^2000 overflows a double: a typed limit before any rho-construction
    import gsdyn.witnesses as witnesses

    def fail(*args, **kwargs):
        raise AssertionError("rho_construction ran")

    monkeypatch.setattr(witnesses, "rho_construction", fail)
    for a in ("2", "0.5"):
        assert main(["witness", "dilation", "--a", a, "--m", "2000"]) == 3
        assert "dilation factor" in capsys.readouterr().err


def test_values_past_the_double_range_exit_3(capsys):
    # each was an "inf" or "nan" printed with exit 0, or an OverflowError traceback
    for argv, message in (
        (["conjugate", "--weight", "gevrey:2", "--x", "1e308", "--check"],
         "conjugate of gevrey:2 at x=1e+308 overflows"),
        (["witness", "rho", "--lam", "1e-300"], "rho = e^"),
        (["witness", "fourier", "--b", "1e300"], "closed transform overflows"),
        (["witness", "fourier", "--scale", "1e160"], "closed transform overflows"),
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and message in err, (argv, err)
    assert main(["conjugate", "--weight", "gevrey:2", "--x", "inf"]) == 2
    assert "finite x >= 0" in capsys.readouterr().err


def test_seminorm_lambda_past_the_double_range_names_it(capsys):
    # M / lam is inf at 1e-320 (exit 2) and a conjugate overflow at 1e-305
    # (exit 3); both messages used to name neither the seminorm nor lam
    base = ["seminorm", "--model", "gauss:1", "--weight", "gevrey:2", "--lam"]
    for lam, family, code, message in (
        ("1e-320", "plainp", 2, "error: plainp seminorm of gevrey:2 at lam=1e-320: order 16 / lam"),
        ("1e-305", "plainp", 3, "inconclusive: plainp seminorm of gevrey:2 at lam=1e-305: "
                                "conjugate of gevrey:2 at x=2e+305 overflows"),
        ("1e-305", "expq", 3, "inconclusive: expq seminorm of gevrey:2 at lam=1e-305: "),
    ):
        assert main(base + [lam, "--family", family]) == code, (lam, family)
        err = capsys.readouterr().err
        assert err.startswith(message), err


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


def test_poly_fixed_points_past_the_float_range(capsys):
    # 10^300 is the one integer in its refined cell and a root, so it comes
    # out exact; 10^400 is found too, but its value is past the float range
    assert main(["--format", "json", "poly", "fixed-points", "--psi", "-1e300,2"]) == 0
    (p,) = json.loads(capsys.readouterr().out)["fixed_points"]
    assert p["exact"] and p["location"] == str(10 ** 300) and p["value"] == 1e300
    assert main(["poly", "fixed-points", "--psi", "-1e400,2"]) == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: fixed point at 1.000000000e+400: a value overflows a float\n"


@pytest.mark.parametrize(
    "psi, expected",
    [
        # 10^-20 + (1 + 10^-10) x fixes -10^-10
        ("1/100000000000000000000,1.0000000001", [("-1/10000000000", "repelling")]),
        # x^2 + 1/4 - 10^-20 fixes 1/2 -+ 10^-10
        ("24999999999999999999/100000000000000000000,0,1",
         [("4999999999/10000000000", "attracting"), ("5000000001/10000000000", "repelling")]),
    ],
)
def test_poly_fixed_points_with_denominators_past_a_billion_are_exact(capsys, psi, expected):
    assert main(["--format", "json", "poly", "fixed-points", "--psi", psi]) == 0
    pts = json.loads(capsys.readouterr().out)["fixed_points"]
    assert [(p["location"], p["kind"]) for p in pts] == expected
    assert all(p["exact"] and p["value"] == float(Fraction(p["location"])) for p in pts)


def test_poly_iterate():
    r = run_cli("poly", "iterate", "--psi", "0,0,1", "--m", "3", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["degree"] == 8


def test_poly_takes_m_only_for_iterate(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"m": 7}))
    for action in ("fixed-points", "normal-form"):
        for extra in (["--m", "7"], ["--config", str(cfg)]):
            assert main(["poly", action, "--psi", "3,2"] + extra) == 2, (action, extra)
            err = capsys.readouterr().err
            assert err == "error: poly %s does not take m (it takes psi)\n" % action
    # iterate without --m is the first iterate, and its report says so
    assert main(["--format", "json", "poly", "iterate", "--psi", "0,0,1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["m"], rep["config"]["m"], rep["degree"]) == (1, 1, 2)


def _error_classes(cls=GsdynError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_each_error_class_sets_its_exit_code(monkeypatch, capsys):
    table = {
        GsdynError: (1, "verification failed"),
        VerificationError: (1, "verification failed"),
        DomainError: (2, "error"),
        ConfigurationError: (2, "error"),
        ResourceLimitError: (3, "inconclusive"),
        BoundaryHitError: (3, "inconclusive"),
        InconclusiveError: (3, "inconclusive"),
    }
    classes = set(_error_classes())
    assert classes == set(table)
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_conjugate", fail)
        code = main(["conjugate", "--weight", "gevrey:2", "--x", "1"])
        assert (code, capsys.readouterr().err) == (cls.exit_code, "%s: boom\n" % cls.word)
        assert (cls.exit_code, cls.word) == table[cls]


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


def test_truncation_past_the_jet_cap_exits_3(capsys):
    # the cap is checked before the (m+1) x (m+1) table is built, so a huge
    # --m is the same typed limit as 513, not a MemoryError
    for model in ("gauss:1", "jet:0:0=1"):
        for m in ("513", "100000"):
            argv = ["seminorm", "--model", model, "--weight", "gevrey:2", "--m", m]
            assert main(argv) == 3
            assert "jet order capped at 512 (got %s)" % m in capsys.readouterr().err


def test_grid_past_the_table_cap_exits_3(capsys):
    # an absurd --points is refused before the grid or its jet table is
    # allocated (it was a 36 TiB MemoryError traceback), so it exits at once
    argv = ["--format", "json", "seminorm", "--model", "gauss:1", "--weight", "gevrey:2",
            "--points", "10000000000000"]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: grid jet table capped at") and "Traceback" not in err


def test_seminorm_inconclusive_paths_exit_3(capsys):
    # eval_seminorm's two reachable InconclusiveErrors, each with its message
    for argv, message in (
        (["seminorm", "--model", "gauss:1", "--weight", "gevrey:2", "--m", "4"],
         "attainment too close to the truncation cut j+q <= 4"),
        (["witness", "rho", "--model", "gauss:1", "--weight", "logpower:3", "--lam", "2", "--m", "1"],
         "truncation cap 256 reached without a tail certificate"),
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == "inconclusive: %s\n" % message


# weight literal -> (exit code, first word of stderr) of weight-check,
# conjugate --x 1 and the plainp and expq seminorms of gauss:1.  A root folds
# into d or the log scale when it is built, so one check covers every command
WEIGHT_CORPUS = {
    "gevrey:2": (0, ""),
    "logpow:2": (0, ""),
    "root:3:gevrey:2": (0, ""),
    "root:3:logpow:2": (0, ""),
    "root:2:root:3:logpow:2": (0, ""),
    "root:1e300:logpow:2": (3, "inconclusive:"),  # its constants and conjugates overflow
    "root:1e300:root:1e300:gevrey:2": (3, "inconclusive:"),  # d a overflows
    "root:1e300:root:1e300:logpow:2": (3, "inconclusive:"),  # scale a overflows
    "root:inf:gevrey:2": (2, "error:"),
}


def test_weight_corpus_exit_codes(capsys):
    commands = (
        ["weight-check"],
        ["conjugate", "--x", "1"],
        ["seminorm", "--model", "gauss:1", "--family", "plainp"],
        ["seminorm", "--model", "gauss:1", "--family", "expq"],
    )
    for spec, (code, word) in WEIGHT_CORPUS.items():
        for command in commands:
            assert main(command + ["--weight", spec]) == code, (spec, command)
            err = capsys.readouterr().err
            assert (err.split() or [""])[0] == word, (spec, command, err)
    # a message names the weight as written, at the x given
    assert main(["conjugate", "--weight", "root:1e300:logpow:2", "--x", "1"]) == 3
    assert capsys.readouterr().err == "inconclusive: conjugate of root:1e+300:logpow:2 at x=1 overflows\n"
    assert main(["weight-check", "--weight", "root:1e300:root:1e300:gevrey:2"]) == 3
    assert "root:1e+300:root:1e+300:gevrey:2" in capsys.readouterr().err


def test_iterate_past_the_work_cap_exits_3(capsys):
    # degree 2^12 = 4096 is inside the degree cap, but the coefficients would
    # run to tens of thousands of bits: refused before any expansion
    start = time.perf_counter()
    assert main(["poly", "iterate", "--psi", "111/25,-39/10,1", "--m", "12"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds the work cap" in capsys.readouterr().err


def test_closed_output_pipe_exits_141():
    # reports past and within one pipe buffer; the reader is gone before either is
    # written, and stdout is block-buffered as it is on a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for psi, m in (("0,0,2", "12"), ("0,0,1", "1")):
        argv = [sys.executable, "-m", "gsdyn.cli", "poly", "iterate", "--psi", psi, "--m", m]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141, err
        assert "Traceback" not in err and "Exception ignored" not in err, err


def test_directory_as_output_or_config_exits_2(tmp_path):
    for flag in ("--output", "--config"):
        r = run_cli(flag, str(tmp_path), "poly", "iterate", "--psi", "0,0,1")
        assert r.returncode == 2, (flag, r.stderr)
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr, (flag, r.stderr)
