"""Command-line interface: every operation as a subcommand, plus a suite runner.

Reports are deterministic: JSON with sorted keys, CSV for plot series, or a
short pretty text.  Exit codes: 0 success, 1 verdict mismatch or verification
failure, 2 usage error, 3 resource limit / inconclusive result.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from importlib import resources
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .conjugate import young_conjugate
from .errors import (
    BoundaryHitError,
    ConfigurationError,
    DomainError,
    GsdynError,
    InconclusiveError,
    ResourceLimitError,
    VerificationError,
)
from .jets import Gaussian, parse_model
from .polynomials import (
    AllPointsFixed,
    Polynomial,
    fixed_points,
    iterate,
    normal_form_degree1,
)
from .seminorms import FAMILIES, FAMILY_PARAMS, SearchSpec, SeminormSpec, eval_seminorm
from .weights import CONDITIONS, check_all_conditions, check_condition, parse_weight
from .witnesses import (
    fourier_scaling_check,
    rho_construction,
    witness_deg2_topologizable,
    witness_dilation_blowup,
    witness_dilation_delta,
    witness_repelling,
    witness_square,
    witness_translation,
)

USAGE_EXIT = 2
MISMATCH_EXIT = 1
RESOURCE_EXIT = 3


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if obj == float("-inf"):
            return "-inf"
        if obj == float("inf"):
            return "inf"
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _json_safe(obj.item())
    return obj


def _emit(report: dict, args, csv_rows: Optional[List[str]] = None) -> None:
    fmt = args.format
    if fmt == "csv" and csv_rows is None:
        raise ConfigurationError("this subcommand has no CSV series")
    if fmt == "json":
        text = json.dumps(_json_safe(report), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = "\n".join(csv_rows) + "\n"
    else:
        text = _pretty(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pretty(report: dict, indent: int = 0) -> str:
    lines: List[str] = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (pad, key))
            lines.append(_pretty(val, indent + 1).rstrip("\n"))
        elif isinstance(val, (list, tuple)):
            lines.append("%s%s: %s" % (pad, key, json.dumps(_json_safe(val))))
        else:
            lines.append("%s%s: %s" % (pad, key, val))
    return "\n".join(lines) + "\n"


def _series_csv(series_dict: dict) -> List[str]:
    rows = ["index,log_value,log_ratio"]
    for p in series_dict["points"]:
        ratio = "" if p["log_ratio"] is None else repr(p["log_ratio"])
        rows.append("%d,%r,%s" % (p["index"], p["log_value"], ratio))
    return rows


def _check_expect(expect: Optional[str], verdict: str) -> int:
    if expect is not None and expect != verdict:
        sys.stderr.write("expected %s, got %s\n" % (expect, verdict))
        return MISMATCH_EXIT
    if expect is None and verdict == "inconclusive":
        return RESOURCE_EXIT
    return 0


# --------------------------------------------------------------------------
# witness dispatch (shared by `witness` and `suite`)
# --------------------------------------------------------------------------


class Param(NamedTuple):
    """A witness parameter: its type on the command line, its default, and the
    allowed values where the set is closed."""

    type: type
    default: object
    choices: Optional[Tuple[str, ...]] = None


class Witness(NamedTuple):
    params: Dict[str, Param]
    run: Callable[..., Tuple[dict, str]]  # typed params -> (payload, verdict)


def _series(series) -> Tuple[dict, str]:
    return series.to_dict(), series.classification


def _run_deg2(weight, a, psi, lam, m_max) -> Tuple[dict, str]:
    rep = witness_deg2_topologizable(parse_weight(weight), a, Polynomial.parse(psi), lam, m_max)
    return rep.to_dict(), "finite" if rep.all_finite else "unbounded"


def _run_delta(weight, a, delta, lam, m) -> Tuple[dict, str]:
    rep = witness_dilation_delta(parse_weight(weight), a, delta, lam, m)
    payload = {"D": rep.d, "log_D": rep.log_d, "j_star": rep.j_star, "scanned": rep.scanned}
    return payload, "finite"


def _run_rho(model, weight, lam, m, direction) -> Tuple[dict, str]:
    rc = rho_construction(parse_model(model), parse_weight(weight), lam, m, direction)
    payload = {
        "rho": rc.rho,
        "log_rho": rc.log_rho,
        "dominance": rc.dominance,
        "direction": rc.direction,
        "attainment": {"j": rc.attainment[0], "q": rc.attainment[1], "x": rc.attainment[2]},
        "truncation_m": rc.truncation_m,
    }
    return payload, "dominant"


def _run_fourier(scale, b, tol) -> Tuple[dict, str]:
    if not 0 < tol < math.inf:  # NaN fails this too
        raise DomainError("fourier tolerance must be finite and > 0, got %r" % (tol,))
    rep = fourier_scaling_check(Gaussian(scale), b)
    payload = {"b": rep.b, "max_error": rep.max_error, "eta_count": rep.eta_count}
    return payload, "pass" if rep.max_error < tol else "fail"


# The one description of each witness: argparse flags, `witness` and `suite`
# all derive from it.  Runners call the witness functions by their module
# names (not stored references), so rebinding those names reaches every call.
WITNESSES: Dict[str, Witness] = {
    "translation": Witness(
        dict(weight=Param(str, "gevrey:2"), lam=Param(float, 1.0), mu=Param(float, 1.0),
             model=Param(str, "gauss:1"), m_max=Param(int, 15)),
        lambda weight, lam, mu, model, m_max: _series(
            witness_translation(parse_weight(weight), lam, mu, parse_model(model), m_max)),
    ),
    "dilation": Witness(
        dict(weight=Param(str, "gevrey:2"), a=Param(float, 2.0), k=Param(float, 1.0),
             h=Param(float, 2.0), m=Param(int, 1), ell_max=Param(int, 8)),
        lambda weight, a, k, h, m, ell_max: _series(
            witness_dilation_blowup(parse_weight(weight), a, k, h, m, ell_max)),
    ),
    "repelling": Witness(
        dict(psi=Param(str, "0,0,1"), x0=Param(str, "1"), d=Param(float, 2.0),
             lam=Param(float, 1.0), m_max=Param(int, 20)),
        lambda psi, x0, d, lam, m_max: _series(
            witness_repelling(Polynomial.parse(psi), x0, d, lam, m_max)),
    ),
    "square": Witness(
        dict(s=Param(float, 2.0), lam=Param(float, 1.0), m_max=Param(int, 60)),
        lambda s, lam, m_max: _series(witness_square(s, lam, m_max)),
    ),
    "deg2": Witness(
        dict(weight=Param(str, "gevrey:2"), a=Param(float, 3.0), psi=Param(str, "0,0,1"),
             lam=Param(float, 1.0), m_max=Param(int, 5)),
        _run_deg2,
    ),
    "delta": Witness(
        dict(weight=Param(str, "gevrey:2"), a=Param(float, 2.0), delta=Param(float, 1.0),
             lam=Param(float, 1.0), m=Param(int, 1)),
        _run_delta,
    ),
    "rho": Witness(
        dict(model=Param(str, "gauss:1"), weight=Param(str, "gevrey:2"), lam=Param(float, 1.0),
             m=Param(int, 2),
             direction=Param(str, "derivative", ("derivative", "polynomial"))),
        _run_rho,
    ),
    "fourier": Witness(
        dict(scale=Param(float, 1.0), b=Param(float, 2.0), tol=Param(float, 1e-6)),
        _run_fourier,
    ),
}


def _run_witness(name: str, params: dict) -> Tuple[dict, str]:
    """Returns (payload, verdict).  `params` is left as given (it is echoed in
    reports); numbers are coerced on a copy, strings are passed through."""
    witness = WITNESSES.get(name)
    if witness is None:
        raise ConfigurationError("unknown witness %r" % (name,))
    foreign = sorted(set(params) - set(witness.params))
    if foreign:
        raise ConfigurationError(
            "witness %s does not take %s (it takes %s)"
            % (name, ", ".join(foreign), ", ".join(sorted(witness.params)))
        )
    typed = {}
    for key, p in witness.params.items():
        value = params.get(key, p.default)
        typed[key] = value if p.type is str else p.type(value)
    return witness.run(**typed)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _given(args, keys) -> dict:
    """The flags among keys that are set, on the command line or by --config."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _cmd_conjugate(args) -> int:
    w = parse_weight(args.weight)
    val = young_conjugate(w, args.x, method=args.method)
    report = {
        "command": "conjugate",
        "config": {"weight": args.weight, "x": args.x, "method": args.method},
        "value": val,
    }
    if args.check:
        closed = young_conjugate(w, args.x, method="closed")
        numeric = young_conjugate(w, args.x, method="numeric")
        gap = abs(closed - numeric)
        report["check"] = {"closed": closed, "numeric": numeric, "gap": gap}
        if gap > 1e-8 * max(1.0, abs(closed)):
            _emit(report, args)
            return MISMATCH_EXIT
    _emit(report, args)
    return 0


def _cmd_weight_check(args) -> int:
    w = parse_weight(args.weight)
    if args.condition:
        reports = {args.condition: check_condition(w, args.condition).to_dict()}
    else:
        reports = {rep.condition: rep.to_dict() for rep in check_all_conditions(w)}
    report = {
        "command": "weight-check",
        "config": {"weight": args.weight, "condition": args.condition},
        "conditions": reports,
    }
    _emit(report, args)
    return 0


def _cmd_seminorm(args) -> int:
    given = _given(args, ("weight", "lam", "mu", "s"))
    takes = FAMILY_PARAMS[args.family]
    foreign = sorted(set(given) - set(takes))
    if foreign:
        raise ConfigurationError(
            "seminorm family %s does not take %s (it takes %s)"
            % (args.family, ", ".join(foreign), ", ".join(takes))
        )
    if "weight" in given:
        given["weight"] = parse_weight(args.weight)
    spec = SeminormSpec(args.family, **given)
    search = _given(args, ("points", "radius", "m"))
    rep = eval_seminorm(parse_model(args.model), spec, SearchSpec(**search))
    report = {
        "command": "seminorm",
        "config": {
            "model": args.model,
            "family": args.family,
            "weight": args.weight,
            "lam": args.lam,
            "mu": args.mu,
            "s": args.s,
        },
        "result": rep.to_dict(),
    }
    _emit(report, args)
    return 0


def _cmd_poly(args) -> int:
    psi = Polynomial.parse(args.psi)
    config = {"action": args.action, "psi": args.psi}
    if args.action == "iterate":
        out = iterate(psi, args.m)
        payload = {"m": args.m, "iterate": out.spec(), "degree": out.degree}
        config["m"] = args.m
    elif args.action == "fixed-points":
        pts = fixed_points(psi)
        if isinstance(pts, AllPointsFixed):
            payload = {"all_points_fixed": True, "fixed_points": []}
        else:
            payload = {
                "all_points_fixed": False,
                "fixed_points": [
                    {
                        "location": str(p.location)
                        if p.exact
                        else [str(p.location[0]), str(p.location[1])],
                        "value": p.value,
                        "multiplier": p.multiplier,
                        "kind": p.kind,
                        "exact": p.exact,
                    }
                    for p in pts
                ],
            }
    else:
        nf = normal_form_degree1(psi)
        payload = {
            "kind": nf.kind,
            "a": None if nf.a is None else str(nf.a),
            "normal_form": nf.poly.spec(),
            "conjugator": {"alpha": str(nf.conjugator.alpha), "beta": str(nf.conjugator.beta)},
        }
    report = {"command": "poly", "config": config}
    report.update(payload)
    _emit(report, args)
    return 0


def _witness_keys() -> Dict[str, List[Tuple[str, Param]]]:
    """Every witness parameter, with the witnesses that take it."""
    keys: Dict[str, List[Tuple[str, Param]]] = {}
    for name, witness in WITNESSES.items():
        for key, param in witness.params.items():
            keys.setdefault(key, []).append((name, param))
    return keys


def _cmd_witness(args) -> int:
    params = _given(args, _witness_keys())
    payload, verdict = _run_witness(args.name, params)
    report = {
        "command": "witness",
        "witness": args.name,
        "config": params,
        "report": payload,
        "verdict": verdict,
    }
    csv_rows = _series_csv(payload) if "points" in payload else None
    _emit(report, args, csv_rows)
    return _check_expect(args.expect, verdict)


def _suite_entry(entry: dict) -> dict:
    name = entry.get("witness")
    params = dict(entry.get("params", {}))
    expect = entry.get("expect")
    allow_inc = bool(entry.get("allow_inconclusive", False))
    try:
        payload, verdict = _run_witness(name, params)
    except (ResourceLimitError, InconclusiveError, BoundaryHitError) as exc:
        payload, verdict = {"error": str(exc)}, "inconclusive"
    if verdict == "inconclusive":
        status = "inconclusive" if allow_inc else "fail"
    elif expect is None or expect == verdict:
        status = "pass"
    else:
        status = "fail"
    return {
        "name": entry.get("name", name),
        "witness": name,
        "params": params,
        "expect": expect,
        "verdict": verdict,
        "status": status,
        "report": payload,
    }


def _cmd_suite(args) -> int:
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError("malformed suite config: %s" % exc)
    else:
        text = (
            resources.files("gsdyn").joinpath("suites/default.suite").read_text()
        )
        config = json.loads(text)
    entries = config.get("entries", [])
    if not isinstance(entries, list):
        raise ConfigurationError("suite config needs an 'entries' list")
    results = [_suite_entry(e) for e in entries]
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in results:
        counts[r["status"]] += 1
    report = {
        "command": "suite",
        "config": {"path": args.config or "default.suite"},
        "summary": counts,
        "entries": results,
    }
    _emit(report, args)
    return 0 if counts["fail"] == 0 else MISMATCH_EXIT


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsdyn",
        description="Computable Gelfand-Shilov dynamics: conjugates, seminorms, "
        "polynomial iteration, and growth witnesses.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default="pretty",
        help="report format (default pretty)",
    )
    parser.add_argument("--output", default=None, help="write the report to a file")
    parser.add_argument(
        "--config", default=None, help="JSON file with flag defaults (or suite file)"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default=argparse.SUPPRESS
    )
    common.add_argument("--output", default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", parents=[common], help="Young conjugate values")
    p.add_argument("--weight", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--method", choices=("closed", "numeric"), default="closed")
    p.add_argument("--check", action="store_true", help="cross-check closed vs numeric")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("weight-check", parents=[common], help="weight condition reports")
    p.add_argument("--weight", required=True)
    p.add_argument("--condition", choices=CONDITIONS, default=None)
    p.set_defaults(func=_cmd_weight_check)

    p = sub.add_parser("seminorm", parents=[common], help="seminorm evaluation", description=(
        "Each family takes only its own parameter flags; any other exits 2. "
        + "; ".join("%s: --%s" % (f, " --".join(keys)) for f, keys in FAMILY_PARAMS.items())))
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=FAMILIES, default="plainp")
    p.add_argument("--weight", default=None)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--m", type=int, default=None, help="fixed truncation order")
    p.set_defaults(func=_cmd_seminorm)

    p = sub.add_parser("poly", parents=[common], help="exact polynomial dynamics")
    p.add_argument("action", choices=("iterate", "fixed-points", "normal-form"))
    p.add_argument("--psi", required=True, help="ascending coefficients, e.g. 0,0,1")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser(
        "witness",
        parents=[common],
        help="growth experiments with verdicts",
        description="Each witness takes only the flags that name it below; "
        "any other flag exits 2.",
    )
    p.add_argument("name", choices=tuple(WITNESSES))
    for key, takers in sorted(_witness_keys().items()):
        flags = ["--" + key.replace("_", "-")] + (["--lambda"] if key == "lam" else [])
        by_default: Dict[str, List[str]] = {}
        for name, param in takers:
            by_default.setdefault(str(param.default), []).append(name)
        p.add_argument(
            *flags,
            dest=key,
            type=takers[0][1].type,  # one type per key across witnesses
            choices=takers[0][1].choices,
            default=None,
            help="; ".join("%s: default %s" % ("/".join(n), d) for d, n in by_default.items()),
        )
    p.add_argument("--expect", default=None, help="required verdict; mismatch exits 1")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("suite", parents=[common], help="run a declared list of witnesses")
    p.set_defaults(func=_cmd_suite)

    return parser


def _apply_config(parser: argparse.ArgumentParser, args, argv: List[str]):
    """--config JSON keys act as their flags for the flags not given on the
    command line: each is parsed again, right after the subcommand, so it gets
    the flag's type and choices, and an alias given explicitly still wins.
    Keys the subcommand does not take are ignored."""
    if not args.config or args.command == "suite":
        return args
    with open(args.config) as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError("malformed config: %s" % exc)
    at = 0  # the subcommand; every option before it takes one value
    while argv[at].startswith("-"):
        at += 1 if "=" in argv[at] else 2
    explicit = {tok.split("=")[0] for tok in argv if tok.startswith("--")}
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if flag in explicit or not hasattr(args, key.replace("-", "_")):
            continue
        token = [flag] if value is True else [] if value is False else ["%s=%s" % (flag, value)]
        argv = argv[: at + 1] + token + argv[at + 1 :]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            raise ConfigurationError("config key %r: %r is not a value of %s" % (key, value, flag))
    return args


def _join_negative_values(argv: List[str]) -> List[str]:
    """`--flag -2,0,1` -> `--flag=-2,0,1`.  argparse reads a token with a leading
    `-` as an option unless it looks like a plain negative number; no gsdyn
    option starts with `-<digit>`, so after a long flag such a token is a value."""
    out: List[str] = []
    for tok in argv:
        if out and re.match(r"-\.?\d", tok) and re.fullmatch(r"--[a-z][a-z0-9-]*", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0,) else 0
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except (DomainError, ConfigurationError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    except (ResourceLimitError, InconclusiveError, BoundaryHitError) as exc:
        sys.stderr.write("inconclusive: %s\n" % exc)
        return RESOURCE_EXIT
    except (VerificationError, GsdynError) as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return MISMATCH_EXIT
    except FileNotFoundError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
