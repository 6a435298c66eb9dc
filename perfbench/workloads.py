"""The benchmark's three workloads: seeded inputs, operations and checks.

Every operation is an `Op`: `run` is the timed call, `check` runs after the
timed region and returns the discrete outputs that go into the digest (it
raises `WrongOutput` when the theory or the package's own certificate says
the output is wrong).  `defect` names a recorded package defect that the op
is expected to hit at the seed commit; its failure then counts in `failed`
without making the run incorrect (see NOTES.md).

Each workload isolates one engine so that a change to one layer has a
workload that exercises it and one that must stay flat:

* exact-dynamics  -> polynomials (exact iteration, Sturm isolation) and the
  exact Fraction track of jets; seminorms do nothing here.
* seminorm-search -> seminorms, Hermite/Faa di Bruno grid jets, Young
  conjugates; polynomials do almost nothing here.
* cli-cold        -> the import and argument handling every command pays;
  compute layers are a small share of each process.

Inputs of the in-process workloads are stratified: the cost-setting
parameters of each stratum are fixed, and the seed draws the values that do
not change the arithmetic cost (signs, mirror images, operation order, which
results are re-checked).  cli-cold draws its command arguments freely, since
each of its processes is dominated by the import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

NOMINAL_ROUND_S = 30.0  # about the length of one round of each workload

WEIGHTS = ("gevrey:1.5", "gevrey:2", "gevrey:3", "logpower:2", "logpower:3", "root:2:gevrey:2")
SUBADDITIVE = ("gevrey:1.5", "gevrey:2", "gevrey:3", "root:2:gevrey:2")
LAMS = (0.5, 1.0, 2.0)
SPATIAL_FAMILIES = ("plainp", "globalp", "expq")
# logpower:3 at lambda = 2 needs a truncation past m_cap = 256 in the deep
# (rho / dilation) searches and ends InconclusiveError (exit 3); see NOTES.md.
DEEP_EXCLUDED = {("logpower:3", 2.0)}
# |a| = 2 dilation blow-up on a closed-form (Gevrey) and a numeric-conjugate
# (log-power) weight; the seed draws the sign of a.  A seeded weight pair
# moved wall_s by 10% between seeds.
DILATION_WEIGHTS = ("gevrey:2", "logpower:2")
LOWER_GROWTH = ("constant", "bounded", "atmostgeometric")
ORACLE_SAMPLES = 8  # shallow evaluations per round re-checked on a 10x grid
# logpower:3 is left out of the CLI's seminorm commands: at lambda >= 1 it
# searches to M = 64-128, and cli-cold is meant to measure start-up.
CLI_WEIGHTS = tuple(w for w in WEIGHTS if w != "logpower:3")

# exact-dynamics slots: (multiplier alpha, x0, c) for
# psi(x) = x0 + alpha (x - x0) + c (x - x0)^2.  The seed flips each slot to
# its mirror image -psi(-x) (x0 -> -x0, c -> -c), which has the same
# coefficient heights and so the same exact-arithmetic cost.
EXACT_SLOTS = (
    (Fraction(2), Fraction(4, 3), Fraction(1, 2)),
    (Fraction(3), Fraction(3, 2), Fraction(2, 3)),
    (Fraction(3, 2), Fraction(5, 3), Fraction(3, 2)),
    (Fraction(5, 2), Fraction(1, 2), Fraction(4, 3)),
    (Fraction(2), Fraction(6, 5), Fraction(1)),
    (Fraction(3), Fraction(4, 3), Fraction(-1)),
    (Fraction(2), Fraction(5, 3), Fraction(3, 2)),
    (Fraction(1), Fraction(4, 3), Fraction(5, 2)),
    (Fraction(1), Fraction(3, 2), Fraction(4, 3)),
    (Fraction(1), Fraction(7, 5), Fraction(1)),
    (Fraction(1), Fraction(5, 3), Fraction(1, 2)),
    (Fraction(-2), Fraction(5, 3), Fraction(3, 2)),
    (Fraction(-3), Fraction(3, 2), Fraction(4, 3)),
    (Fraction(-3, 2), Fraction(6, 5), Fraction(1)),
)
REPELLING_M_MAX = 9  # exact iterates up to degree 2^9 = 512
FIXED_POINT_ITERATES = (4, 5)  # fixed_points on psi^4 and psi^5 (degree 16 and 32)

DEFECT_SIGN = "witness_repelling loses the sign of a negative multiplier"
DEFECT_ARGV = "argparse rejects '--psi -a,b,c' (README form) for a negative constant term"


class WrongOutput(Exception):
    """A completed operation returned an output the checks reject."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    defect: Optional[str] = None
    defect_marker: str = ""  # text the defect's error carries


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def rounds(seconds: int) -> int:
    return max(1, int(round(seconds / NOMINAL_ROUND_S)))


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, rnd))


def quadratic(alpha: Fraction, x0: Fraction, c: Fraction):
    from gsdyn.polynomials import Polynomial

    return Polynomial.of([x0 - alpha * x0 + c * x0 * x0, alpha - 2 * c * x0, c])


# --------------------------------------------------------------------------
# exact-dynamics
# --------------------------------------------------------------------------


def exact_dynamics(seed: int, seconds: int) -> List[Op]:
    from gsdyn import polynomials as P
    from gsdyn import witnesses as W

    ops: List[Op] = []
    for rnd in range(rounds(seconds)):
        rng = _rng("exact-dynamics", seed, rnd)
        round_ops: List[Op] = []
        for alpha, x0, c in EXACT_SLOTS:
            if rng.random() < 0.5:
                x0, c = -x0, -c
            psi = quadratic(alpha, x0, c)
            round_ops.append(_repelling_op(W, psi, x0, alpha))
            for m in FIXED_POINT_ITERATES:
                round_ops.append(_fixed_points_op(P, psi, x0, alpha, m))
        s, lam = rng.choice((1.5, 2.0)), rng.choice(LAMS)
        round_ops.append(Op("square", lambda s=s, lam=lam: W.witness_square(s, lam, 60), _check_square))
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def _repelling_op(W, psi, x0: Fraction, alpha: Fraction) -> Op:
    neutral = abs(alpha) == 1

    def check(series) -> list:
        expect(series.classification == ("inconclusive" if neutral else "supergeometric"),
               "repelling %s: verdict %s" % (psi.spec(), series.classification))
        expect(series.details["jet_rel_err"] <= 1e-9, "repelling %s: jet_rel_err" % psi.spec())
        return [psi.spec(), series.classification]

    return Op(
        "repelling",
        lambda: W.witness_repelling(psi, x0, 2.0, 1.0, REPELLING_M_MAX),
        check,
        defect=DEFECT_SIGN if alpha < 0 else None,
        defect_marker="lost the sign",
    )


def _fixed_points_op(P, psi, x0: Fraction, alpha: Fraction, m: int) -> Op:
    def check(points) -> list:
        hits = [p for p in points if p.exact and p.location == x0]
        expect(len(hits) == 1, "fixed_points(psi^%d) misses x0 = %s" % (m, x0))
        expect(hits[0].multiplier == float(abs(alpha) ** m),
               "fixed_points(psi^%d): multiplier %r at x0" % (m, hits[0].multiplier))
        return [psi.spec(), m, len(points),
                sorted((str(p.location), p.kind) for p in points if p.exact)]

    return Op("fixed_points", lambda: P.fixed_points(P.iterate(psi, m)), check)


def _check_square(series) -> list:
    expect(series.classification == "supergeometric", "square: %s" % series.classification)
    d = series.details
    expect(d["jet_falling_factorials_exact"] and d["inequality_chain_ok"], "square certificates")
    return [series.classification, d["divergence_first_above_one"]]


# --------------------------------------------------------------------------
# seminorm-search
# --------------------------------------------------------------------------


def _model(i: int, rng: random.Random):
    """Model of stratum i: the kind and magnitude are fixed, the seed draws the sign.

    The magnitudes are in the range of the tests (gauss:1, gauss:2, a scaling
    by 2, shifts by 1 and 1.5).  A sign flip mirrors the function on the
    symmetric grid, so it leaves the search depth and cost unchanged.
    """
    from gsdyn.jets import Gaussian, Scaled, Translated

    sign = rng.choice((-1.0, 1.0))
    kind, size = i % 3, (i // 3) % 2
    if kind == 0:
        return Gaussian(1.0 + size)
    if kind == 1:
        return Scaled(Gaussian(1.0), sign * 2.0)
    return Translated(Gaussian(1.0), sign * (1.0 + 0.5 * size))


def seminorm_search(seed: int, seconds: int) -> List[Op]:
    from gsdyn import seminorms as S
    from gsdyn import witnesses as W
    from gsdyn.jets import Gaussian
    from gsdyn.polynomials import Polynomial
    from gsdyn.weights import parse_weight

    ops: List[Op] = []
    for rnd in range(rounds(seconds)):
        rng = _rng("seminorm-search", seed, rnd)
        # shallow: every family x weight x lambda once
        shallow = [(fam, w, lam) for fam in SPATIAL_FAMILIES for w in WEIGHTS for lam in LAMS]
        shallow += [("gevreyseq", None, s) for s in (1.5, 2.0, 3.0)]
        oracle = set(rng.sample(range(len(shallow)), ORACLE_SAMPLES))
        round_ops: List[Op] = []
        for i, (fam, w, par) in enumerate(shallow):
            model = _model(i, rng)
            if fam == "gevreyseq":
                spec = S.SeminormSpec(fam, None, mu=1.0, s=par)
            else:
                spec = S.SeminormSpec(fam, parse_weight(w), lam=par)
            round_ops.append(_eval_op(S, model, spec, i in oracle))
        # deep: the rho-construction on every certifiable weight x lambda
        deep = [(w, lam) for w in WEIGHTS for lam in LAMS if (w, lam) not in DEEP_EXCLUDED]
        for i, (w, lam) in enumerate(deep):
            m, direction = 1 + i % 3, ("derivative", "polynomial")[i % 2]
            round_ops.append(Op(
                "rho",
                lambda w=parse_weight(w), lam=lam, m=m, d=direction:
                    W.rho_construction(Gaussian(1.0), w, lam, m, d),
                lambda rc, m=m: _check_rho(rc, m),
            ))
        for w in DILATION_WEIGHTS:
            round_ops.append(_dilation_op(W, parse_weight(w), rng.choice((-2.0, 2.0))))
        # the suite's identity and reflection entries
        for a in (1.0, -1.0):
            round_ops.append(_dilation_op(W, parse_weight("gevrey:2"), a))
        # translation and deg2 take lambda from the stratum: a seeded lambda
        # moved their cost across the op_tail_s position.  deg2 runs to
        # m_max = 3 (degree 8, as in the CLI example): at m_max = 4 or 5 its
        # 0.5-0.9 s put the four deg2 operations on the op_tail_s rank.
        for i, w in enumerate(WEIGHTS):
            lam = (0.5, 1.0)[i % 2]
            round_ops.append(Op(
                "translation",
                lambda w=parse_weight(w), lam=lam: W.witness_translation(w, lam, 1.0, Gaussian(1.0), 6),
                _check_translation,
            ))
        x2 = Polynomial.parse("0,0,1")
        for i, w in enumerate(SUBADDITIVE):
            lam = LAMS[i % 3]
            round_ops.append(Op(
                "deg2",
                lambda w=parse_weight(w), lam=lam: W.witness_deg2_topologizable(w, 3.0, x2, lam, 3),
                _check_deg2,
            ))
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def _eval_op(S, model, spec, oracle: bool) -> Op:
    from gsdyn.jets import Translated

    def check(rep) -> list:
        expect(math.isfinite(rep.log_value), "eval_seminorm %s: value" % model.spec())
        if oracle and rep.truncation_m <= 32:
            # criterion 09's oracle: a 10x denser unrefined grid agrees to 1e-6.
            # The grid is log-spaced about 0, so for a shifted model it is
            # coarse at the peak and only a lower bound: there it must not
            # beat the result, and the result may beat it.
            dense = S.eval_seminorm(model, spec, S.SearchSpec(points=20480, refine=False, m=40))
            gap = dense.log_value - rep.log_value
            if isinstance(model, Translated):
                gap = max(gap, 0.0)
            expect(abs(gap) <= 1e-6 * max(1.0, abs(rep.log_value)),
                   "eval_seminorm %s %s: dense grid %r vs %r"
                   % (model.spec(), spec.describe(), dense.log_value, rep.log_value))
        return [model.spec(), spec.family, rep.j, rep.q, rep.truncation_m]

    return Op("eval_seminorm", lambda: S.eval_seminorm(model, spec), check)


def _check_rho(rc, m: int) -> list:
    j, q, _ = rc.attainment
    expect(rc.dominance == m and (j - q if rc.direction == "derivative" else q - j) >= m,
           "rho-construction misses dominance %d" % m)
    return [rc.direction, m, j, q, rc.truncation_m]


def _dilation_op(W, w, a: float) -> Op:
    def check(series) -> list:
        if abs(a) == 1.0:
            expect(series.classification == "constant", "dilation a=%g: %s" % (a, series.classification))
        else:
            # the verdict for |a| > 1 is not pinned: only the certificate is
            expect(series.details["lower_bound_ok"], "dilation a=%g: lower bound" % a)
        return [w.spec(), a, series.classification, series.details.get("attainment_gaps")]

    return Op("dilation", lambda: W.witness_dilation_blowup(w, a, 1.0, 2.0, 1, 4), check)


def _check_translation(series) -> list:
    expect(series.classification in LOWER_GROWTH and series.details["slope_ok"],
           "translation: %s slope_ok=%s" % (series.classification, series.details["slope_ok"]))
    return [series.classification]


def _check_deg2(rep) -> list:
    expect(rep.all_finite, "deg2: a non-finite ratio")
    return [rep.sigma_spec, [(r.j, r.q) for r in rep.rows]]


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliFailed(Exception):
    pass


def _num(x: float) -> str:
    return "%g" % x


def cli_commands(seed: int, seconds: int) -> List[Tuple[List[str], Callable[[CliResult], list], Optional[str], str]]:
    """(argv, check, defect, marker) per command, in the README's `--flag value` form."""
    from gsdyn.polynomials import Polynomial

    cmds = []
    for rnd in range(rounds(seconds)):
        rng = _rng("cli-cold", seed, rnd)
        round_cmds = []

        def add(argv, check, defect=None, marker=""):
            round_cmds.append((["--format", "json"] + argv, check, defect, marker))

        for _ in range(2):
            w, x = rng.choice(WEIGHTS[:3]), round(rng.uniform(0.2, 5.0), 3)
            add(["conjugate", "--weight", w, "--x", _num(x), "--check"], _check_json("conjugate"))
        w, x = rng.choice(WEIGHTS[3:]), round(rng.uniform(0.2, 5.0), 3)
        add(["conjugate", "--weight", w, "--x", _num(x)], _check_json("conjugate"))
        for w in rng.sample(WEIGHTS, 2):
            add(["weight-check", "--weight", w], _check_json("weight-check"))
        for i in range(5):
            model = _model(i, rng)
            w, lam = rng.choice(CLI_WEIGHTS), rng.choice(LAMS)
            add(["seminorm", "--model", model.spec(), "--family", rng.choice(SPATIAL_FAMILIES),
                 "--weight", w, "--lam", _num(lam)], _check_json("seminorm"))
        # poly: the first of each action gets a negative constant term
        for action, count in (("fixed-points", 3), ("iterate", 2), ("normal-form", 2)):
            for k in range(count):
                alpha, x0, c = EXACT_SLOTS[rng.randrange(11)]  # the positive multipliers
                if action == "normal-form":
                    psi = Polynomial.of([rng.choice((1, 2, 3)) * x0, alpha])
                else:
                    psi = quadratic(alpha, x0, c)
                if (psi.coeffs[0] < 0) != (k == 0):
                    psi = Polynomial.of([-q if i % 2 == 0 else q for i, q in enumerate(psi.coeffs)])
                argv = ["poly", action, "--psi", psi.spec()]
                if action == "iterate":
                    argv += ["--m", str(rng.choice((2, 3, 4)))]
                add(argv, _check_poly(psi, action),
                    DEFECT_ARGV if psi.spec().startswith("-") else None, "expected one argument")
        for _ in range(2):
            a = rng.choice((-3.0, -2.0, 2.0, 3.0))
            add(["witness", "delta", "--weight", rng.choice(WEIGHTS[:3]), "--a", _num(a)],
                _check_verdict({"finite"}))
        # the suite's two rho entries: other parameters moved the peak RSS by 5%
        for direction in ("derivative", "polynomial"):
            add(["witness", "rho", "--model", "gauss:1", "--weight", "gevrey:2", "--lam", "1", "--m", "2",
                 "--direction", direction], _check_verdict({"dominant"}))
        add(["witness", "fourier", "--b", _num(rng.choice((-1.0, 1.0, 2.0)))], _check_verdict({"pass"}))
        add(["witness", "square", "--s", _num(rng.choice((1.5, 2.0))), "--lam", _num(rng.choice(LAMS)),
             "--m-max", "60"], _check_verdict({"supergeometric"}))
        add(["witness", "translation", "--weight", rng.choice(CLI_WEIGHTS), "--m-max", "4"],
            _check_verdict(set(LOWER_GROWTH), slope=True))
        add(["witness", "deg2", "--weight", rng.choice(SUBADDITIVE), "--a", "3", "--psi", "0,0,1",
             "--lam", _num(rng.choice(LAMS)), "--m-max", "3"], _check_verdict({"finite"}))
        rng.shuffle(round_cmds)
        cmds += round_cmds
    return cmds


def _load(res: CliResult) -> dict:
    import json

    try:
        return json.loads(res.stdout)
    except ValueError:
        raise WrongOutput("exit 0 without a JSON report: %r" % res.stdout[:200]) from None


def _check_json(command: str) -> Callable[[CliResult], list]:
    def check(res: CliResult) -> list:
        rep = _load(res)
        expect(rep.get("command") == command, "%s: report is for %r" % (command, rep.get("command")))
        if command == "conjugate":
            expect(math.isfinite(rep["value"]), "conjugate: value")
            return [command, rep["config"]]
        if command == "seminorm":
            r = rep["result"]
            expect(isinstance(r["log_value"], float), "seminorm: value %r" % r["log_value"])
            return [command, rep["config"], r["arg"]["j"], r["arg"]["q"], r["truncation_m"]]
        verdicts = sorted((k, v["verdict"]) for k, v in rep["conditions"].items())
        expect(len(verdicts) == 8 and all(v in ("holds", "fails", "inconclusive") for _, v in verdicts),
               "weight-check: %r" % verdicts)
        return [command, rep["config"]["weight"], verdicts]

    return check


def _check_verdict(allowed, slope: bool = False) -> Callable[[CliResult], list]:
    def check(res: CliResult) -> list:
        rep = _load(res)
        expect(rep.get("verdict") in allowed, "witness %s: verdict %r" % (rep.get("witness"), rep.get("verdict")))
        if slope:
            expect(rep["report"]["details"]["slope_ok"], "witness translation: slope")
        return [rep["witness"], rep["verdict"]]

    return check


def _check_poly(psi, action: str) -> Callable[[CliResult], list]:
    from gsdyn.polynomials import fixed_points, iterate, normal_form_degree1

    def check(res: CliResult) -> list:
        rep = _load(res)
        if action == "iterate":
            expect(rep["iterate"] == iterate(psi, rep["m"]).spec(), "poly iterate %s" % psi.spec())
            return [action, psi.spec(), rep["degree"]]
        if action == "normal-form":
            nf = normal_form_degree1(psi)
            expect(rep["kind"] == nf.kind and rep["normal_form"] == nf.poly.spec(), "poly normal-form %s" % psi.spec())
            return [action, psi.spec(), rep["kind"]]
        want = [(str(p.location), p.kind) for p in fixed_points(psi) if p.exact]
        got = [(p["location"], p["kind"]) for p in rep["fixed_points"] if p["exact"]]
        expect(got == want, "poly fixed-points %s: %r" % (psi.spec(), got))
        return [action, psi.spec(), got]

    return check
