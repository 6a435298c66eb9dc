"""gsdyn benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload exact-dynamics --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/` (pure
Python, nothing to build).  Workloads: `exact-dynamics`, `seminorm-search`,
`cli-cold` (see NOTES.md for why each exists and which layer it isolates).

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1 runs
the same operations untraced and then traced (spans from `tracing.py`) and
prints the per-layer metrics; the spans go to `.perfbench/` in the checkout.
The last line of stdout is the result object; the lines before it say what
failed, the tail percentile behind `op_tail_s` and the output digest.

The load is one closed-loop client: one operation at a time, no threads,
one child process at a time for cli-cold, GSDYN_THREADS unset.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("exact-dynamics", "seminorm-search", "cli-cold")
SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
os.environ.pop("GSDYN_THREADS", None)
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def build_ops(workload: str, seed: int, seconds: int, cold: bool):
    """(ops, peak): peak collects the children's max RSS (KiB) for cli-cold."""
    import workloads as wl

    peak: List[int] = []
    if workload == "exact-dynamics":
        return wl.exact_dynamics(seed, seconds), peak
    if workload == "seminorm-search":
        return wl.seminorm_search(seed, seconds), peak
    make = _cold_op if cold else _replay_op
    ops = [make(wl, argv, check, defect, marker, peak) for argv, check, defect, marker in wl.cli_commands(seed, seconds)]
    return ops, peak


def _wait4(proc: subprocess.Popen, timeout: int):
    """Reap the child and return its own rusage (for its peak RSS)."""

    def expire(signum, frame):
        raise TimeoutError("child %d ran past %d s" % (proc.pid, timeout))

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _cold_op(wl, argv, check, defect, marker, peak):
    """A fresh `python -m gsdyn.cli` process: what every CLI user pays."""

    def run():
        with open(os.path.join(OUT, "cli.out"), "w+") as out, open(os.path.join(OUT, "cli.err"), "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "gsdyn.cli"] + argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT
            )
            usage = _wait4(proc, CHILD_TIMEOUT_S)
            out.seek(0)
            err.seek(0)
            res = wl.CliResult(proc.returncode, out.read(), err.read())
        peak.append(usage.ru_maxrss)
        return _cli_outcome(wl, res)

    return wl.Op("cli:" + argv[2], run, check, defect, marker)


def _replay_op(wl, argv, check, defect, marker, peak):
    """The same argv through gsdyn.cli.main in this process (traced runs)."""

    def run():
        import gsdyn.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gsdyn.cli.main(list(argv))
        return _cli_outcome(wl, wl.CliResult(code, out.getvalue(), err.getvalue()))

    return wl.Op("cli:" + argv[2], run, check, defect, marker)


def _cli_outcome(wl, res):
    if res.code != 0:
        raise wl.CliFailed("exit %d: %s" % (res.code, res.stderr.strip()[-300:]))
    return res


def time_ops(ops, tracer=None) -> Tuple[float, List[float], list]:
    times: List[float] = []
    outs: list = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that fails is counted, not fatal
            out = exc
        times.append(perf_counter() - t0)
        outs.append(out)
    return perf_counter() - start, times, outs


def evaluate(ops, outs) -> Tuple[int, List[str], str, Counter]:
    """(failed, problems, digest, defect hits): checks run here, outside the timed region."""
    import workloads as wl

    failed, problems, items, hits = 0, [], [], Counter()
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            failed += 1
            known = op.defect is not None and op.defect_marker in str(out)
            items.append([op.kind, "error", type(out).__name__, known])
            if known:
                hits[op.defect] += 1
            else:
                problems.append("%s raised %s: %s" % (op.kind, type(out).__name__, out))
            continue
        try:
            items.append([op.kind] + op.check(out))
        except (wl.WrongOutput, KeyError, TypeError, ValueError) as exc:
            failed += 1
            problems.append("%s: wrong output: %s" % (op.kind, exc))
    digest = hashlib.sha256(json.dumps(items, default=str).encode()).hexdigest()
    return failed, problems, digest, hits


def tail(times: List[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten operations above it: (value, pct)."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --------------------------------------------------------------------------
# fresh-interpreter probes
# --------------------------------------------------------------------------


def _child(args: List[str]) -> subprocess.CompletedProcess:
    res = subprocess.run(
        [sys.executable] + args, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if res.returncode != 0:
        raise RuntimeError("probe %r failed: %s" % (args, res.stderr[-500:]))
    return res


def setup_seconds(workload: str, seed: int, seconds: int) -> float:
    """Median wall time of a fresh interpreter that imports and builds the inputs."""
    probe = [os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    runs = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        _child(probe)
        runs.append(perf_counter() - t0)
    return statistics.median(runs)


def import_seconds() -> Tuple[float, float]:
    """(median import time of gsdyn.cli, scipy's share of it).

    -X importtime slows the import it reports, so it gives only the share:
    the scipy entries whose parent is not scipy, over the gsdyn.cli entry.
    """
    code = "import time; t = time.perf_counter(); import gsdyn.cli; print(time.perf_counter() - t)"
    total = statistics.median(float(_child(["-c", code]).stdout) for _ in range(IMPORT_PROBES))
    lines = [
        line.split("|") for line in _child(["-X", "importtime", "-c", "import gsdyn.cli"]).stderr.splitlines()
        if line.startswith("import time:") and "cumulative" not in line
    ]
    # lines come children-first: an entry's parent is the next line one level up
    scipy_us, cli_us, stack = 0, 0, []
    for _, cumulative, name in reversed(lines):
        level = len(name) - len(name.lstrip())
        mod = name.strip()
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if mod == "gsdyn.cli":
            cli_us = int(cumulative)
        elif mod.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += int(cumulative)
        stack.append((level, mod))
    return total, total * scipy_us / cli_us


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run(args) -> Tuple[dict, List[str]]:
    cli = args.workload == "cli-cold"
    ops, peak = build_ops(args.workload, args.seed, args.seconds, cold=cli and not args.trace)
    notes: List[str] = []
    if not args.trace:
        # the probes also leave the package's bytecode compiled for the timed loop
        setup = setup_seconds(args.workload, args.seed, args.seconds)
        wall, times, outs = time_ops(ops)
        rss_kb = max(peak) if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, problems, digest, hits = evaluate(ops, outs)
        tail_s, tail_pct = tail(times)
        values = {
            "wall_s": wall,
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "ok_frac": (len(ops) - failed) / len(ops),
            "setup_s": setup,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        notes.append("op_tail_s is p%.1f of %d ops" % (tail_pct, len(ops)))
    else:
        import tracing

        if cli:  # warm-up: the first in-process replay pays one-off lazy imports
            time_ops(ops)
        wall, _, outs = time_ops(ops)
        failed, problems, digest, hits = evaluate(ops, outs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, _ = time_ops(ops, tracer)
        finally:
            tracer.uninstall()
        path = os.path.join(OUT, "trace-%s-seed%d.npz" % (args.workload, args.seed))
        tracer.save(path)
        layer = tracer.layer_metrics()
        layer["cli.import_s"], layer["cli.import_scipy_s"] = import_seconds()
        layer["traced_wall_s"] = traced_wall
        layer["trace_overhead_frac"] = traced_wall / wall - 1.0
        metrics = {k: metric(v, per_layer_unit(k)) for k, v in sorted(layer.items())}
        notes.append("spans written to %s" % os.path.relpath(path, ROOT))
    notes.append("digest %s" % digest)
    notes += ["recorded defect, %d ops: %s" % (n, defect) for defect, n in sorted(hits.items())]
    notes += problems
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gsdyn", "__init__.py")):
        sys.stderr.write("perfbench: no gsdyn package under %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        if args.workload == "cli-cold":
            import gsdyn.cli  # noqa: F401  (what every cold command imports)
        build_ops(args.workload, args.seed, args.seconds, cold=True)
        return 0
    result, notes = run(args)
    for line in notes:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
