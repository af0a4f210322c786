"""critvar's benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify-mid --seed 5 --seconds 25 --trace 0

The program is imported from the `src/` of the checkout this file sits
in.  Set-up draws a few instances of every rung of the workload, instance
i with `critvar gen --n n --k k --seed <1000*seed + i>`, each in its own
child process (`setup_s` is the median of those children).  The timed pass
then runs every (instance, command) pair as its own child process, one at
a time (closed loop, one client), timing each from outside and checking
its report.  Passes repeat while the next one still fits in `--seconds`.
`latency_s` sums, over the workload's (rung, command) pairs, the median
wall time of that pair's children: the cost of one instance varies
several-fold between random instances (Newton escalation, extra spectral
draws), and a median over instances keeps the figure steady from seed to
seed.  `latency_ref` divides it by the mean time of a fixed
exact-arithmetic task timed in this process after every child, which takes
out the machine's own swings in speed (see `reference_s`).

With `--trace 1` the run instead calls each command's entry point
in-process with every call into a layer wrapped in a span
(perfbench/tracing.py), and prints the per-layer metrics.  Spans are
written to `.perfbench_out/spans_<workload>_seed<seed>.json` in the checkout.

Every line but the last is a human-readable or JSON detail record; the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CHILD_LIMIT_S = 60.0  # time limit of one child
RUN_LIMIT_S = 160.0  # no child starts, or runs on, past this point of a run
TRACE_START_LIMIT_S = 100.0  # the traced run starts no new unit past this point
COMPARE_LIMIT_S = 60.0  # nor times one untraced as well past this point


@dataclass(frozen=True)
class Workload:
    rungs: tuple  # (n, k) pairs; dim = C(n-1, k)
    commands: tuple  # run in this order on each instance
    instances: int  # drawn per rung
    why: str


WORKLOADS = {
    "verify-mid": Workload(
        rungs=((5, 2), (6, 2), (6, 3)),
        commands=("verify", "flows"),
        instances=5,
        why="rungs (5,2) (6,2) (6,3), dim 6-10, 5 instances each: exact operator identity "
            "checks (Fraction matrix products); flows adds charts and point evaluation",
    ),
    "solve-mid": Workload(
        rungs=((5, 1), (6, 1), (7, 1)),
        commands=("solve",),
        instances=9,
        why="rungs (5,1) (6,1) (7,1), dim 4-6, 9 instances each: multistart Newton, whose "
            "first escalation tier runs on most instances, plus a small spectral route",
    ),
    "spectral-large": Workload(
        rungs=((6, 3), (7, 2), (7, 3)),
        commands=("route-one",),
        instances=6,
        why="rungs (6,3) (7,2) (7,3), dim 10-20, 6 instances each: the exact "
            "Faddeev-LeVerrier charpoly of the library route; no Newton, no identity checks",
    ),
}

# The metric each command's summed time is reported under.
COMMAND_METRIC = {"verify": "verify_s", "flows": "flows_s", "solve": "solve_s",
                  "route-one": "spectral_s"}

EXPECTED_CHECKS = {
    "verify": ("minor_relations", "discriminant_span_rank", "generator_brackets",
               "quotient_dimension", "operator_commutators", "first_kind_operators",
               "second_kind_operators", "euler_operator", "weighted_sum_operators",
               "special_vector_map"),
    "flows": ("chart_membership", "chart_transitions_exact", "transition_jacobian_fd",
              "generating_function_fd", "projection_chart_independence",
              "projection_jacobian_fd", "flow_invariance"),
    "solve": ("critical_count_spectral", "critical_count_newton",
              "spectral_newton_match", "hessian_identity", "jacobian_from_hessian"),
    "route-one": ("critical_count_spectral", "hessian_identity", "jacobian_from_hessian"),
}

# Per-layer metrics of the traced run.  `<stem>_s` is the summed self time of
# the spans named <stem>; a count is summed over instances.
LAYER_TIMES = (
    "arrangement.minor_relations", "arrangement.span_rank",
    "relations.involution", "relations.membership",
    "quotient.operators", "quotient.second_kind", "quotient.commutators",
    "quotient.first_kind", "quotient.euler", "quotient.weighted_sum",
    "quotient.special_vector",
    "ratmat.charpoly",
    "spectrum.joint_spectrum", "spectrum.poly_roots", "spectrum.newton",
    "spectrum.newton_plain", "spectrum.match", "spectrum.second_order",
    "lagrangian.charts", "lagrangian.fd", "lagrangian.projection", "lagrangian.flows",
)
LAYER_COUNTS = (
    ("arrangement.minor_relations_checked", "count"),
    ("relations.brackets", "count"),
    ("quotient.dim", "count"),
    ("quotient.identities", "count"),
    ("ratmat.charpoly_bits", "bits"),
    ("spectrum.spectral_draws", "count"),
    ("spectrum.newton_found", "count"),
    ("spectrum.newton_plain_found", "count"),
    ("spectrum.newton_expected", "count"),
)
RESID_MAX = "spectrum.route_one_resid_max"  # the worst over instances, not a sum


@dataclass
class Child:
    rung: tuple
    instance: int
    command: str
    wall: float | None  # None: never started
    rc: int | None  # None: stopped at its time limit, or never started
    stderr: str
    report: Path
    problems: list = field(default_factory=list)
    wrong: bool = False  # a problem the program did not report itself (see judge)


# -- environment and set-up ---------------------------------------------------


def pin_to_one_core():
    """Run this process, and so every child, on the first core it may use.

    The reference task and the children then share a core, and the
    reference samples the speed the children ran at; on a shared machine
    one core can be slowed by a neighbour while the other is not.
    """
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def environment_record():
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "cpu": cpu, "nproc": os.cpu_count(), "pinned_core": min(os.sched_getaffinity(0))}


def run_child(argv, limit, env):
    """Wall time, exit status (None past the limit) and stderr tail of one child."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=limit, text=True)
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        rc, err = None, (exc.stderr or b"").decode(errors="replace")
    return time.perf_counter() - started, rc, err.strip()[-300:]


def gen_argv(rung, seed, out):
    n, k = rung
    return [sys.executable, "-m", "critvar.cli", "gen", "--n", str(n), "--k", str(k),
            "--seed", str(seed), "--out", str(out)]


def command_argv(command, cfg, out):
    if command == "route-one":
        return [sys.executable, str(BENCH / "route_one.py"), "--config", str(cfg),
                "--out", str(out)]
    return [sys.executable, "-m", "critvar.cli", command, "--config", str(cfg),
            "--out", str(out)]


def instance_seed(seed, i):
    return 1000 * seed + i


def _gen(rung, seed, path, env):
    wall, rc, err = run_child(gen_argv(rung, seed, path), CHILD_LIMIT_S, env)
    if rc != 0:
        raise SystemExit(f"critvar gen failed on {rung} at seed {seed} (exit {rc}): {err}")
    return wall


def set_up(workload, seed, work, env):
    """Draw every instance in its own `critvar gen` child; (configs, gen wall times).

    The first instance is drawn a second time, and must come out the same.
    """
    configs, walls = {}, []
    for rung in workload.rungs:
        for i in range(workload.instances):
            path = work / f"cfg_{rung[0]}_{rung[1]}_{i}.json"
            walls.append(_gen(rung, instance_seed(seed, i), path, env))
            configs[(rung, i)] = path
    rung, again = workload.rungs[0], work / "cfg_again.json"
    walls.append(_gen(rung, instance_seed(seed, 0), again, env))
    if again.read_bytes() != configs[(rung, 0)].read_bytes():
        raise SystemExit(f"critvar gen is not deterministic on {rung} at seed {seed}")
    return configs, walls


def units(workload):
    """(rung, instance, command) in run order: each instance gets every command in turn."""
    return [(rung, i, command) for rung in workload.rungs
            for i in range(workload.instances) for command in workload.commands]


# -- the correctness gate -----------------------------------------------------


def _complex(pair):
    return complex(pair[0], pair[1])


def _points_problem(report, cfg):
    """Independent check of solve's points: p = a / f(z, t), and t is critical."""
    n, k = cfg["n"], cfg["k"]
    b = [[float(Fraction(x)) for x in row] for row in cfg["b"]]
    a = [float(Fraction(x)) for x in cfg["a"]]
    z = [float(Fraction(x)) for x in cfg["z"]]
    points = report.get("points", [])
    if len(points) != math.comb(n - 1, k):
        return "points:count"
    for pt in points:
        t = [_complex(v) for v in pt["t"]]
        p = [_complex(v) for v in pt["p"]]
        f = [z[j] + sum(b[j][m] * t[m] for m in range(k)) for j in range(n)]
        if any(abs(p[j] * f[j] - a[j]) > 1e-8 * abs(a[j]) for j in range(n)):
            return "points:momenta"
        for m in range(k):
            terms = [b[j][m] * p[j] for j in range(n)]
            if abs(sum(terms)) > 1e-8 * sum(abs(x) for x in terms):
                return "points:gradient"
    return None


def report_problems(command, checks):
    """Names of the checks that fail the gate: missing, not `pass`, or a short count.

    A check with no residual and a nonzero integer `expected` compares a
    count with its target, and the two must agree.
    """
    by_name = {c["name"]: c for c in checks}
    problems = [f"{name}:missing" for name in EXPECTED_CHECKS[command] if name not in by_name]
    for c in checks:
        if c["status"] != "pass":
            problems.append(c["name"])
        elif (c["residual"] is None and isinstance(c["expected"], int)
              and c["expected"] != 0 and c["count"] != c["expected"]):
            problems.append(f"{c['name']}:count")
    return problems


def judge(child, cfg):
    """Set the child's problems, and `wrong` when the program did not report them itself.

    A failure the program reports itself, by a failing check with exit
    status 1 or by exit status 2 (bad input) or 3 (a numeric procedure gave
    up), leaves the output correct.  So does a child that hit its time
    limit or was never started: it is failed, and being slow is a matter
    for the timings.  Everything else the gate finds is wrong: a crash (a
    signal, an unknown exit status, or exit 1 with no failing check in a
    readable report), exit 0 with a failing check, or a problem no check
    of the report names (a missing check, a short count, bad points).
    """
    if child.wall is None or child.rc is None:
        child.problems = ["not_started" if child.wall is None else "time_limit"]
        return
    if child.rc not in (0, 1):
        child.problems = [f"exit_{child.rc}"]
        child.wrong = child.rc not in (2, 3)
        return
    try:
        report = json.loads(child.report.read_text(encoding="utf-8"))
        own = {c["name"] for c in report["checks"] if c["status"] == "fail"}
        problems = report_problems(child.command, report["checks"])
        if report["command"] != child.command or (
                (report["config"]["n"], report["config"]["k"]) != child.rung):
            problems.append("report:header")
        if child.command == "solve" and not problems:
            problems += filter(None, [_points_problem(report, cfg)])
    except (OSError, ValueError, KeyError, TypeError):
        own, problems = set(), ["report:unreadable"]
    if child.rc == 1 and not problems:
        problems = ["exit_1"]
    child.problems = problems
    child.wrong = (child.rc == 1) != bool(own) or any(p not in own for p in problems)


# -- untraced run -------------------------------------------------------------


def reference_s(size=12, repeats=8):
    """Seconds this process takes for a fixed task: Fraction elimination on a fixed matrix.

    The task is the kind of work critvar's exact layers do, written here so
    that no change to the program can change it.  On shared machines the
    speed of a core swings by half or more from one second to the next,
    with other tenants; timed between children, this task samples the speed
    the children ran at.
    """
    started = time.perf_counter()
    for _ in range(repeats):
        state, rows = 12345, []
        for _ in range(size):
            row = []
            for _ in range(size):
                state = (state * 1103515245 + 12345) % 2**31
                row.append(Fraction(state % 19 - 9))
            rows.append(row)
        for c in range(size):
            pivot = next(r for r in range(c, size) if rows[r][c] != 0)
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(c + 1, size):
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return time.perf_counter() - started


def timed_pass(workload, configs, work, tag, env, deadline, refs):
    """Every unit once, as child processes; a reference sample after each child."""
    children = []
    started = time.perf_counter()
    for rung, i, command in units(workload):
        out = work / f"out_{command}_{rung[0]}_{rung[1]}_{i}_{tag}.json"
        limit = min(CHILD_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            wall, rc, err = None, None, "not started: the run reached its time limit"
        else:
            wall, rc, err = run_child(command_argv(command, configs[(rung, i)], out),
                                      limit, env)
            refs.append(reference_s())
        children.append(Child(rung, i, command, wall, rc, err, out))
    return time.perf_counter() - started, children


def pair_medians(children):
    """(rung, command) -> median wall time of its children that ran."""
    groups = {}
    for c in children:
        if c.wall is not None:
            groups.setdefault((c.rung, c.command), []).append(c.wall)
    return {key: statistics.median(walls) for key, walls in groups.items()}


def untraced(workload, seed, seconds, work, env, started):
    configs, setup = set_up(workload, seed, work, env)
    raw = {key: json.loads(path.read_text(encoding="utf-8")) for key, path in configs.items()}
    deadline = started + RUN_LIMIT_S
    passes, children, refs = [], [], []
    measure_start = time.perf_counter()
    while True:
        wall, batch = timed_pass(workload, configs, work, len(passes), env, deadline, refs)
        for child in batch:
            judge(child, raw[(child.rung, child.instance)])
        passes.append(wall)
        children += batch
        now = time.perf_counter()
        if now - measure_start + wall > seconds or now + wall > deadline:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    medians = pair_medians(children)
    per_command = {COMMAND_METRIC[command]: sum(v for (_, c), v in medians.items()
                                                if c == command)
                   for command in workload.commands}
    failed = sum(1 for c in children if c.problems)
    latency = sum(medians.values())
    metrics = {
        "latency_ref": (latency / statistics.fmean(refs), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    detail = {
        "latency_s": latency,
        "reference_s": statistics.fmean(refs),
        "reference_samples_s": refs,
        **per_command,
        "failed_frac": failed / len(children),
        "failed_base": len(children),
        "passes": len(passes),
        "wall_s": passes,
        "setup_gen_s": setup,
        "pair_median_s": {f"({r[0]},{r[1]}) {c}": v for (r, c), v in medians.items()},
        "pair_max_s": {f"({r[0]},{r[1]}) {cmd}": max(c.wall for c in children
                                                     if (c.rung, c.command) == (r, cmd)
                                                     and c.wall is not None)
                       for (r, cmd) in medians},
        "children": [[f"({c.rung[0]},{c.rung[1]})#{c.instance}", c.command, c.wall, c.rc]
                     for c in children],
    }
    return metrics, detail, children


# -- traced run -----------------------------------------------------------------


def in_process(entry, argv):
    """Run one command's entry point here: (wall time, exit status, stderr tail).

    An uncaught exception gives exit status 1, as it would in a child.
    """
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        started = time.perf_counter()
        try:
            rc = entry(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a result here
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - started
    return wall, rc, err.getvalue().strip()[-300:]


def traced(name, workload, seed, work, env, started):
    """Each unit in-process with every layer call traced.

    Units that start in the first COMPARE_LIMIT_S of the run also run once
    untraced, alternately before and after their traced run, and give the
    tracing overhead; running every unit twice would not fit a run's time
    when Newton escalates.  One untraced call before them all lets lazy
    set-up (first imports, first numpy calls) finish, so neither side of
    the comparison pays for it.
    """
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import route_one
    import tracing
    from critvar import cli

    configs, _ = set_up(workload, seed, work, env)
    startup = [run_child([sys.executable, "-c", "import critvar.cli"], CHILD_LIMIT_S, env)[0]
               for _ in range(3)]
    tracer = tracing.Tracer()
    children, untraced_total, resid_max, compared = [], 0.0, 0.0, set()
    for rung, i, command in units(workload):
        cfg = configs[(rung, i)]
        out = work / f"out_{command}_{rung[0]}_{rung[1]}_{i}_traced.json"
        child = Child(rung, i, command, None, None, "", out)
        children.append(child)
        if time.perf_counter() - started > TRACE_START_LIMIT_S:
            judge(child, None)  # not started: counts as failed
            continue
        entry = route_one.main if command == "route-one" else cli.main
        head = [] if command == "route-one" else [command]
        tracer.rung = f"({rung[0]},{rung[1]})#{i} {command}"
        plain = head + ["--config", str(cfg),
                        "--out", str(out.with_name(out.name.replace("_traced", "_plain")))]
        compare = time.perf_counter() - started < COMPARE_LIMIT_S
        if compare and not compared:
            in_process(entry, plain)  # warm-up
        if compare and len(compared) % 2 == 0:
            untraced_total += in_process(entry, plain)[0]
        with tracer.layers(), tracer.span(tracing.ROOT):
            child.wall, child.rc, child.stderr = in_process(
                entry, head + ["--config", str(cfg), "--out", str(out)])
        if compare and len(compared) % 2 == 1:
            untraced_total += in_process(entry, plain)[0]
        if compare:
            compared.add(tracer.rung)
        judge(child, json.loads(cfg.read_text(encoding="utf-8")))
        if command == "route-one" and child.rc in (0, 1) and not child.wrong:
            checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
            resid_max = max(resid_max, next(c["residual"] for c in checks
                                            if c["name"] == "hessian_identity"))

    selfs = tracer.self_times()
    metrics = {f"{stem}_s": (selfs.get(stem, 0.0), "s") for stem in LAYER_TIMES}
    metrics["spectrum.newton_escalation_s"] = (
        metrics["spectrum.newton_s"][0] - metrics["spectrum.newton_plain_s"][0], "s")
    for count, unit in LAYER_COUNTS:
        metrics[count] = (tracer.total(count), unit)
    metrics[RESID_MAX] = (resid_max, "ratio")
    metrics["cli.self_s"] = (selfs.get(tracing.ROOT, 0.0), "s")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    traced_total = tracer.traced_total(compared)
    metrics["trace.overhead_frac"] = (traced_total / untraced_total - 1.0, "ratio")

    spans_path = OUT / f"spans_{name}_seed{seed}.json"
    tracer.dump(spans_path)
    detail = {
        "failed_frac": sum(1 for c in children if c.problems) / len(children),
        "failed_base": len(children),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "untraced_inprocess_s": untraced_total,
        "traced_s": traced_total,
        "child_startup_s": startup,
    }
    return metrics, detail, children


# -- entry point -----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "critvar" / "cli.py").is_file():
        print(f"error: no critvar sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    pin_to_one_core()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work_{args.workload}_seed{args.seed}_{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, detail, children = traced(args.workload, workload, args.seed, work,
                                               env, started)
        else:
            metrics, detail, children = untraced(workload, args.seed, args.seconds, work,
                                                 env, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rungs": [list(r) for r in workload.rungs],
            "instance_seeds": [instance_seed(args.seed, i) for i in range(workload.instances)],
            "commands": list(workload.commands), "why": workload.why,
            "environment": environment_record(), **detail}
    print(json.dumps(head))
    for c in children:
        if c.problems:
            note = f" ({c.stderr.splitlines()[-1]})" if c.stderr else ""
            print(f"FAILED ({c.rung[0]},{c.rung[1]})#{c.instance} {c.command}: "
                  f"{', '.join(c.problems)}{note}")
    result = {
        "correct": not any(c.wrong for c in children),
        "attempted": len(children),
        "failed": sum(1 for c in children if c.problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
