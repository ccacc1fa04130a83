"""pentafold benchmark: seeded CLI workloads, end to end or traced per layer.

Run from the root of a pentafold checkout:

    python3 perfbench/run.py --workload roots-mix --seed 1 --seconds 22 --trace 0

--trace 0 runs the workload's seeded round of commands again and again, each
command in a fresh `python -m pentafold` process (one client, closed loop, one
process at a time), at least twice and for about --seconds, and reports the
end-to-end metrics named in BENCHMARK.json.  A fixed reference program, timed between
the commands, measures how fast the shared host runs during the run; the
times are reported at the host speed where the reference takes 0.1 s, and as
measured in the record line.

--trace 1 replays the same round in-process through pentafold.cli.main(argv),
alternately untraced and traced (tracing.py wraps the package's public
functions from outside), and reports the per-layer metrics.

Every command's exit code and output is checked against the oracles in
oracles.py.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracing
import workloads

SETUP_REPEATS = 5       # fresh `pentafold --help` processes before the timed phase,
SETUP_BETWEEN_ROUNDS = 2  # and after each round, outside its wall time; setup_s is their median
STARTUP_REPEATS = 5     # fresh processes behind cli.interp_start_s and cli.import_s
TAIL_BEYOND = 10        # cmd_tail_s: the highest percentile with this many commands beyond it,
                        # never taken below the median
MIN_ROUNDS = 2          # every command of the round is timed at least this often,
MIN_COMMANDS = 9        # and a run times at least this many commands
REFERENCE_SHARE = 0.15  # of a run's time goes to the reference program, spread between commands
MAX_TIMED_SECONDS = 120  # no new round starts after this, so a run ends well within 180 s
COMMAND_TIMEOUT = 50     # a child still running after this is killed and counted as failed

# Wall-clock budgets of the timed acceptance criteria, as written in
# pentafold/acceptance.py; the benchmark reports elapsed / budget.
BUDGETS = {1: 1e-3, 2: 1e-3, 3: 30.0, 4: 5.0, 6: 1.0, 10: 60.0}


# The reference program: interpreter start and a fixed pure-Python loop, the
# same kind of work as a pentafold command, but without pentafold.  Timed
# between commands all through a run, it measures how fast the shared host
# runs at the time; end-to-end times are reported at the host speed at which
# it takes REFERENCE_NOMINAL_S.
REFERENCE_CODE = """
x, d = 0, {}
for i in range(150000):
    x = (x * 1103515245 + 12345) % 4294967296
    d[x % 1021] = i
print(x, len(d))
"""
REFERENCE_OUTPUT = b"1685684432 1021\n"
REFERENCE_NOMINAL_S = 0.1


class SetupError(Exception):
    """The checkout cannot be benchmarked; reported on stderr with exit 2."""


@dataclass
class Outcome:
    seconds: float
    rc: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


class Children:
    """Runs `python <args>` against the checkout's sources, one at a time,
    with output in files and resource usage from wait4."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PENTAFOLD_CACHE", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.out, self.err = scratch / "stdout", scratch / "stderr"
        self.pid = None
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, args: list[str], extra_env: dict | None = None) -> Outcome:
        env = {**self.env, **extra_env} if extra_env else self.env
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=env, cwd=self.root)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(seconds, proc.returncode, self.out.read_bytes(), self.err.read_bytes(), usage.ru_maxrss)

    def pentafold(self, argv, extra_env=None) -> Outcome:
        return self.run(["-m", "pentafold", *argv], extra_env)


def check_sources(root: Path, children: Children) -> None:
    probe = children.run(["-c", "import pentafold; print(pentafold.__file__)"])
    found = probe.stdout.decode().strip()
    if probe.rc != 0 or not Path(found).resolve().is_relative_to((root / "src").resolve()):
        raise SetupError(f"pentafold resolves to {found or probe.stderr.decode().strip()!r}, not to ./src")


# ------------------------------------------------------------ end to end


class Reference:
    """The reference program, run between commands so that it takes
    REFERENCE_SHARE of the time since the run began."""

    def __init__(self, children: Children):
        self.children = children
        self.times: list[float] = []
        self.began = time.perf_counter()

    def run(self) -> None:
        outcome = self.children.run(["-c", REFERENCE_CODE])
        if outcome.rc != 0 or outcome.stdout != REFERENCE_OUTPUT:
            raise SetupError(f"the reference program printed {outcome.stdout!r} and exited {outcome.rc}")
        self.times.append(outcome.seconds)

    def due(self) -> None:
        while sum(self.times) < REFERENCE_SHARE * (time.perf_counter() - self.began):
            self.run()

    def typical(self) -> float:
        """Mean of the middle 80% of the reference times."""
        ordered = sorted(self.times)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        """Factor from this run's times to times at the nominal host speed."""
        return REFERENCE_NOMINAL_S / self.typical()


def run_end_to_end(root, commands, seconds, scratch):
    children = Children(root, scratch)
    check_sources(root, children)
    children.pentafold(["--help"])  # fills the byte-code cache, as any earlier use would
    reference = Reference(children)
    setup = []
    for _ in range(SETUP_REPEATS):
        reference.due()
        setup.append(children.pentafold(["--help"]))

    rounds, rss = [], []
    tally: Counter = Counter()
    start = time.perf_counter()
    while True:
        round_dir = scratch / f"round-{len(rounds)}"
        round_dir.mkdir()
        cache = str(round_dir / "sigma.csv")
        times = []
        for index, command in enumerate(commands):
            reference.due()
            argv, extra_env = command.resolved(cache)
            outcome = children.pentafold(argv, extra_env)
            times.append(outcome.seconds)
            rss.append(outcome.max_rss_kb)
            tally[(index, outcome.rc, outcome.stdout, outcome.stderr)] += 1
        rounds.append(times)
        shutil.rmtree(round_dir)
        for _ in range(SETUP_BETWEEN_ROUNDS):
            reference.due()
            setup.append(children.pentafold(["--help"]))
        # Another round starts only if a round of the usual length ends
        # nearer to --seconds than now, so that runs last about --seconds.
        elapsed = time.perf_counter() - start
        if (len(rounds) >= MIN_ROUNDS and len(rounds) * len(commands) >= MIN_COMMANDS
                and elapsed * (len(rounds) + 0.5) / len(rounds) > seconds):
            break
        if elapsed >= MAX_TIMED_SECONDS:
            break
    reference.due()

    if any(o.rc != 0 or b"usage: pentafold" not in o.stdout for o in setup):
        raise SetupError("`pentafold --help` did not print its usage")
    ordered = sorted(t for times in rounds for t in times)
    # The tail ranks each command by the median of its repeats, one per
    # round, so that which of a round's commands it reads does not hang on
    # single noisy repeats.  With fewer than 2 * TAIL_BEYOND commands no
    # percentile at or above the median has TAIL_BEYOND commands beyond it,
    # and the tail is the median.
    typical = sorted([statistics.median(repeats) for repeats in zip(*rounds)] * len(rounds))
    rank = len(typical) - TAIL_BEYOND  # 1-based
    tail = typical[rank - 1] if rank >= len(typical) / 2 else statistics.median(typical)
    measured = {
        "wall_s": statistics.median(sum(times) for times in rounds),
        "cmd_p50_s": statistics.median(ordered),
        "cmd_tail_s": tail,
        "setup_s": statistics.median(o.seconds for o in setup),
    }
    scale = reference.scale()
    metrics = {name: value * scale for name, value in measured.items()}
    metrics["peak_rss_mb"] = max(rss) / 1024
    details = {
        "rounds": len(rounds),
        "measured": measured,
        "reference": {"typical_s": reference.typical(), "runs": len(reference.times),
                      "nominal_s": REFERENCE_NOMINAL_S, "scale": scale},
        "command_s": [[round(t, 4) for t in times] for times in rounds],
        "samples": {"wall_s": len(rounds), "cmd_p50_s": len(ordered), "cmd_tail_s": len(ordered),
                    "setup_s": len(setup), "peak_rss_mb": len(rss)},
        "cmd_tail": {"rank": rank, "of": len(ordered), "beyond": TAIL_BEYOND,
                     "percentile": round(100 * rank / len(ordered), 2)}
                    if rank >= len(ordered) / 2 else {"of": len(ordered), "median": True},
    }
    return metrics, tally, len(rss), details


# --------------------------------------------------------------- traced


def call_main(cli, argv, extra_env) -> tuple[int, bytes, bytes]:
    """pentafold.cli.main(argv) in this process, with its streams captured and
    exit statuses mapped the way the interpreter maps them."""
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(extra_env)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:
                traceback.print_exc()
                rc = 1
    finally:
        for key in extra_env:
            os.environ.pop(key, None)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def replay(cli, commands, round_dir: Path, tally: Counter, tracer=None) -> float:
    round_dir.mkdir()
    cache = str(round_dir / "sigma.csv")
    began = time.perf_counter()
    for index, command in enumerate(commands):
        argv, extra_env = command.resolved(cache)
        if tracer is not None:
            tracer.request = index
        rc, out, err = call_main(cli, argv, extra_env)
        tally[(index, rc, out, err)] += 1
    wall = time.perf_counter() - began
    shutil.rmtree(round_dir)
    return wall


def import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import pentafold
    import pentafold.cli

    if not Path(pentafold.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SetupError(f"pentafold resolves to {pentafold.__file__!r}, not to ./src")
    return pentafold


def round_summary(tracer: tracing.Tracer, check_names: list[str]) -> dict[str, float]:
    """Values of one traced round keyed by per-layer metric name: the counts
    recorded at layer boundaries, then calls, self time and inclusive time of
    every traced function as <layer>.<function>.<calls|self_s|s>."""
    counts = tracer.counts
    lookups = counts["sigma.cache_lookups"]
    values = {
        "pentagonal.terms_yielded": counts["pentagonal.iter_terms.yielded"],
        "sigma.cache_lookups": lookups,
        "sigma.cache_hit_ratio": counts["sigma.cache_hits"] / lookups if lookups else 0.0,
        "sigma.cache_bytes_read": counts["sigma.cache_bytes_read"],
        "sigma.cache_bytes_written": counts["sigma.cache_bytes_written"],
        "qseries.fold_pairs_visited": counts["qseries.fold_pairs_visited"],
        "cli.render.bytes": counts["cli.render.bytes"],
    }
    for number, name in enumerate(check_names, start=1):
        values[f"acceptance.criterion_{number}.s"] = tracer.inclusive[f"acceptance.{name}"]
    own = tracer.self_times()
    for name in set(tracer.calls) | set(own):
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = own.get(name, 0.0)
        values[f"{name}.s"] = tracer.inclusive.get(name, 0.0)
    return values


def run_traced(root, commands, seconds, scratch, spec_names):
    children = Children(root, scratch)
    check_sources(root, children)
    interp = [children.run(["-c", "pass"]).seconds for _ in range(STARTUP_REPEATS)]
    imports = [children.run(["-c", "import pentafold.cli"]).seconds for _ in range(STARTUP_REPEATS)]
    os.environ.pop("PENTAFOLD_CACHE", None)
    package = import_package(root)
    cli, acceptance = package.cli, package.acceptance
    check_names = [check.__name__ for check in acceptance.ALL_CHECKS]

    # The untraced replay keeps one wrapper: around acceptance.run_all, to read
    # the elapsed time each criterion measures for itself.
    criterion_elapsed: dict[int, list[float]] = {n: [] for n in BUDGETS}
    run_all = acceptance.run_all

    def capture_run_all():
        results = run_all()
        for result in results:
            if result.number in criterion_elapsed:
                criterion_elapsed[result.number].append(result.elapsed)
        return results

    tally: Counter = Counter()
    untraced, traced, summaries, samples = [], [], [], {}

    def plain_round():
        acceptance.run_all = capture_run_all
        try:
            untraced.append(replay(cli, commands, scratch / f"plain-{len(untraced)}", tally))
        finally:
            acceptance.run_all = run_all

    def traced_round():
        tracer = tracing.Tracer(package)
        tracer.install()
        try:
            traced.append(replay(cli, commands, scratch / f"traced-{len(traced)}", tally, tracer))
        finally:
            tracer.uninstall()
        summaries.append(round_summary(tracer, check_names))
        for key, points in tracer.samples.items():
            samples.setdefault(key, []).extend(points)

    # One unmeasured round first (its outputs are still checked), so that no
    # measured round pays for first calls; then pairs, alternating which side
    # goes first, until --seconds have passed since the warm-up began.
    start = time.perf_counter()
    replay(cli, commands, scratch / "warm-up", tally)
    while True:
        for side in (plain_round, traced_round) if len(traced) % 2 == 0 else (traced_round, plain_round):
            side()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_TIMED_SECONDS:
            break

    values = {}
    for name in spec_names:
        per_round = [s[name] for s in summaries if name in s]
        values[name] = statistics.median(per_round) if per_round else 0
    for number, budget in BUDGETS.items():
        elapsed = criterion_elapsed[number]
        values[f"acceptance.criterion_{number}.budget_share"] = statistics.median(elapsed) / budget if elapsed else 0.0
    for key in ("sigma.sigma_table", "qseries.fold", "qseries.power_sums", "cyclotomic.verify_periods"):
        values[f"{key}.scaling_exp"] = tracing.fit_exponent(samples.get(key, []))
    values["cli.interp_start_s"] = statistics.median(interp)
    values["cli.import_s"] = statistics.median(imports) - statistics.median(interp)
    values["trace.untraced_replay_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    own: dict[str, list[float]] = {}
    for summary in summaries:
        for name, value in summary.items():
            if name.endswith(".self_s"):
                own.setdefault(name[: -len(".self_s")], []).append(value)
    largest = sorted(((statistics.median(v), name) for name, v in own.items()), reverse=True)[:3]
    details = {
        "rounds": len(traced),
        "samples": {"per_layer": len(traced), "cli.interp_start_s": STARTUP_REPEATS,
                    "cli.import_s": STARTUP_REPEATS,
                    **{f"{k}.scaling_exp": len(v) for k, v in samples.items()},
                    **{f"acceptance.criterion_{n}.budget_share": len(v) for n, v in criterion_elapsed.items()}},
        "scaling_sizes": {k: sorted({size for size, _ in v}) for k, v in samples.items()},
        "largest_self_s": [(name, round(seconds, 6)) for seconds, name in largest],
        "tracing_overhead": {"traced_s": statistics.median(traced), "untraced_s": statistics.median(untraced)},
    }
    return values, tally, (1 + len(untraced) + len(traced)) * len(commands), details


# ----------------------------------------------------------------- main


def read_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def check_outcomes(commands, tally, sigma_limit):
    oracle = oracles.Oracle(sigma_limit)
    failed, wrong, reasons = 0, False, []
    for (index, rc, out, err), count in tally.items():
        problem = oracle.check(commands[index].params, rc, out.decode(errors="replace"), err.decode(errors="replace"))
        if problem:
            failed += count
            wrong |= problem.wrong_result
            if len(reasons) < 5:
                reasons.append(f"pentafold {' '.join(commands[index].argv)}: {problem.reason}")
    return failed, wrong, reasons


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "pentafold" / "__init__.py").is_file():
            raise SetupError("no pentafold sources at ./src/pentafold; run from the root of a checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    commands = workloads.build(args.workload, args.seed)
    scratch_parent = root / ".perfbench-tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = scratch_parent / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.trace:
            values, tally, attempted, details = run_traced(root, commands, args.seconds, scratch, list(units))
        else:
            values, tally, attempted, details = run_end_to_end(root, commands, args.seconds, scratch)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run is still using it

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    failed, wrong, reasons = check_outcomes(commands, tally, workloads.sigma_limit(commands))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{details['rounds']} rounds of {len(commands)} commands, {attempted} attempted, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    for reason in reasons:
        print(f"  disagreement: {reason}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "cores": os.cpu_count(), "commit": read_commit(root),
        "fail_ratio": failed / attempted, **details,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
