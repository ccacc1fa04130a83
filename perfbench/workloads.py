"""Seeded command lists, one per workload.

A workload is one *round*: a list of pentafold commands run back to back.
The seed picks sizes, formats, parameters and order; the same seed always
gives the same round.  The expensive commands sit at fixed sizes spread over
the stated range, with at most 1% seeded jitter, so every seed asks for about
the same amount of work and the per-run figures stay comparable across seeds;
the cheap parameters vary freely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FORMATS = ("table", "csv", "json")

# Stands for the round's sigma cache file, which the runner places in a fresh
# temporary directory at the start of every round.
CACHE = "{cache}"

# Requests whose true value lies beyond float range (the oracle recomputes the
# modulus to confirm it); the only right answer is exit 2 with one line.
EDGE_REQUESTS = (
    {"exponent": 120, "m": 2, "i": 0, "rho": 0.9, "argv": ("--lambda", "120", "--m", "2", "--rho", "0.9")},
    {"exponent": 150, "m": 3, "i": 1, "rho": 0.9, "argv": ("--lambda", "150", "--m", "3", "--i", "1", "--rho", "0.9")},
    {"exponent": 130, "m": 4, "r": 1, "rho": 0.9, "argv": ("--lambda", "130", "--m", "4", "--r", "1", "--rho", "0.9")},
)


@dataclass(frozen=True)
class Command:
    """One pentafold invocation: argv after the program name, and the
    parameters the oracle needs ("kind" selects its check)."""

    argv: tuple[str, ...]
    params: dict
    cache_env: bool = False  # hand the cache over in PENTAFOLD_CACHE, not --cache

    def resolved(self, cache: str) -> tuple[tuple[str, ...], dict[str, str]]:
        """argv and extra environment for a round whose cache file is `cache`."""
        argv = tuple(cache if a == CACHE else a for a in self.argv)
        return argv, ({"PENTAFOLD_CACHE": cache} if self.cache_env else {})


def _jitter(rng: random.Random, center: float) -> int:
    """center moved by at most 1%, so every seed asks for about the same work."""
    return round(center * rng.uniform(0.99, 1.01))


def _strata(rng: random.Random, low: float, high: float, count: int) -> list[int]:
    """The centres of `count` equal log-width strata of [low, high], jittered."""
    return [_jitter(rng, low * (high / low) ** ((j + 0.5) / count)) for j in range(count)]


# cmd_tail_s is the command time with 10 commands beyond it, and the number of
# rounds in a run (2 or more) moves with the machine's speed.  So each round
# has at most one command heavier than a *tail group* of five identical
# commands (sigma-cache: two heavier commands and a group of four).  Whatever
# the round count up to 9 (sigma-cache: 4), the 10 commands beyond are the
# heavier ones plus some copies of the group, and the tail reads a copy from
# inside the group.  (ci-report runs have too few commands for a tail and
# report the median.)


def ci_report(rng: random.Random) -> list[Command]:
    """`pentafold report` in all three formats, in a seeded rotation."""
    return [
        Command(("report", "--format", fmt), {"kind": "report", "fmt": fmt})
        for fmt in rng.sample(FORMATS, len(FORMATS))
    ]


def sigma_cache(rng: random.Random) -> list[Command]:
    """A cold build, warm reads below the cached max in all three formats, an
    extend past it, and uncached brute-force tables (the tail group), against
    one cache file."""

    def cached(n: int, fmt: str) -> Command:
        via_env = rng.random() < 0.5
        argv = ("sigma", "--max", str(n), "--format", fmt) + (() if via_env else ("--cache", CACHE))
        return Command(argv, {"kind": "sigma", "max": n, "fmt": fmt}, cache_env=via_env)

    commands = []
    for top in (_jitter(rng, 6000), _jitter(rng, 13500)):
        commands.append(cached(top, rng.choice(FORMATS)))
        formats = rng.sample(FORMATS * 2, 6)
        commands.extend(cached(n, fmt) for n, fmt in zip(_strata(rng, 50, top, 6), formats))
    n = _jitter(rng, 28000)
    brute = Command(("sigma", "--max", str(n), "--method", "brute", "--format", "json"),
                    {"kind": "sigma", "max": n, "fmt": "json"})
    for _ in range(4):
        commands.insert(rng.randrange(1, len(commands) + 1), brute)
    return commands


def series_scale(rng: random.Random) -> list[Command]:
    """Product expansion checks at degrees 300..900 (fold route ~d^3, with the
    tail group of five at 600), two coefficient dumps, and Newton power sums at counts
    300..1500 (~c^2)."""

    def pnt(d: int, fmt: str) -> Command:
        return Command(("verify-pnt", "--degree", str(d), "--format", fmt),
                       {"kind": "verify-pnt", "degree": d, "dump": False, "fmt": fmt})

    commands = [pnt(_jitter(rng, d), rng.choice(FORMATS)) for d in (300, 400, 900)]
    commands += [pnt(_jitter(rng, 600), rng.choice(FORMATS))] * 5
    for _ in range(2):
        d, fmt = rng.randint(300, 900), rng.choice(FORMATS)
        commands.append(Command(("verify-pnt", "--degree", str(d), "--dump", "--format", fmt),
                                {"kind": "verify-pnt", "degree": d, "dump": True, "fmt": fmt}))
    for c in (300, 670, 1500):
        c, fmt = _jitter(rng, c), rng.choice(FORMATS)
        commands.append(Command(("verify-powersums", "--count", str(c), "--format", fmt),
                                {"kind": "verify-powersums", "count": c, "fmt": fmt}))
    rng.shuffle(commands)
    return commands


def roots_mix(rng: random.Random) -> list[Command]:
    """Many short commands: every seq mode, exact sums, damped evaluations at
    roots and residue classes, period checks for max-m 8..48 (tail group of
    five at 22), and one request whose value lies beyond float range."""
    commands = []
    for mode in ("plain", "include-zero", "differences", "interpolated", "is-pentagonal"):
        fmt = rng.choice(FORMATS)
        params = {"kind": "seq", "mode": mode, "fmt": fmt, "count": round(math.exp(rng.uniform(math.log(5), math.log(500))))}
        if mode == "is-pentagonal":
            k = rng.randint(1, 800)
            params["value"] = k * (3 * k + rng.choice((-1, 1))) // 2 if rng.random() < 0.5 else rng.randint(1, 10**6)
            argv = ("seq", "--is-pentagonal", str(params["value"]))
        else:
            argv = ("seq", "--count", str(params["count"])) + (() if mode == "plain" else ("--" + mode,))
        commands.append(Command(argv + ("--format", fmt), params))
    for exponent in rng.sample(range(13), 3):
        fmt = rng.choice(FORMATS)
        commands.append(Command(("sum", "--lambda", str(exponent), "--format", fmt),
                                {"kind": "sum", "exponent": exponent, "fmt": fmt}))
    for point in ("i", "r") * 5:
        exponent, m, rho, fmt = rng.randint(0, 3), rng.randint(1, 12), rng.choice((0.99, 0.999)), rng.choice(FORMATS)
        index = rng.randrange(m)
        commands.append(Command(
            ("abel", "--lambda", str(exponent), "--m", str(m), f"--{point}", str(index), "--rho", repr(rho), "--format", fmt),
            {"kind": "abel", "exponent": exponent, "m": m, point: index, "rho": rho, "fmt": fmt},
        ))

    def periods(max_m: int, fmt: str) -> Command:
        return Command(("verify-periods", "--max-m", str(max_m), "--format", fmt),
                       {"kind": "verify-periods", "max_m": max_m, "periods": 5, "fmt": fmt})

    commands += [periods(max_m, rng.choice(FORMATS)) for max_m in (8, 14, 48)]
    commands += [periods(22, rng.choice(FORMATS))] * 5
    edge = rng.choice(EDGE_REQUESTS)
    commands.append(Command(("abel",) + edge["argv"],
                            {"kind": "abel", "fmt": "table", **{k: v for k, v in edge.items() if k != "argv"}}))
    rng.shuffle(commands)
    return commands


WORKLOADS = {
    "ci-report": ci_report,
    "sigma-cache": sigma_cache,
    "series-scale": series_scale,
    "roots-mix": roots_mix,
}


def build(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def sigma_limit(commands: list[Command]) -> int:
    """Largest n any oracle check needs sigma(n) for."""
    return max([1] + [c.params.get("max", c.params.get("count", 1)) for c in commands
                      if c.params["kind"] in ("sigma", "verify-powersums")])
