"""The benchmark's workloads: inputs made from a seed, the op each input drives, and its check.

Each workload hands out rounds of ops.  A round is the workload's whole
input set in an order drawn from the seed, so every round costs about the
same and the benchmark can stop between rounds.  Results are checked
after the timed phase, against frozen outputs (``expected.json``) or the
independent reference in ``oracle.py``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import oracle
from volkenborn import identities, integrals, sequences
from volkenborn.integrals import Measure
from volkenborn.polynomials import Polynomial

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
CLI_TIMEOUT_S = 60


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def child_env() -> dict:
    """Environment for package processes: ./src first, no format override."""
    env = dict(os.environ)
    env.pop("VOLKENBORN_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class OpError:
    """What an op returned instead of a result: it raised or its process failed."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


class Catalog:
    """identities.verify over all 79 records, caches cleared before each pass.

    The inputs are the catalog itself, in catalog order as ``volkenborn
    verify`` runs it, so the seed changes nothing here: shuffling the
    order would move table-growth cost from record to record and make the
    per-op percentiles jump between seeds.
    """

    name = "catalog"

    def __init__(self, expected: dict) -> None:
        self.expected = expected["catalog"]
        self.records: dict = {}
        self._clear = sequences.clear_caches  # bound now, so a traced round does not trace it

    @staticmethod
    def setup() -> None:
        identities.catalog()

    def round(self, rng) -> list[str]:
        return [r.id for r in identities.catalog()]

    def start_round(self) -> None:
        self._clear()
        # catalog() is looked up each round: a traced round rebuilds it from wrapped names
        self.records = {r.id: r for r in identities.catalog()}

    def run(self, op: str):
        r = identities.verify(self.records[op])
        return [r.status, r.points, r.mismatch_count, r.literal_confirmed]

    def run_in_process(self, op: str, tracer=None):
        """The op for traced runs; the wrappers record it, so the tracer is not needed."""
        return self.run(op)

    def check(self, op: str, out) -> bool:
        return out == self.expected[op]


# level_sums: one block is ten ops; the 48 blocks of a round cover every
# (N, degree, q) combination of the q-weighted ops once, and every other
# size (degree, N_max, power) is stratified by block index, so the cost
# of a round does not depend on the seed.  The seed picks coefficients,
# primes, levels and the order of the ops.
PRIMES = (3, 5, 7, 11, 13)
Q_LEVELS = (5, 6, 7, 8)  # p^N from 3^5 to 3^8; 3^12 would take minutes per op
Q_DEGREES = (1, 3, 5)
Q_VALUES = (4, -2, 7, -5)  # q = 1 (mod 3), so v_3(1 - q) >= 1
BLOCKS = len(Q_LEVELS) * len(Q_DEGREES) * len(Q_VALUES)
MAX_DEGREE = 30


def _coeffs(rng, degree: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(degree + 1))


def _level(rng) -> tuple[int, int]:
    p = rng.choice(PRIMES)
    return p, rng.randint(1, int(18 / math.log10(p)))


class LevelSums:
    """Level integrals, power sums and convergence reports on warm tables."""

    name = "level_sums"

    def __init__(self, expected: dict) -> None:
        self._template: list[tuple] | None = None
        self._reference: dict[tuple, object] = {}
        self._inputs: dict[tuple, tuple] = {}

    @staticmethod
    def setup() -> None:
        for n in range(MAX_DEGREE + 2):
            sequences.bernoulli(n)
            sequences.euler(n)

    def _make_template(self, rng) -> list[tuple]:
        ops = []
        for b in range(BLOCKS):
            qN = Q_LEVELS[b % 4]
            qdeg = Q_DEGREES[(b // 4) % 3]
            q = Q_VALUES[b // 12]
            ops.append(("q", _coeffs(rng, qdeg), q, 3, qN))
            ops.append(("conv", "bf"[b % 2], _coeffs(rng, 4 + (5 * b) % 9), rng.choice(PRIMES), 12 + b % 8))
            for j in range(4):
                ops.append(("level", "b", _coeffs(rng, (4 * b + j) % (MAX_DEGREE + 1)), *_level(rng)))
            for j in range(2):
                ops.append(("level", "f", _coeffs(rng, (2 * b + j + 5) % (MAX_DEGREE + 1)), *_level(rng)))
            ops.append(("power", (5 * b) % (MAX_DEGREE + 1), rng.randint(1, 10**18)))
            ops.append(("alt", (7 * b + 3) % (MAX_DEGREE + 1), rng.randint(1, 10**18)))
        for op in ops:
            if op[0] in ("q", "level", "conv"):
                measure = Measure.q_weighted(op[2]) if op[0] == "q" else Measure(
                    "bosonic" if op[1] == "b" else "fermionic"
                )
                self._inputs[op] = (Polynomial(op[2] if op[0] != "q" else op[1]), measure)
        return ops

    def round(self, rng) -> list[tuple]:
        if self._template is None:
            self._template = self._make_template(rng)
        ops = list(self._template)
        rng.shuffle(ops)
        return ops

    def start_round(self) -> None:
        pass

    def run(self, op: tuple):
        kind = op[0]
        if kind == "power":
            return integrals.power_sum(op[1], op[2])
        if kind == "alt":
            return integrals.alternating_power_sum(op[1], op[2])
        poly, measure = self._inputs[op]
        if kind == "conv":
            report = integrals.convergence_report(poly, measure, op[3], op[4])
            return report.exact, [(row.N, row.value, row.err_valuation) for row in report.rows]
        return integrals.level_integral(poly, measure, op[3], op[4])

    def run_in_process(self, op: tuple, tracer=None):
        """The op for traced runs; the wrappers record it, so the tracer is not needed."""
        return self.run(op)

    def reference(self, op: tuple):
        if op not in self._reference:
            self._reference[op] = _reference(op)
        return self._reference[op]

    def check(self, op: tuple, out) -> bool:
        return out == self.reference(op)


def _reference(op: tuple):
    kind = op[0]
    if kind == "power":
        return oracle.power_sum(op[1], op[2])
    if kind == "alt":
        return oracle.alternating_power_sum(op[1], op[2])
    if kind == "q":
        _, coeffs, q, p, N = op
        return oracle.level_sum(coeffs, "q", p**N, q)
    if kind == "level":
        _, measure, coeffs, p, N = op
        return oracle.level_sum(coeffs, measure, p**N)
    _, measure, coeffs, p, n_max = op
    exact = oracle.exact_integral(coeffs, measure)
    rows = []
    for N in range(1, n_max + 1):
        value = oracle.level_sum(coeffs, measure, p**N)
        rows.append((N, value, oracle.valuation(value - exact, p)))
    return exact, rows


# cli_mix: a fixed command set.  Most commands sit near the process-start
# floor; six (EGF-backed associated Stirling and Cauchy tables, a verify
# run) grow tables quadratically and take about three times as long, so
# the median and the 90th percentile each fall inside one group.
CLI_COMMANDS = (
    "seq stirling1 --n 60 --format csv",
    "seq stirling2 --n 60 --format json",
    "seq lah --n 60 --format table",
    "seq eulerian --n 60 --format csv",
    "seq bernoulli --n 60 --format csv",
    "seq fubini --n 60 --format json",
    "seq daehee --n 40 --format table",
    "seq changhee2 --n 40 --format json",
    "seq apostol-bernoulli --n 30 --param 2 --format csv",
    "seq frobenius-euler --n 30 --param 3 --format table",
    "seq array-poly --n 20 --v 3 --param 2 --format json",
    "table-dump stirling1 --n-max 40 --format json",
    "table-dump eulerian --n-max 40 --format table",
    "table-dump lah --n-max 40 --format csv",
    "converge --poly 0,0,1 --measure b --p 5 --N-max 12 --format csv",
    "converge --poly 1,2,3 --measure q --q 4 --p 3 --N-max 5 --format json",
    "converge --poly 1,-1,0,2 --measure f --p 7 --N-max 10 --format table",
    "integral f --poly 1,0,3,5 --level --p 7 --N 9 --format json",
    "integral b --poly 0,1,0,0,1 --level --p 3 --N 30 --format csv",
    "verify --ids I33,I34 --jobs 2 --format json",
    "seq assoc-stirling1 --n 30 --format json",
    "seq assoc-stirling2 --n 28 --format csv",
    "table-dump assoc-stirling1 --n-max 28 --format table",
    "table-dump assoc-stirling2 --n-max 28 --format json",
    "verify --ids I01,I26 --jobs 2 --format csv",
    "seq cauchy --n 80 --format table",
)


class CliMix:
    """One fresh `python -m volkenborn.cli` process per command."""

    name = "cli_mix"

    def __init__(self, expected: dict) -> None:
        self.expected = expected["cli_mix"]
        self._env = child_env()
        self._runner = None
        self._clear = sequences.clear_caches  # bound now, so a traced round does not trace it

    @staticmethod
    def setup() -> None:
        import volkenborn.cli  # noqa: F401  (the bare-import probe runs this in its own process)

    def round(self, rng) -> list[str]:
        ops = list(CLI_COMMANDS)
        rng.shuffle(ops)
        return ops

    def start_round(self) -> None:
        pass

    def run(self, op: str):
        proc = subprocess.Popen(
            [sys.executable, "-m", "volkenborn.cli", *op.split()],
            cwd=ROOT,
            env=self._env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return digest(proc.returncode, out)

    def run_in_process(self, op: str, tracer=None):
        """The same command through click's test runner, starting from empty tables.

        With a tracer the invocation is a span of the cli layer.
        """
        from click.testing import CliRunner

        from volkenborn import cli

        if self._runner is None:
            self._runner = CliRunner()
        self._clear()
        args = (cli.cli, op.split())
        kwargs = {"env": {"VOLKENBORN_FORMAT": None}}
        if tracer is None:
            result = self._runner.invoke(*args, **kwargs)
        else:
            result = tracer.call("cli", "cli.invoke", self._runner.invoke, args, kwargs)
        return digest(result.exit_code, result.stdout_bytes)

    def check(self, op: str, out) -> bool:
        return out == self.expected[op]


def digest(exit_code: int, stdout: bytes) -> str:
    return f"{exit_code}:{hashlib.sha256(stdout).hexdigest()}"


WORKLOADS = {w.name: w for w in (Catalog, LevelSums, CliMix)}
