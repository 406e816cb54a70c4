"""Self-tests of the benchmark: python3 -m pytest bench

Runs cut down to a few ops per round, the checks, the tracer's clean-up
and the refusal to run without package source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS_PER_ROUND = {"catalog": 4, "level_sums": 12, "cli_mix": 2}


def tiny(name: str, expected: dict | None = None):
    workload = workloads.WORKLOADS[name](expected or workloads.load_expected())
    full_round = workload.round
    workload.round = lambda rng: full_round(rng)[: OPS_PER_ROUND[name]]
    return workload


def tiny_run(workload, trace: bool):
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, min_ops=1, probes=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(OPS_PER_ROUND))
def test_tiny_run_reports_every_metric(name, trace):
    result, meta, _ = tiny_run(tiny(name), trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and meta["failed_frac"] == 0
    assert result["attempted"] >= OPS_PER_ROUND[name]


def test_every_layer_is_measured_when_traced():
    result, _, _ = tiny_run(tiny("level_sums"), trace=True)
    for layer in layertrace.LAYERS:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0
        assert result["metrics"][f"{layer}.self_s"]["value"] > 0


def test_corrupted_frozen_value_counts_as_failure():
    expected = workloads.load_expected()
    first = workloads.Catalog(expected).round(None)[0]
    expected["catalog"][first] = [*expected["catalog"][first][:1], expected["catalog"][first][1] + 1, 0, None]
    result, _, _ = tiny_run(tiny("catalog", expected), trace=False)
    assert result["failed"] == 1 and not result["correct"]


def test_corrupted_reference_value_counts_as_failure():
    workload = tiny("level_sums")
    workload.reference = lambda op: Fraction(-1, 7)  # no op in the workload has this value
    result, _, _ = tiny_run(workload, trace=False)
    assert result["failed"] == result["attempted"] and not result["correct"]


def _bindings() -> list[tuple[str, object]]:
    from volkenborn import cli
    from volkenborn.polynomials import Polynomial
    from volkenborn.series import PowerSeries

    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("volkenborn"):
            continue
        for attr, value in vars(mod).items():
            out.append((f"{mod_name}.{attr}", value))
            if isinstance(value, dict) and attr != "__builtins__":
                out.extend((f"{mod_name}.{attr}[{k!r}]", v) for k, v in value.items() if callable(v))
    for cls in (Polynomial, PowerSeries):
        out.extend((f"{cls.__name__}.{attr}", v) for attr, v in vars(cls).items())
    out.extend((f"cli.{c.name}.callback", c.callback) for c in cli.cli.commands.values())
    return out


def test_tracer_restores_every_wrapped_binding():
    from volkenborn import integrals, sequences

    before = _bindings()
    tracer = layertrace.Tracer()
    with tracer:
        # the name integrals imported is rebound too, to the same wrapper
        assert integrals.bernoulli_poly is sequences.bernoulli_poly
        assert integrals.bernoulli_poly.__wrapped__ is dict(before)["volkenborn.sequences.bernoulli_poly"]
        layertrace.touch_every_layer(tracer)
    after = dict(_bindings())
    assert [name for name, value in before if after.get(name) is not value] == []
    assert tracer.metrics()["integrals.poly_builds"] > 0


def test_oracle_matches_sympy():
    sympy = pytest.importorskip("sympy")
    B = oracle.bernoulli_numbers(30)
    # sympy uses B_1 = +1/2
    assert all(Fraction(str(sympy.bernoulli(k))) == (B[k] if k != 1 else -B[k]) for k in range(31))
    x = sympy.symbols("x")
    for n in (0, 1, 5, 12):
        m = 37
        assert oracle.power_sum(n, m) == sum(Fraction(i) ** n for i in range(m))
        assert oracle.alternating_power_sum(n, m) == sum((-1) ** i * Fraction(i) ** n for i in range(m))
        assert Fraction(str(sympy.euler(n, x).subs(x, 0))) == oracle.euler_numbers(n)[n]


def test_exits_without_result_when_source_is_missing():
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_times_scale_to_the_reference_speed():
    ref = run.CAL_REF_S
    assert run.at_reference_speed([0.5, 0.25], [ref] * 3, ref) == [0.5, 0.25]
    # the host ran at half speed around both ops: each time halves
    assert run.at_reference_speed([0.5, 0.25], [2 * ref] * 3, ref) == [0.25, 0.125]
    # one slow calibration next to an op is outvoted by the others around it
    assert run.at_reference_speed([0.5, 0.5, 0.5], [ref, ref, 9 * ref, ref], ref)[0] == 0.5
