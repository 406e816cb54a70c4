import csv
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from volkenborn import sequences as seq
from volkenborn.cli import ALL_FAMILIES, cli
from volkenborn.polynomials import Polynomial


@pytest.fixture
def runner():
    return CliRunner()


def test_seq_daehee_values(runner):
    result = runner.invoke(cli, ["seq", "daehee", "--n", "4", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "n,value\n0,1\n1,-1/2\n2,2/3\n3,-3/2\n4,24/5\n"


def test_seq_changhee_second_kind(runner):
    result = runner.invoke(cli, ["seq", "changhee2", "--n", "4", "--format", "csv"])
    assert result.exit_code == 0
    values = [line.split(",")[1] for line in result.output.splitlines()[1:]]
    assert values == ["1", "-1/2", "-1/2", "-3/4", "-3/2"]


def test_seq_stirling_triangle_row_zero(runner):
    result = runner.invoke(cli, ["seq", "stirling1", "--n", "0", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "n,k,value\n0,0,1\n"


def test_seq_parametric_family_needs_param(runner):
    result = runner.invoke(cli, ["seq", "apostol-bernoulli", "--n", "3"])
    assert result.exit_code == 2
    assert "--param" in result.output

    ok = runner.invoke(cli, ["seq", "apostol-bernoulli", "--n", "2", "--param", "2", "--format", "csv"])
    assert ok.exit_code == 0
    assert ok.output.splitlines()[1:] == ["0,0", "1,1", "2,-4"]


def test_seq_unknown_family_is_usage_error(runner):
    result = runner.invoke(cli, ["seq", "nonsense", "--n", "3"])
    assert result.exit_code == 2


def test_seq_excluded_parameter_is_usage_error(runner):
    result = runner.invoke(cli, ["seq", "frobenius-euler", "--n", "3", "--param", "1"])
    assert result.exit_code == 2


# each `seq` family's library function, at the --param and --v the test passes
ONE_INDEX = {
    "bernoulli": seq.bernoulli,
    "euler": seq.euler,
    "daehee": seq.daehee,
    "daehee2": seq.daehee_hat,
    "changhee": seq.changhee,
    "changhee2": seq.changhee_hat,
    "fubini": seq.fubini,
    "cauchy": seq.cauchy,
    "harmonic": seq.harmonic,
    "apostol-bernoulli": lambda n: seq.apostol_bernoulli(n, 3),
    "apostol-euler": lambda n: seq.apostol_euler(n, 3),
    "frobenius-euler": lambda n: seq.frobenius_euler(n, 3),
    "array-poly": lambda n: seq.array_poly(n, 2, 3),
}
TWO_INDEX = {
    "stirling1": seq.stirling1,
    "stirling2": seq.stirling2,
    "lah": seq.lah,
    "eulerian": seq.eulerian,
    "assoc-stirling1": seq.assoc_stirling1,
    "assoc-stirling2": seq.assoc_stirling2,
}
REQUIRED = {
    "apostol-bernoulli": ["--param", "3"],
    "apostol-euler": ["--param", "3"],
    "frobenius-euler": ["--param", "3"],
    "array-poly": ["--param", "3", "--v", "2"],
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_seq_family_matches_library(runner, family):
    result = runner.invoke(cli, ["seq", family, "--n", "8", "--format", "csv", *REQUIRED.get(family, [])])
    assert result.exit_code == 0, result.output
    _, *rows = csv.reader(io.StringIO(result.output))
    if family in TWO_INDEX:
        assert [(int(n), int(k)) for n, k, _ in rows] == [(n, k) for n in range(9) for k in range(n + 1)]
        for n, k, value in rows:
            assert Fraction(value) == TWO_INDEX[family](int(n), int(k)), (n, k)
        return
    assert [int(n) for n, _ in rows] == list(range(9))
    for n, value in rows:
        if family == "array-poly":
            assert Polynomial(Fraction(c) for c in json.loads(value)) == ONE_INDEX[family](int(n)), n
        else:
            assert Fraction(value) == ONE_INDEX[family](int(n)), n


def test_seq_array_poly(runner):
    result = runner.invoke(
        cli, ["seq", "array-poly", "--n", "3", "--v", "0", "--param", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["values"][3]["coeffs"] == ["0", "0", "0", "1"]  # plain monomial at v=0


def test_integral_exact(runner):
    result = runner.invoke(cli, ["integral", "b", "--poly", "0,1", "--exact", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "-1/2"


def test_integral_level_with_error_valuation(runner):
    result = runner.invoke(
        cli, ["integral", "b", "--poly", "0,1", "--level", "--p", "3", "--N", "2", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "4,2"


def test_integral_fermionic_even_prime_rejected(runner):
    result = runner.invoke(cli, ["integral", "f", "--poly", "1", "--level", "--p", "2", "--N", "3"])
    assert result.exit_code == 2
    assert "odd" in result.output


def test_integral_mode_is_mandatory(runner):
    result = runner.invoke(cli, ["integral", "b", "--poly", "1"])
    assert result.exit_code == 2


def test_converge_bosonic_csv(runner):
    result = runner.invoke(
        cli,
        ["converge", "--poly", "0,0,1", "--measure", "b", "--p", "5", "--N-max", "5", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "N,value,err_valuation"
    assert len(lines) == 6
    vals = [int(line.split(",")[2]) for line in lines[1:]]
    assert vals == sorted(vals)


def test_converge_fermionic_constant_is_exact(runner):
    result = runner.invoke(
        cli,
        ["converge", "--poly", "1", "--measure", "f", "--p", "3", "--N-max", "4", "--format", "csv"],
    )
    assert result.exit_code == 0
    for line in result.output.splitlines()[1:]:
        assert line.endswith(",inf")


def test_converge_q_measure(runner):
    result = runner.invoke(
        cli,
        ["converge", "--poly", "0,1", "--measure", "q", "--q", "4", "--p", "3", "--N-max", "3", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 4
    assert lines[0] == "N,value,err_valuation"
    # no symbolic reference for the q measure: error column stays empty
    assert all(line.endswith(",") for line in lines[1:])


def test_converge_csv_is_exact(runner):
    result = runner.invoke(
        cli, ["converge", "--poly", "0,1", "--measure", "b", "--p", "3", "--N-max", "2", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.output == "N,value,err_valuation\n1,1,1\n2,4,2\n"


@pytest.mark.parametrize(
    "args",
    [
        ["integral", "b", "--poly", "0,1", "--exact", "--q", "4"],
        ["integral", "f", "--poly", "0,1", "--level", "--p", "3", "--N", "2", "--q", "4"],
        ["integral", "q", "--poly", "0,1", "--level", "--p", "3", "--N", "2"],
        ["converge", "--poly", "0,1", "--measure", "b", "--q", "4", "--p", "3", "--N-max", "2"],
        ["converge", "--poly", "0,1", "--measure", "f", "--q", "4", "--p", "3", "--N-max", "2"],
        ["converge", "--poly", "0,1", "--measure", "q", "--p", "3", "--N-max", "2"],
        ["table-dump", "lah", "--n-max", "-1"],
        ["seq", "array-poly", "--n", "3", "--v", "-1", "--param", "1"],
        ["seq", "bernoulli", "--n", "-1"],
    ],
    ids=[
        "integral-b-with-q",
        "integral-f-with-q",
        "integral-q-without-q",
        "converge-b-with-q",
        "converge-f-with-q",
        "converge-q-without-q",
        "table-dump-negative-n-max",
        "seq-negative-v",
        "seq-negative-n",
    ],
)
def test_bad_request_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert result.output.count("Error:") == 1


def test_unprintable_exact_result_is_usage_error(runner):
    # the level value (3^9100 - 1)/2 has more digits than CPython turns into text
    t0 = time.perf_counter()
    result = runner.invoke(cli, ["integral", "b", "--poly", "0,1", "--level", "--p", "3", "--N", "9100"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert result.output.count("Error:") == 1
    assert "4300 digits" in result.output
    assert "PYTHONINTMAXSTRDIGITS" in result.output
    assert "set_int_max_str_digits" not in result.output


def test_verify_selected_ids(runner):
    result = runner.invoke(cli, ["verify", "--ids", "I01,I34", "--n-max", "20", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert {r["id"] for r in obj["records"]} == {"I01", "I34a", "I34b"}
    assert obj["totals"]["failing_records"] == 0


def test_verify_unknown_id_names_it(runner):
    result = runner.invoke(cli, ["verify", "--ids", "BOGUS"])
    assert result.exit_code == 2
    assert "BOGUS" in result.output


def test_verify_full_suite_small_cap(runner):
    result = runner.invoke(cli, ["verify", "--n-max", "6", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["totals"]["failing_records"] == 0
    assert obj["totals"]["records"] >= 35


def test_verify_empty_id_is_usage_error(runner):
    for ids in [",", "I01,,I02", "I01,", ""]:
        result = runner.invoke(cli, ["verify", "--ids", ids])
        assert result.exit_code == 2, ids
        assert "empty record id" in result.output, ids


def test_verify_negative_n_max_is_usage_error(runner):
    result = runner.invoke(cli, ["verify", "--ids", "I01", "--n-max", "-7"])
    assert result.exit_code == 2
    assert "n_max must be >= 0" in result.output
    zero = runner.invoke(cli, ["verify", "--ids", "I01", "--n-max", "0", "--format", "csv"])
    assert zero.exit_code == 0
    assert zero.output.splitlines()[1] == "I01,verified,1,0,ok"


def test_verify_n_max_above_the_limit_is_usage_error(runner):
    t0 = time.perf_counter()
    result = runner.invoke(cli, ["verify", "--n-max", "31"])
    assert result.exit_code == 2
    assert "n_max must be >= 0 and <= 30: got 31" in result.output
    assert time.perf_counter() - t0 < 1.0
    top = runner.invoke(cli, ["verify", "--ids", "I01", "--n-max", "30", "--format", "csv"])
    assert top.exit_code == 0
    assert top.output.splitlines()[1] == "I01,verified,31,0,ok"


# sha256 of whole `verify` outputs: they pin every record's id, order, status,
# grid size, note and verdict (bench/expected.json pins only some of these);
# recompute them only for a deliberate change to the catalog
VERIFY_DIGESTS = {
    ("--format", "json"): "77ec53a165f102fc7954e37338a9f821ff81f8fbe4fc89547c01ffb9ff20b92b",
    ("--n-max", "6", "--format", "csv"): "582e7ed58a25fd3c8bef816d8a7d3c6b4fb6b6515910df2e9acd23607388147e",
    ("--format", "table"): "a7501b44f337819061d77bafb935f5583a77053a7d9286473a74c7c71def4085",
}


@pytest.mark.parametrize("args", list(VERIFY_DIGESTS), ids=["json", "n-max-6-csv", "table"])
def test_verify_output_is_frozen(runner, args):
    result = runner.invoke(cli, ["verify", *args])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == VERIFY_DIGESTS[args]


def test_verify_jobs_do_not_change_output(runner):
    a = runner.invoke(cli, ["verify", "--ids", "I23", "--n-max", "8", "--format", "json"])
    b = runner.invoke(cli, ["verify", "--ids", "I23", "--n-max", "8", "--jobs", "4", "--format", "json"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    # --jobs is accepted for compatibility, ignored, and hidden from help
    assert runner.invoke(cli, ["verify", "--ids", "I01", "--jobs", "0"]).exit_code == 2
    assert "--jobs" not in runner.invoke(cli, ["verify", "--help"]).output


def test_converge_at_a_large_prime_is_fast(runner):
    t0 = time.perf_counter()
    result = runner.invoke(
        cli, ["converge", "--poly", "0,1", "--measure", "b", "--p", "1000000000000000003", "--N-max", "2"]
    )
    assert result.exit_code == 0
    assert time.perf_counter() - t0 < 1.0


def test_converge_at_a_large_composite_is_usage_error(runner):
    result = runner.invoke(
        cli, ["converge", "--poly", "0,1", "--measure", "b", "--p", "1000000000000000001", "--N-max", "2"]
    )
    assert result.exit_code == 2
    assert "is not prime" in result.output


def test_converge_past_the_q_guard_fails_before_any_level(runner):
    # levels 1..12 of this request are inside the guard and would take minutes
    t0 = time.perf_counter()
    result = runner.invoke(
        cli, ["converge", "--poly", "0,1", "--measure", "q", "--q", "4", "--p", "3", "--N-max", "13"]
    )
    assert result.exit_code == 2
    assert "q-weighted level sum limited to p^N <= 1000000" in result.output
    assert time.perf_counter() - t0 < 1.0


def test_empty_polynomial_coefficient_is_usage_error(runner):
    for poly in ["0,,1", "0,1,"]:
        result = runner.invoke(cli, ["integral", "b", "--poly", poly, "--exact"])
        assert result.exit_code == 2, poly
        assert "empty polynomial coefficient" in result.output


def test_json_round_trip_matches_in_memory_values(runner):
    from volkenborn.sequences import bernoulli

    result = runner.invoke(cli, ["seq", "bernoulli", "--n", "12", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    for entry in obj["values"]:
        assert Fraction(entry["value"]) == bernoulli(entry["n"])


def test_byte_for_byte_determinism(runner):
    args = ["table-dump", "stirling2", "--n-max", "8", "--format", "csv"]
    assert runner.invoke(cli, args).output == runner.invoke(cli, args).output
    args = ["verify", "--ids", "I12", "--format", "json"]
    assert runner.invoke(cli, args).output == runner.invoke(cli, args).output


def test_format_env_var_sets_default(runner):
    result = runner.invoke(
        cli, ["seq", "euler", "--n", "2"], env={"VOLKENBORN_FORMAT": "json"}
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["values"][1]["value"] == "-1/2"


def test_table_dump_csv(runner):
    result = runner.invoke(cli, ["table-dump", "lah", "--n-max", "3", "--format", "csv"])
    assert result.exit_code == 0
    assert "3,1,6" not in result.output  # signed family: L(3,1) = -6
    assert "3,1,-6" in result.output


def test_table_dump_json(runner):
    result = runner.invoke(cli, ["table-dump", "eulerian", "--n-max", "4", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    row = [r for r in obj["rows"] if r["n"] == 4 and r["k"] == 2]
    assert row == [{"n": 4, "k": 2, "value": "11"}]


def test_malformed_rational_is_usage_error(runner):
    result = runner.invoke(cli, ["integral", "b", "--poly", "0,zebra", "--exact"])
    assert result.exit_code == 2


def test_verify_exit_code_reflects_failures(runner, monkeypatch):
    import dataclasses

    from volkenborn import identities as idmod

    records = list(idmod.catalog())
    orig = records[0]
    records[0] = dataclasses.replace(orig, rhs=lambda *a: orig.rhs(*a) + 1)
    monkeypatch.setattr(idmod, "_CATALOG_CACHE", tuple(records))
    result = runner.invoke(cli, ["verify", "--ids", orig.id, "--format", "json"])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["totals"]["failing_records"] == 1
