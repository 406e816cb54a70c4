import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from volkenborn import sequences as seq
from volkenborn.cli import ALL_FAMILIES, cli
from volkenborn.polynomials import Polynomial


class _Tee(io.StringIO):
    """A captured stream that also copies each write into ``both``, so output interleaves stdout and stderr."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@pytest.fixture
def run(monkeypatch):
    """Run the CLI in process: its exit code, stdout, stderr, and both as one ``output``."""

    def invoke(args, env=None):
        for name, value in (env or {}).items():
            monkeypatch.setenv(name, value)
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as done:
            cli.main(args, prog_name="volkenborn")
        return SimpleNamespace(exit_code=done.value.code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=both.getvalue())

    return invoke


def test_seq_daehee_values(run):
    result = run(["seq", "daehee", "--n", "4", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "n,value\n0,1\n1,-1/2\n2,2/3\n3,-3/2\n4,24/5\n"


def test_seq_changhee_second_kind(run):
    result = run(["seq", "changhee2", "--n", "4", "--format", "csv"])
    assert result.exit_code == 0
    values = [line.split(",")[1] for line in result.output.splitlines()[1:]]
    assert values == ["1", "-1/2", "-1/2", "-3/4", "-3/2"]


def test_seq_stirling_triangle_row_zero(run):
    result = run(["seq", "stirling1", "--n", "0", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "n,k,value\n0,0,1\n"


def test_seq_parametric_family_needs_param(run):
    result = run(["seq", "apostol-bernoulli", "--n", "3"])
    assert result.exit_code == 2
    assert "--param" in result.output

    ok = run(["seq", "apostol-bernoulli", "--n", "2", "--param", "2", "--format", "csv"])
    assert ok.exit_code == 0
    assert ok.output.splitlines()[1:] == ["0,0", "1,1", "2,-4"]


def test_seq_unknown_family_is_usage_error(run):
    result = run(["seq", "nonsense", "--n", "3"])
    assert result.exit_code == 2


def test_seq_excluded_parameter_is_usage_error(run):
    result = run(["seq", "frobenius-euler", "--n", "3", "--param", "1"])
    assert result.exit_code == 2


# what the command line accepts, beyond plain `--option value` words: values
# that begin with "-", "--opt=value", options before the positional and the
# short -N; and what it refuses: abbreviated options and a format from the
# environment that is not one of the choices
LANGUAGE = {
    "negative-poly": (["integral", "b", "--poly", "-1,2", "--exact", "--format", "csv"], {}, 0, "value\n-2\n"),
    "negative-param": (
        ["seq", "apostol-bernoulli", "--n", "2", "--param", "-1/2", "--format", "csv"],
        {},
        0,
        "n,value\n0,0\n1,-2/3\n2,4/9\n",
    ),
    "negative-q": (
        ["integral", "q", "--poly", "0,1", "--level", "--p", "3", "--N", "2", "--q", "-1/2", "--format", "csv"],
        {},
        0,
        "value,err_valuation\n-6/19,\n",
    ),
    "abbreviated-option": (["seq", "bernoulli", "--fo", "csv", "--n", "2"], {}, 2, ""),
    "abbreviated-option-equals": (["seq", "bernoulli", "--form=csv", "--n", "2"], {}, 2, ""),
    "env-format-not-a-choice": (["seq", "bernoulli", "--n", "2"], {"VOLKENBORN_FORMAT": "xml"}, 2, ""),
    "no-command": ([], {}, 2, ""),
    "option-equals": (["seq", "bernoulli", "--n=3", "--format=csv"], {}, 0, "n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n"),
    "options-before-positional": (
        ["seq", "--n", "1", "--format", "csv", "bernoulli"], {}, 0, "n,value\n0,1\n1,-1/2\n"
    ),
    "short-N": (
        ["integral", "b", "--poly", "0,1", "--level", "--p", "3", "-N", "2", "--format", "csv"],
        {},
        0,
        "value,err_valuation\n4,2\n",
    ),
}


@pytest.mark.parametrize("case", list(LANGUAGE))
def test_command_line_language(run, case):
    args, env, code, stdout = LANGUAGE[case]
    result = run(args, env=env)
    assert result.exit_code == code, result.output
    assert result.stdout == stdout
    if code == 2 and args:
        assert result.output.count("Error:") == 1
    if not args:  # the command list goes to stderr
        assert all(name in result.stderr for name in ("seq", "integral", "converge", "verify", "table-dump"))


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
def test_seq_family_matches_library(run, family):
    result = run(["seq", family, "--n", "8", "--format", "csv", *REQUIRED.get(family, [])])
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


def test_seq_array_poly(run):
    result = run(
        ["seq", "array-poly", "--n", "3", "--v", "0", "--param", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["values"][3]["coeffs"] == ["0", "0", "0", "1"]  # plain monomial at v=0


def test_integral_exact(run):
    result = run(["integral", "b", "--poly", "0,1", "--exact", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "-1/2"


def test_integral_level_with_error_valuation(run):
    result = run(
        ["integral", "b", "--poly", "0,1", "--level", "--p", "3", "--N", "2", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "4,2"


def test_integral_fermionic_even_prime_rejected(run):
    result = run(["integral", "f", "--poly", "1", "--level", "--p", "2", "--N", "3"])
    assert result.exit_code == 2
    assert "odd" in result.output


def test_integral_mode_is_mandatory(run):
    result = run(["integral", "b", "--poly", "1"])
    assert result.exit_code == 2


def test_converge_bosonic_csv(run):
    result = run(
        ["converge", "--poly", "0,0,1", "--measure", "b", "--p", "5", "--N-max", "5", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "N,value,err_valuation"
    assert len(lines) == 6
    vals = [int(line.split(",")[2]) for line in lines[1:]]
    assert vals == sorted(vals)


def test_converge_fermionic_constant_is_exact(run):
    result = run(
        ["converge", "--poly", "1", "--measure", "f", "--p", "3", "--N-max", "4", "--format", "csv"],
    )
    assert result.exit_code == 0
    for line in result.output.splitlines()[1:]:
        assert line.endswith(",inf")


def test_converge_q_measure(run):
    result = run(
        ["converge", "--poly", "0,1", "--measure", "q", "--q", "4", "--p", "3", "--N-max", "3", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 4
    assert lines[0] == "N,value,err_valuation"
    # no symbolic reference for the q measure: error column stays empty
    assert all(line.endswith(",") for line in lines[1:])


def test_converge_csv_is_exact(run):
    result = run(
        ["converge", "--poly", "0,1", "--measure", "b", "--p", "3", "--N-max", "2", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.output == "N,value,err_valuation\n1,1,1\n2,4,2\n"


# requests with an option they do not use, and the option their error names
UNUSED_OPTION = {
    ("seq", "bernoulli", "--n", "3", "--param", "2"): "--param",
    ("seq", "stirling1", "--n", "3", "--param", "2"): "--param",
    ("seq", "bernoulli", "--n", "3", "--v", "2"): "--v",
    ("seq", "apostol-euler", "--n", "3", "--param", "2", "--v", "1"): "--v",
    ("integral", "b", "--poly", "0,1", "--exact", "--p", "4", "--N", "2"): "--p",
    ("integral", "f", "--poly", "0,1", "--exact", "--N", "2"): "--N",
}


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
        *map(list, UNUSED_OPTION),
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
        "seq-single-with-param",
        "seq-triangle-with-param",
        "seq-single-with-v",
        "seq-parametric-with-v",
        "integral-exact-with-p",
        "integral-exact-with-N",
    ],
)
def test_bad_request_is_usage_error(run, args):
    result = run(args)
    assert result.exit_code == 2
    assert result.output.count("Error:") == 1


@pytest.mark.parametrize("args", list(UNUSED_OPTION))
def test_unused_option_is_named(run, args):
    result = run(args)
    assert UNUSED_OPTION[args] in result.output.split("Error:")[1]


def test_unprintable_exact_result_is_usage_error(run):
    # the level value (3^9100 - 1)/2 has more digits than CPython turns into text
    t0 = time.perf_counter()
    result = run(["integral", "b", "--poly", "0,1", "--level", "--p", "3", "--N", "9100"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert result.output.count("Error:") == 1
    assert "4300 digits" in result.output
    assert "PYTHONINTMAXSTRDIGITS" in result.output
    assert "set_int_max_str_digits" not in result.output


def test_verify_selected_ids(run):
    result = run(["verify", "--ids", "I01,I34", "--n-max", "20", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert {r["id"] for r in obj["records"]} == {"I01", "I34a", "I34b"}
    assert obj["totals"]["failing_records"] == 0


def test_verify_unknown_id_names_it(run):
    result = run(["verify", "--ids", "BOGUS"])
    assert result.exit_code == 2
    assert "BOGUS" in result.output


def test_verify_full_suite_small_cap(run):
    result = run(["verify", "--n-max", "6", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["totals"]["failing_records"] == 0
    assert obj["totals"]["records"] >= 35


def test_verify_empty_id_is_usage_error(run):
    for ids in [",", "I01,,I02", "I01,", ""]:
        result = run(["verify", "--ids", ids])
        assert result.exit_code == 2, ids
        assert "empty record id" in result.output, ids


def test_verify_negative_n_max_is_usage_error(run):
    result = run(["verify", "--ids", "I01", "--n-max", "-7"])
    assert result.exit_code == 2
    assert "n_max must be >= 0" in result.output
    zero = run(["verify", "--ids", "I01", "--n-max", "0", "--format", "csv"])
    assert zero.exit_code == 0
    assert zero.output.splitlines()[1] == "I01,verified,1,0,ok"


def test_verify_n_max_above_the_limit_is_usage_error(run):
    t0 = time.perf_counter()
    result = run(["verify", "--n-max", "61"])
    assert result.exit_code == 2
    assert "n_max must be >= 0 and <= 60: got 61" in result.output
    assert time.perf_counter() - t0 < 1.0
    top = run(["verify", "--ids", "I01", "--n-max", "60", "--format", "csv"])
    assert top.exit_code == 0
    assert top.output.splitlines()[1] == "I01,verified,61,0,ok"


# sha256 of whole `verify` outputs: they pin every record's id, order, status,
# grid size, note and verdict (bench/expected.json pins only some of these);
# recompute them only for a deliberate change to the catalog
VERIFY_DIGESTS = {
    ("--format", "json"): "77ec53a165f102fc7954e37338a9f821ff81f8fbe4fc89547c01ffb9ff20b92b",
    ("--n-max", "6", "--format", "csv"): "582e7ed58a25fd3c8bef816d8a7d3c6b4fb6b6515910df2e9acd23607388147e",
    ("--format", "table"): "a7501b44f337819061d77bafb935f5583a77053a7d9286473a74c7c71def4085",
}


# sha256 of every --help page at an 80-column terminal (COLUMNS=80): moving
# imports or adding request checks must not change what the CLI offers
HELP_DIGESTS = {
    (): "6e36b20da8b86f5662574f2d94d331ef769408f72fdf1664c8c766df709f1b8b",
    ("seq",): "8d0a282fe4a08074625b74eb87aaef071144f6db75468f4276b3c0824b066dae",
    ("integral",): "b7251624a28a281efce0f17ced953f0a87320a4e9103bb41b30948a18a10a3ee",
    ("converge",): "34cf707ea2a1ed9b91c101a83553af5d78d93d9203001c4f2e967bb607a3dce1",
    ("verify",): "3992edb574ba9fd20d8e97a73a300f6da62936bb86d8f2650e97f56fd799b9dd",
    ("table-dump",): "13ba9bdd578ab6533d1450597a8122572b9c938a121973e31fb5f4e5fc56cb81",
}


@pytest.mark.parametrize("args", list(HELP_DIGESTS), ids=lambda args: args[0] if args else "group")
def test_help_is_frozen(run, args):
    result = run([*args, "--help"], env={"COLUMNS": "80"})
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == HELP_DIGESTS[args]


@pytest.mark.parametrize("args", list(VERIFY_DIGESTS), ids=["json", "n-max-6-csv", "table"])
def test_verify_output_is_frozen(run, args):
    result = run(["verify", *args])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == VERIFY_DIGESTS[args]


def test_verify_jobs_do_not_change_output(run):
    a = run(["verify", "--ids", "I23", "--n-max", "8", "--format", "json"])
    b = run(["verify", "--ids", "I23", "--n-max", "8", "--jobs", "4", "--format", "json"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    # --jobs is accepted for compatibility, ignored, and hidden from help
    assert run(["verify", "--ids", "I01", "--jobs", "0"]).exit_code == 2
    assert "--jobs" not in run(["verify", "--help"]).output


def test_converge_at_a_large_prime_is_fast(run):
    t0 = time.perf_counter()
    result = run(
        ["converge", "--poly", "0,1", "--measure", "b", "--p", "1000000000000000003", "--N-max", "2"]
    )
    assert result.exit_code == 0
    assert time.perf_counter() - t0 < 1.0


def test_converge_at_a_large_composite_is_usage_error(run):
    result = run(
        ["converge", "--poly", "0,1", "--measure", "b", "--p", "1000000000000000001", "--N-max", "2"]
    )
    assert result.exit_code == 2
    assert "is not prime" in result.output


def test_converge_past_the_q_guard_fails_before_any_level(run):
    # levels 1..12 of this request are inside the guard and would take minutes
    t0 = time.perf_counter()
    result = run(
        ["converge", "--poly", "0,1", "--measure", "q", "--q", "4", "--p", "3", "--N-max", "13"]
    )
    assert result.exit_code == 2
    assert "q-weighted level sum limited to p^N <= 1000000" in result.output
    assert time.perf_counter() - t0 < 1.0


def test_empty_polynomial_coefficient_is_usage_error(run):
    for poly in ["0,,1", "0,1,"]:
        result = run(["integral", "b", "--poly", poly, "--exact"])
        assert result.exit_code == 2, poly
        assert "empty polynomial coefficient" in result.output


def test_json_round_trip_matches_in_memory_values(run):
    from volkenborn.sequences import bernoulli

    result = run(["seq", "bernoulli", "--n", "12", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    for entry in obj["values"]:
        assert Fraction(entry["value"]) == bernoulli(entry["n"])


def test_byte_for_byte_determinism(run):
    args = ["table-dump", "stirling2", "--n-max", "8", "--format", "csv"]
    assert run(args).output == run(args).output
    args = ["verify", "--ids", "I12", "--format", "json"]
    assert run(args).output == run(args).output


def test_format_env_var_sets_default(run):
    result = run(
        ["seq", "euler", "--n", "2"], env={"VOLKENBORN_FORMAT": "json"}
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["values"][1]["value"] == "-1/2"


def test_table_dump_csv(run):
    result = run(["table-dump", "lah", "--n-max", "3", "--format", "csv"])
    assert result.exit_code == 0
    assert "3,1,6" not in result.output  # signed family: L(3,1) = -6
    assert "3,1,-6" in result.output


def test_table_dump_json(run):
    result = run(["table-dump", "eulerian", "--n-max", "4", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    row = [r for r in obj["rows"] if r["n"] == 4 and r["k"] == 2]
    assert row == [{"n": 4, "k": 2, "value": "11"}]


def test_malformed_rational_is_usage_error(run):
    result = run(["integral", "b", "--poly", "0,zebra", "--exact"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["seq", "apostol-bernoulli", "--n", "3", "--param", "1e1000000"],
        ["seq", "frobenius-euler", "--n", "3", "--param", "1E1000000"],
        ["integral", "b", "--poly", "1e9999999", "--exact"],
    ],
    ids=["apostol-bernoulli-param", "frobenius-euler-param", "integral-poly"],
)
def test_exponent_notation_is_usage_error(run, args):
    # Fraction accepts exponent notation and would build a 10^6- or 10^7-digit int
    t0 = time.perf_counter()
    result = run(args)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert result.output.count("Error:") == 1
    assert "must be an exact rational like 3, -1/2" in result.output


def test_verify_exit_code_reflects_failures(run, monkeypatch):
    import dataclasses

    from volkenborn import identities as idmod

    records = list(idmod.catalog())
    orig = records[0]
    records[0] = dataclasses.replace(orig, rhs=lambda *a: orig.rhs(*a) + 1)
    monkeypatch.setattr(idmod, "_CATALOG_CACHE", tuple(records))
    result = run(["verify", "--ids", orig.id, "--format", "json"])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["totals"]["failing_records"] == 1


def test_command_table_is_what_a_harness_drives(monkeypatch):
    # a harness runs `cli.main(args=..., prog_name=...)` and wraps `commands[name].callback`
    monkeypatch.delenv("VOLKENBORN_FORMAT", raising=False)
    assert cli.name == "volkenborn" and cli.commands["seq"].name == "seq"
    first = io.StringIO()
    monkeypatch.setattr(sys, "stdout", first)
    with pytest.raises(SystemExit) as done:
        cli.main(args=["seq", "bernoulli", "--n", "2", "--format", "csv"], prog_name="volkenborn")
    assert done.value.code == 0 and first.getvalue() == "n,value\n0,1\n1,-1/2\n2,1/6\n"

    calls = []

    def wrapped(**params):
        calls.append(params)
        sys.stdout.write("wrapped\n")
        return 3

    monkeypatch.setattr(cli.commands["seq"], "callback", wrapped)
    second = io.StringIO()
    monkeypatch.setattr(sys, "stdout", second)  # read when the command runs, not at import
    with pytest.raises(SystemExit) as done:
        cli.main(args=["seq", "bernoulli", "--n", "2"], prog_name="volkenborn")
    assert done.value.code == 3 and second.getvalue() == "wrapped\n" and first.getvalue().count("\n") == 4
    assert calls == [{"family": "bernoulli", "n_max": 2, "param": None, "order_v": None, "fmt": "table"}]
