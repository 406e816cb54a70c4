"""Command-line front end.

All numeric output is exact rational text; csv/json renderings are
byte-for-byte deterministic.  Exit codes: 0 success, 1 identity-suite
failure, 2 usage error.  Every subcommand is a ``_Command``, whose
``invoke`` is the one place where a library ``ValueError`` or ``KeyError``
(a bad request, or an exact result too long for ``str``) becomes a usage
error; each command renders its rows through ``_render``.
"""
from __future__ import annotations

import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Union

import click

from . import sequences
from .integrals import Measure, convergence_report, exact_integral, level_integral
from .padic import valuation
from .polynomials import Polynomial

FORMAT_ENVVAR = "VOLKENBORN_FORMAT"
FORMATS = ("table", "csv", "json")

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="table",
    envvar=FORMAT_ENVVAR,
    show_default=True,
    help=f"Output format (env: {FORMAT_ENVVAR}).",
)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{what} must be an exact rational like 3, -1/2: got {text!r}")


def _parse_poly(text: str) -> Polynomial:
    parts = text.split(",")
    if not any(p.strip() for p in parts):
        raise click.UsageError("polynomial needs at least one coefficient")
    if not all(p.strip() for p in parts):
        raise click.UsageError(f"empty polynomial coefficient in {text!r}")
    return Polynomial(_parse_rational(p, "coefficient") for p in parts)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_csv(header: list[str], rows: list[list[str]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _dump_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        out.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return "\n".join(out) + "\n"


def _render(
    fmt: str, header: list[str], rows: list[list[str]], json_obj, table: Optional[str] = None
) -> str:
    """A command's whole output; ``table``, if given, replaces the generic table."""
    if fmt == "json":
        return _dump_json(json_obj)
    if fmt == "csv":
        return _dump_csv(header, rows)
    return _dump_table(header, rows) if table is None else table


def _err_text(v: Union[int, float, None]) -> str:
    """Text form of an error valuation: empty without a reference, "inf" for an exact value."""
    if v is None:
        return ""
    return "inf" if v == math.inf else str(v)


class _Command(click.Command):
    """A subcommand whose library errors, raised while computing or rendering, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (KeyError, ValueError) as exc:
            text = str(exc.args[0]) if exc.args else type(exc).__name__
            if "integer string conversion" in text:
                # CPython's own advice names a call a shell user cannot make
                text = (
                    f"the exact result has more than {sys.get_int_max_str_digits()} digits; "
                    "set the environment variable PYTHONINTMAXSTRDIGITS higher to print it"
                )
            raise click.UsageError(text, ctx)


@click.group()
def cli() -> None:
    """Exact special-number sequences, p-adic integrals, and identity checks."""


cli.command_class = _Command


# ---------------------------------------------------------------------------
# seq

_SINGLE_FAMILIES = {
    "bernoulli": lambda n, p: sequences.bernoulli(n),
    "euler": lambda n, p: sequences.euler(n),
    "daehee": lambda n, p: sequences.daehee(n),
    "daehee2": lambda n, p: sequences.daehee_hat(n),
    "changhee": lambda n, p: sequences.changhee(n),
    "changhee2": lambda n, p: sequences.changhee_hat(n),
    "fubini": lambda n, p: sequences.fubini(n),
    "cauchy": lambda n, p: sequences.cauchy(n),
    "harmonic": lambda n, p: sequences.harmonic(n),
    "apostol-bernoulli": lambda n, p: sequences.apostol_bernoulli(n, p),
    "apostol-euler": lambda n, p: sequences.apostol_euler(n, p),
    "frobenius-euler": lambda n, p: sequences.frobenius_euler(n, p),
}

_PARAMETRIC = {"apostol-bernoulli", "apostol-euler", "frobenius-euler"}

_TRIANGLE_FAMILIES = {
    "stirling1": sequences.stirling1,
    "stirling2": sequences.stirling2,
    "lah": sequences.lah,
    "eulerian": sequences.eulerian,
    "assoc-stirling1": sequences.assoc_stirling1,
    "assoc-stirling2": sequences.assoc_stirling2,
}

ALL_FAMILIES = sorted(_SINGLE_FAMILIES) + sorted(_TRIANGLE_FAMILIES) + ["array-poly"]


def _triangle(family: str, n_max: int) -> tuple[list[list[str]], list[dict]]:
    """Rows [n, k, value] of a two-index family for n <= n_max, and the same rows as json entries."""
    fn = _TRIANGLE_FAMILIES[family]
    rows = [[str(n), str(k), str(fn(n, k))] for n in range(n_max + 1) for k in range(n + 1)]
    return rows, [{"n": int(r[0]), "k": int(r[1]), "value": r[2]} for r in rows]


@cli.command("seq")
@click.argument("family", type=click.Choice(ALL_FAMILIES))
@click.option("--n", "n_max", type=click.IntRange(min=0), required=True, help="Largest index to emit.")
@click.option("--param", default=None, help="Rational parameter (lambda or u) where required.")
@click.option("--v", "order_v", type=click.IntRange(min=0), default=None, help="Order v for array-poly.")
@_format_option
def cmd_seq(family: str, n_max: int, param: Optional[str], order_v: Optional[int], fmt: str) -> None:
    """Emit values 0..N of a family (triangle rows for two-index families)."""
    if param is not None and family not in _PARAMETRIC | {"array-poly"}:
        raise click.UsageError(f"--param does not apply to family {family}")
    if order_v is not None and family != "array-poly":
        raise click.UsageError(f"--v does not apply to family {family}")
    if family in _SINGLE_FAMILIES:
        pval: Optional[Fraction] = None
        if family in _PARAMETRIC:
            if param is None:
                raise click.UsageError(f"family {family} requires --param")
            pval = _parse_rational(param, "--param")
        values = [_SINGLE_FAMILIES[family](n, pval) for n in range(n_max + 1)]
        rows = [[str(n), str(v)] for n, v in enumerate(values)]
        obj = {
            "family": family,
            "param": None if pval is None else str(pval),
            "values": [{"n": n, "value": str(v)} for n, v in enumerate(values)],
        }
        click.echo(_render(fmt, ["n", "value"], rows, obj), nl=False)
        return

    if family in _TRIANGLE_FAMILIES:
        rows, entries = _triangle(family, n_max)
        click.echo(_render(fmt, ["n", "k", "value"], rows, {"family": family, "values": entries}), nl=False)
        return

    # array-poly: one polynomial per n at fixed order v and parameter lambda
    if order_v is None:
        raise click.UsageError("family array-poly requires --v")
    if param is None:
        raise click.UsageError("family array-poly requires --param")
    lam = _parse_rational(param, "--param")
    polys = [sequences.array_poly(n, order_v, lam) for n in range(n_max + 1)]
    rows = [[str(n), json.dumps(p.to_coeff_strings())] for n, p in enumerate(polys)]
    obj = {
        "family": family,
        "param": str(lam),
        "v": order_v,
        "values": [{"n": n, "coeffs": p.to_coeff_strings()} for n, p in enumerate(polys)],
    }
    click.echo(_render(fmt, ["n", "coeffs"], rows, obj), nl=False)


# ---------------------------------------------------------------------------
# integral

_MEASURES = {"b": "bosonic", "f": "fermionic", "q": "q"}


def _build_measure(measure: str, q: Optional[str]) -> Measure:
    return Measure(_MEASURES[measure], None if q is None else _parse_rational(q, "--q"))


@cli.command("integral")
@click.argument("measure", type=click.Choice(sorted(_MEASURES)))
@click.option("--poly", required=True, help="Comma-separated rational coefficients, constant first.")
@click.option("--exact", "mode_exact", is_flag=True, help="Evaluate the symbolic integral.")
@click.option("--level", "mode_level", is_flag=True, help="Evaluate the level-N Riemann sum.")
@click.option("--p", "prime", type=int, default=None, help="Prime for level evaluation.")
@click.option("--N", "-N", "level_n", type=int, default=None, help="Level N.")
@click.option("--q", default=None, help="Rational q for the q measure.")
@_format_option
def cmd_integral(
    measure: str,
    poly: str,
    mode_exact: bool,
    mode_level: bool,
    prime: Optional[int],
    level_n: Optional[int],
    q: Optional[str],
    fmt: str,
) -> None:
    """Integrate a polynomial exactly or by a level-N sum."""
    if mode_exact == mode_level:
        raise click.UsageError("choose exactly one of --exact or --level")
    unused = [option for option, value in (("--p", prime), ("--N", level_n)) if value is not None]
    if mode_exact and unused:
        raise click.UsageError(f"{unused[0]} only applies to --level")
    f = _parse_poly(poly)
    m = _build_measure(measure, q)

    if mode_exact:
        value = exact_integral(f, m)
        if value is None:
            raise click.UsageError("the q measure has no symbolic value here; use --level")
        obj = {"measure": m.kind, "mode": "exact", "value": str(value)}
        click.echo(_render(fmt, ["value"], [[str(value)]], obj), nl=False)
        return

    if prime is None or level_n is None:
        raise click.UsageError("--level requires --p and --N")
    value = level_integral(f, m, prime, level_n)
    reference = exact_integral(f, m)
    err = None if reference is None else _err_text(valuation(value - reference, prime))
    rows = [[str(value), "" if err is None else err]]
    obj = {
        "measure": m.kind,
        "mode": "level",
        "p": prime,
        "N": level_n,
        "value": str(value),
        "err_valuation": err,
    }
    click.echo(_render(fmt, ["value", "err_valuation"], rows, obj), nl=False)


# ---------------------------------------------------------------------------
# converge

@cli.command("converge")
@click.option("--poly", required=True, help="Comma-separated rational coefficients, constant first.")
@click.option("--measure", type=click.Choice(sorted(_MEASURES)), default="b", show_default=True)
@click.option("--p", "prime", type=int, required=True)
@click.option("--N-max", "n_max", type=int, required=True)
@click.option("--q", default=None)
@_format_option
def cmd_converge(poly: str, measure: str, prime: int, n_max: int, q: Optional[str], fmt: str) -> None:
    """Tabulate level values N = 1..N_MAX with p-adic error valuations."""
    f = _parse_poly(poly)
    m = _build_measure(measure, q)
    report = convergence_report(f, m, prime, n_max)
    rows = [[str(row.N), str(row.value), _err_text(row.err_valuation)] for row in report.rows]
    click.echo(_render(fmt, ["N", "value", "err_valuation"], rows, report.to_json_obj()), nl=False)


# ---------------------------------------------------------------------------
# verify

@cli.command("verify")
@click.option("--ids", default=None, help="Comma-separated record ids or group prefixes.")
@click.option("--n-max", type=int, default=None, help="Override the n-like grid caps.")
# Accepted for compatibility and ignored: records run serially in catalog order.
@click.option("--jobs", type=click.IntRange(min=1), default=1, hidden=True)
@_format_option
def cmd_verify(ids: Optional[str], n_max: Optional[int], jobs: int, fmt: str) -> None:
    """Run the identity suite; exit 1 on any unadjudicated mismatch."""
    from . import identities  # the largest module, and no other command uses it
    wanted = None if ids is None else [s.strip() for s in ids.split(",")]
    if wanted is not None and not all(wanted):
        raise click.UsageError(f"empty record id in --ids {ids!r}")
    report = identities.verify_all(n_max=n_max, ids=wanted)
    rows = [
        [r.id, r.status, str(r.points), str(r.mismatch_count), "ok" if r.ok else "fail"]
        for r in report.results
    ]
    header = ["id", "status", "points", "mismatches", "result"]
    click.echo(_render(fmt, header, rows, report.to_json_obj(), report.to_text_table()), nl=False)
    if not report.ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# table-dump

@cli.command("table-dump")
@click.argument("family", type=click.Choice(sorted(_TRIANGLE_FAMILIES)))
@click.option("--n-max", type=click.IntRange(min=0), required=True)
@_format_option
def cmd_table_dump(family: str, n_max: int, fmt: str) -> None:
    """Dump a triangular table as rows n,k,value."""
    rows, entries = _triangle(family, n_max)
    click.echo(_render(fmt, ["n", "k", "value"], rows, {"family": family, "rows": entries}), nl=False)


def main() -> None:
    cli(prog_name="volkenborn")


if __name__ == "__main__":
    main()
