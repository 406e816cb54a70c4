"""Command-line front end, on the standard library's ``argparse``.

All numeric output is exact rational text; csv/json renderings are
byte-for-byte deterministic.  Exit codes: 0 success, 1 identity-suite
failure, 2 usage error.  ``cli.main`` runs the named command's callback and
is the one place where a library ``ValueError`` or ``KeyError`` (a bad
request, or an exact result too long for ``str``) becomes a usage error:
one ``Error: ...`` line on stderr, as for argparse's own.  Each command
imports only what it runs (``seq`` loads neither ``integrals`` nor ``padic``,
and ``json`` only for json output) and renders its rows through ``_render``.
"""
from __future__ import annotations

import argparse
import io
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Union

from . import sequences
from .polynomials import Polynomial

FORMAT_ENVVAR = "VOLKENBORN_FORMAT"
FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """A parser that takes only whole option names, offers ``--help`` and exits 2 on a usage error."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


def _opt(*flags: str, **kwargs) -> tuple:
    return flags, kwargs  # the arguments of one add_argument call


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse names a bad value by it: "invalid integer value: 'x'"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    return integer


# with no --format, the format is VOLKENBORN_FORMAT or table, read when a command runs
_FORMAT = _opt("--format", dest="fmt", choices=FORMATS, help=f"Output format (env: {FORMAT_ENVVAR}; default: table).")


class _CommandTable:
    """The CLI: ``command(name, *specs)`` registers a function, whose arguments are ``_opt`` specs;
    ``main(args, prog_name)`` parses a command line and runs ``commands[name].callback``."""

    def __init__(self, name: str, doc: str) -> None:
        self.name, self.doc = name, doc
        self.commands: dict[str, SimpleNamespace] = {}

    def command(self, name: str, *specs: tuple):
        def register(callback):
            self.commands[name] = SimpleNamespace(name=name, callback=callback, specs=specs, help=callback.__doc__)
            return callback

        return register

    def main(self, args=None, prog_name: Optional[str] = None):
        parser = _Parser(prog=prog_name or self.name, description=self.doc)
        subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", title="commands")
        args = sys.argv[1:] if args is None else list(args)
        value_options = set()
        for command in self.commands.values():
            sub = subparsers.add_parser(command.name, help=command.help, description=command.help)
            for flags, kwargs in command.specs:
                if args[:1] == [command.name]:  # only the named command parses its arguments
                    sub.add_argument(*flags, **kwargs)
                if flags[0].startswith("-") and kwargs.get("action") != "store_true":
                    value_options.update(flags)
        argv, words = [], iter(args)
        for word in words:
            # an option that takes a value takes the next word, even one like -1/2
            value = next(words, None) if word in value_options else None
            argv.append(word if value is None else f"{word}={value}")
        params = vars(parser.parse_args(argv))
        name = params.pop("command")
        if name is None:
            parser.print_help(sys.stderr)
            raise SystemExit(2)
        sub = subparsers.choices[name]
        params["fmt"] = params["fmt"] or os.environ.get(FORMAT_ENVVAR) or "table"
        if params["fmt"] not in FORMATS:
            sub.error(f"{FORMAT_ENVVAR}: invalid choice: {params['fmt']!r} (choose from {', '.join(FORMATS)})")
        try:
            code = self.commands[name].callback(**params)
        except (KeyError, ValueError) as exc:
            text = str(exc.args[0]) if exc.args else type(exc).__name__
            if "integer string conversion" in text:
                # CPython's own advice names a call a shell user cannot make
                text = (f"the exact result has more than {sys.get_int_max_str_digits()} digits; "
                        "set the environment variable PYTHONINTMAXSTRDIGITS higher to print it")
            sub.error(text)
        raise SystemExit(code or 0)


cli = _CommandTable("volkenborn", "Exact special-number sequences, p-adic integrals, and identity checks.")


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        if "e" in text.lower():  # Fraction reads 1e1000000 as a million-digit int, slowly
            raise ValueError
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be an exact rational like 3, -1/2: got {text!r}") from None


def _parse_poly(text: str) -> Polynomial:
    parts = text.split(",")
    if not any(p.strip() for p in parts):
        raise ValueError("polynomial needs at least one coefficient")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty polynomial coefficient in {text!r}")
    return Polynomial(_parse_rational(p, "coefficient") for p in parts)


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_csv(header: list[str], rows: list[list[str]]) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _dump_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        out.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return "\n".join(out) + "\n"


def _render(fmt: str, header: list[str], rows: list[list[str]], json_obj, table: Optional[str] = None) -> str:
    """A command's whole output; ``table``, if given, replaces the generic table."""
    if fmt == "json":
        return _dump_json(json_obj)
    if fmt == "csv":
        return _dump_csv(header, rows)
    return _dump_table(header, rows) if table is None else table


def _err_text(v: Union[int, float, None]) -> str:
    """Text form of an error valuation: empty without a reference, "inf" for an exact value."""
    return "" if v is None else "inf" if v == math.inf else str(v)


_SINGLE_FAMILIES = {
    "bernoulli": sequences.bernoulli, "euler": sequences.euler, "fubini": sequences.fubini,
    "daehee": sequences.daehee, "daehee2": sequences.daehee_hat, "cauchy": sequences.cauchy,
    "changhee": sequences.changhee, "changhee2": sequences.changhee_hat, "harmonic": sequences.harmonic,
}

# families of (n, lambda or u)
_PARAMETRIC_FAMILIES = {"apostol-bernoulli": sequences.apostol_bernoulli, "apostol-euler": sequences.apostol_euler,
                        "frobenius-euler": sequences.frobenius_euler}

_TRIANGLE_FAMILIES = {
    "stirling1": sequences.stirling1, "stirling2": sequences.stirling2, "lah": sequences.lah,
    "eulerian": sequences.eulerian, "assoc-stirling1": sequences.assoc_stirling1,
    "assoc-stirling2": sequences.assoc_stirling2,
}

ALL_FAMILIES = sorted([*_SINGLE_FAMILIES, *_PARAMETRIC_FAMILIES]) + sorted(_TRIANGLE_FAMILIES) + ["array-poly"]


def _triangle(family: str, n_max: int) -> tuple[list[list[str]], list[dict]]:
    """Rows [n, k, value] of a two-index family for n <= n_max, and the same rows as json entries."""
    fn = _TRIANGLE_FAMILIES[family]
    rows = [[str(n), str(k), str(fn(n, k))] for n in range(n_max + 1) for k in range(n + 1)]
    return rows, [{"n": int(r[0]), "k": int(r[1]), "value": r[2]} for r in rows]


@cli.command(
    "seq",
    _opt("family", choices=ALL_FAMILIES, metavar="FAMILY", help=f"One of: {', '.join(ALL_FAMILIES)}."),
    _opt("--n", dest="n_max", type=_int_at_least(0), required=True, metavar="N", help="Largest index to emit."),
    _opt("--param", metavar="RATIONAL", help="Rational parameter (lambda or u) where required."),
    _opt("--v", dest="order_v", type=_int_at_least(0), metavar="V", help="Order v for array-poly."),
    _FORMAT,
)
def cmd_seq(family: str, n_max: int, param: Optional[str], order_v: Optional[int], fmt: str) -> None:
    """Emit values 0..N of a family (triangle rows for two-index families)."""
    takes_param = family in _PARAMETRIC_FAMILIES or family == "array-poly"
    for option, value, takes in (("--param", param, takes_param), ("--v", order_v, family == "array-poly")):
        if value is not None and not takes:
            raise ValueError(f"{option} does not apply to family {family}")
        if value is None and takes:
            raise ValueError(f"family {family} requires {option}")
    pval = None if param is None else _parse_rational(param, "--param")
    if family in _TRIANGLE_FAMILIES:
        rows, entries = _triangle(family, n_max)
        sys.stdout.write(_render(fmt, ["n", "k", "value"], rows, {"family": family, "values": entries}))
    elif family == "array-poly":  # one polynomial per n at fixed order v and parameter lambda
        import json

        polys = [sequences.array_poly(n, order_v, pval) for n in range(n_max + 1)]
        rows = [[str(n), json.dumps(p.to_coeff_strings())] for n, p in enumerate(polys)]
        entries = [{"n": n, "coeffs": p.to_coeff_strings()} for n, p in enumerate(polys)]
        obj = {"family": family, "param": str(pval), "v": order_v, "values": entries}
        sys.stdout.write(_render(fmt, ["n", "coeffs"], rows, obj))
    else:
        if pval is None:
            values = [_SINGLE_FAMILIES[family](n) for n in range(n_max + 1)]
        else:
            values = [_PARAMETRIC_FAMILIES[family](n, pval) for n in range(n_max + 1)]
        rows = [[str(n), str(v)] for n, v in enumerate(values)]
        entries = [{"n": n, "value": str(v)} for n, v in enumerate(values)]
        obj = {"family": family, "param": None if pval is None else str(pval), "values": entries}
        sys.stdout.write(_render(fmt, ["n", "value"], rows, obj))


_MEASURES = {"b": "bosonic", "f": "fermionic", "q": "q"}
_POLY = _opt("--poly", required=True, metavar="COEFFS", help="Comma-separated rational coefficients, constant first.")


def _build_measure(measure: str, q: Optional[str]):
    from .integrals import Measure

    return Measure(_MEASURES[measure], None if q is None else _parse_rational(q, "--q"))


@cli.command(
    "integral",
    _opt("measure", choices=sorted(_MEASURES)),
    _POLY,
    _opt("--exact", dest="mode_exact", action="store_true", help="Evaluate the symbolic integral."),
    _opt("--level", dest="mode_level", action="store_true", help="Evaluate the level-N Riemann sum."),
    _opt("--p", dest="prime", type=int, metavar="P", help="Prime for level evaluation."),
    _opt("--N", "-N", dest="level_n", type=int, metavar="N", help="Level N."),
    _opt("--q", metavar="RATIONAL", help="Rational q for the q measure."),
    _FORMAT,
)
def cmd_integral(measure: str, poly: str, mode_exact: bool, mode_level: bool, prime: Optional[int],
                 level_n: Optional[int], q: Optional[str], fmt: str) -> None:
    """Integrate a polynomial exactly or by a level-N sum."""
    from .integrals import exact_integral, level_integral
    from .padic import valuation

    if mode_exact == mode_level:
        raise ValueError("choose exactly one of --exact or --level")
    unused = [option for option, value in (("--p", prime), ("--N", level_n)) if value is not None]
    if mode_exact and unused:
        raise ValueError(f"{unused[0]} only applies to --level")
    f = _parse_poly(poly)
    m = _build_measure(measure, q)
    if mode_exact:
        value = exact_integral(f, m)
        if value is None:
            raise ValueError("the q measure has no symbolic value here; use --level")
        obj = {"measure": m.kind, "mode": "exact", "value": str(value)}
        sys.stdout.write(_render(fmt, ["value"], [[str(value)]], obj))
        return
    if prime is None or level_n is None:
        raise ValueError("--level requires --p and --N")
    value = level_integral(f, m, prime, level_n)
    reference = exact_integral(f, m)
    err = None if reference is None else _err_text(valuation(value - reference, prime))
    rows = [[str(value), "" if err is None else err]]
    obj = {"measure": m.kind, "mode": "level", "p": prime, "N": level_n, "value": str(value), "err_valuation": err}
    sys.stdout.write(_render(fmt, ["value", "err_valuation"], rows, obj))


@cli.command(
    "converge",
    _POLY,
    _opt("--measure", choices=sorted(_MEASURES), default="b", help="Measure (default: b)."),
    _opt("--p", dest="prime", type=int, required=True, metavar="P"),
    _opt("--N-max", dest="n_max", type=int, required=True, metavar="N_MAX"),
    _opt("--q", metavar="RATIONAL"),
    _FORMAT,
)
def cmd_converge(poly: str, measure: str, prime: int, n_max: int, q: Optional[str], fmt: str) -> None:
    """Tabulate level values N = 1..N_MAX with p-adic error valuations."""
    from .integrals import convergence_report

    f = _parse_poly(poly)
    m = _build_measure(measure, q)
    report = convergence_report(f, m, prime, n_max)
    rows = [[str(row.N), str(row.value), _err_text(row.err_valuation)] for row in report.rows]
    sys.stdout.write(_render(fmt, ["N", "value", "err_valuation"], rows, report.to_json_obj()))


@cli.command(
    "verify",
    _opt("--ids", help="Comma-separated record ids or group prefixes."),
    _opt("--n-max", type=int, help="Override the n-like grid caps."),
    # accepted for compatibility and ignored: records run serially in catalog order
    _opt("--jobs", type=_int_at_least(1), default=1, help=argparse.SUPPRESS),
    _FORMAT,
)
def cmd_verify(ids: Optional[str], n_max: Optional[int], jobs: int, fmt: str) -> int:
    """Run the identity suite; exit 1 on any unadjudicated mismatch."""
    from . import identities  # the largest module, and no other command uses it

    wanted = None if ids is None else [s.strip() for s in ids.split(",")]
    if wanted is not None and not all(wanted):
        raise ValueError(f"empty record id in --ids {ids!r}")
    report = identities.verify_all(n_max=n_max, ids=wanted)
    rows = [[r.id, r.status, str(r.points), str(r.mismatch_count), "ok" if r.ok else "fail"] for r in report.results]
    header = ["id", "status", "points", "mismatches", "result"]
    sys.stdout.write(_render(fmt, header, rows, report.to_json_obj(), report.to_text_table()))
    return 0 if report.ok else 1


@cli.command(
    "table-dump",
    _opt("family", choices=sorted(_TRIANGLE_FAMILIES)),
    _opt("--n-max", type=_int_at_least(0), required=True),
    _FORMAT,
)
def cmd_table_dump(family: str, n_max: int, fmt: str) -> None:
    """Dump a triangular table as rows n,k,value."""
    rows, entries = _triangle(family, n_max)
    sys.stdout.write(_render(fmt, ["n", "k", "value"], rows, {"family": family, "rows": entries}))


def main() -> None:
    cli.main()


if __name__ == "__main__":
    main()
