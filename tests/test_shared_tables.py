"""Which memo tables both sides of each catalog record read.

A record checks something only where its two sides are computed apart.
Each side runs from cold tables over its default grid, with every
registered table's stored list replaced by one that notes each read; a
table grown during the side counts as a read of the tables its growth
reads.  The lists are wrapped, not ``_Memo.get``, because bound methods
taken at import (``sequences._stirling1_row``) would escape a patched
``get``.  The tables both sides read are pinned below, so a change that
makes two sides share a new table fails here and has to say why.
"""
import types

from volkenborn import identities, integrals, sequences as seq

BERNOULLI, EULER = "sequences._BERNOULLI", "sequences._EULER"
STIRLING1, STIRLING2 = "sequences._STIRLING1", "sequences._STIRLING2"

# record id -> the tables both its sides read; a record not named reads none on both sides.
# Most share only the moments the statement is about (the Euler table grows from the
# Bernoulli one); the rest share a Stirling triangle, which the tests check on their own.
SHARED = {
    **dict.fromkeys(["I04b", "I05a", "I05d", "I06b", "I20b", "I24a", "I28a", "I29a", "I35"], {BERNOULLI}),
    **dict.fromkeys(["I26h", "I27b", "I27d", "I27e", "I28b", "I29b"], {BERNOULLI, EULER}),
    **dict.fromkeys(
        ["I08b", "I11a", "I12b", "I14b", "I22", "I23b", "I23c", "I23f", "I32b"], {BERNOULLI, STIRLING1}
    ),
    **dict.fromkeys(["I14a", "I26e", "I32d", "I33a"], {STIRLING1}),
    "I26f": {BERNOULLI, EULER, STIRLING1},
    "I30": {STIRLING2},
}


class ReadLog(list):
    """A table's stored list that adds the table's name to ``log`` at every read."""

    def __init__(self, name: str, log: set):
        super().__init__()
        self.name, self.log = name, log

    def __getitem__(self, index):
        self.log.add(self.name)
        return super().__getitem__(index)

    def __len__(self):
        self.log.add(self.name)
        return super().__len__()


def table_names() -> dict[int, str]:
    """id of each registered table -> module.name, from module globals and, for a
    table held only by a function's closure, the global naming that function."""
    names = {}
    for module in (seq, integrals, identities):
        for name, value in vars(module).items():
            cells = (value.__closure__ or ()) if isinstance(value, types.FunctionType) else ()
            for held in (value, *(cell.cell_contents for cell in cells)):
                if isinstance(held, seq._Memo):
                    names.setdefault(id(held), f"{module.__name__.split('.')[-1]}.{name}")
    return names


def tables_read(side, points) -> set[str]:
    names, log = table_names(), set()
    seq.clear_caches()
    try:
        for table in seq._TABLES:
            table._values = ReadLog(names[id(table)], log)
        for params in points:
            side(*params)
    finally:
        seq.clear_caches()
    return log


def test_every_registered_table_has_a_name():
    names = table_names()
    assert all(id(table) in names for table in seq._TABLES)


def test_tables_both_sides_read_are_pinned():
    shared = {}
    for record in identities.catalog():
        points = record.grid(None)
        common = tables_read(record.lhs, points) & tables_read(record.rhs, points)
        if common:
            shared[record.id] = common
    assert shared == SHARED


def test_the_read_log_sees_reads_through_bound_methods():
    log = tables_read(lambda: seq._stirling1_row(3), [()])
    assert log == {STIRLING1}
