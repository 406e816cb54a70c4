"""Write bench/expected.json: the outputs the catalog and cli_mix checks compare against.

    python3 bench/freeze.py

Run from the root of a source checkout, at a commit whose outputs are
known to be right.  Each CLI command is run both as a process and through
click's test runner; the two must agree byte for byte.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {"catalog": {}, "cli_mix": {}}
    catalog = workloads.Catalog(expected)
    catalog.start_round()
    for record_id in catalog.records:
        expected["catalog"][record_id] = catalog.run(record_id)
    cli = workloads.CliMix(expected)
    for command in workloads.CLI_COMMANDS:
        out = cli.run(command)
        if out != cli.run_in_process(command) or not out.startswith("0:"):
            print(f"error: {command!r} differs between process and test runner, or failed", file=sys.stderr)
            return 1
        expected["cli_mix"][command] = out
    sections = []
    for section, table in sorted(expected.items()):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items()))
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    workloads.EXPECTED_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
