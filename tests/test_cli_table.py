"""The CLI's command table: the argparse interface it builds, what each
command imports, and the README's subcommand map.

tests/data/cli_options.json records, for every leaf command, each option's
strings, dest, default, required flag, choices, type and action class, but
no help text.  It was written by the hand-wired parser that the table
replaced, with `PYTHONPATH=src python tests/test_cli_table.py`; rewrite it
only for a change that means to alter the interface.
"""

import argparse
import json
import os
import re
import subprocess
import sys

from srlab import amalgam as am
from srlab.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPTIONS = os.path.join(ROOT, "tests", "data", "cli_options.json")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def leaves(parser: argparse.ArgumentParser):
    """(group, leaf, leaf parser) for every leaf command, in parser order."""
    for group, group_parser in _subcommands(parser).items():
        for leaf, leaf_parser in _subcommands(group_parser).items():
            yield group, leaf, leaf_parser


def interface(parser: argparse.ArgumentParser) -> dict:
    return {
        f"{group} {leaf}": [
            {
                "options": a.option_strings,
                "dest": a.dest,
                "default": a.default,
                "required": a.required,
                "choices": None if a.choices is None else list(a.choices),
                "type": None if a.type is None else a.type.__name__,
                "action": type(a).__name__,
            }
            for a in leaf_parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for group, leaf, leaf_parser in leaves(parser)
    }


def _option(group: str, leaf: str, dest: str) -> argparse.Action:
    parser = _subcommands(_subcommands(build_parser())[group])[leaf]
    return next(a for a in parser._actions if a.dest == dest)


def test_table_builds_the_recorded_interface():
    with open(OPTIONS, encoding="utf-8") as fh:
        assert interface(build_parser()) == json.load(fh)


def test_literal_choices_match_the_amalgam_constants():
    kinds = (am.KIND_A_LARGE, am.KIND_B_LARGE, am.KIND_H_LARGE)
    assert tuple(_option("amalgam", "free-gens", "kind").choices) == kinds
    variants = (am.VARIANT_DIRECT, am.VARIANT_MIRRORED)
    assert tuple(_option("amalgam", "witness", "variant").choices) == variants


def test_readme_subcommand_map_names_the_table():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("Subcommand map:", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for group, names in re.findall(r"^- `(\S+) ([\w|-]+)", section, re.MULTILINE):
        listed[group] = names.split("|")
    table = {}
    for group, leaf, _ in leaves(build_parser()):
        table.setdefault(group, []).append(leaf)
    assert listed == table


FOOTPRINT = """
import contextlib, io, json, sys
from srlab.cli import main
HEAVY = ("srlab.experiments", "srlab.amalgam", "srlab.hnn", "srlab.ring_lab")
loaded = []
for argv in (["words", "reduce", "a"], ["graph", "stats", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    loaded.append([m for m in HEAVY if m in sys.modules])
print(json.dumps(loaded))
"""


def test_commands_import_only_the_library_they_call(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": [1, 2], "e_edges": [[1, 2]], "f_edges": []}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(graph)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


if __name__ == "__main__":
    # one line per option, so that a diff of the file names the option
    entries = (
        f"{json.dumps(leaf)}: [\n" + ",\n".join(json.dumps(a) for a in actions) + "\n]"
        for leaf, actions in interface(build_parser()).items()
    )
    with open(OPTIONS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
