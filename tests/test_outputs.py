"""Byte identity of the bundled outputs.

``output_digests.json`` holds one SHA-256 per file that ``solve --emit-lp``
and ``verify`` write for each bundled scenario and ``sweep`` writes for each
bundled plan, each command's stdout and exit code, and the numpy, scipy and
HiGHS versions the digests were taken with.  A change that moves an output
byte on purpose updates that file and explains each moved file in
CHANGES.md.  The benchmark's generated inputs are not part of the set.
"""

import hashlib
import json
import os

import numpy
import scipy

from powermarket.solve import load_highs

from conftest import BUNDLED_SCENARIOS, scenario_path
from test_cli import exit_code

DIGESTS = os.path.join(os.path.dirname(__file__), "output_digests.json")
BUNDLED_PLANS = ("support_sweep.json", "co2_sweep_flex.json")


def library_versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "highs": load_highs()._Highs().version()}


def bundled_outputs(out, capsys) -> dict:
    """Run every command of the set with its outputs below ``out``: the
    stdout and exit code of each command, and the SHA-256 of each file by
    its path below ``out``."""
    commands = {}
    runs = [("solve", name, ["--emit-lp"]) for name in BUNDLED_SCENARIOS] \
        + [("verify", name, []) for name in BUNDLED_SCENARIOS] \
        + [("sweep", name, []) for name in BUNDLED_PLANS]
    capsys.readouterr()
    for command, name, extra in runs:
        code = exit_code([command, scenario_path(name), *extra,
                          "--out-dir", str(out / command)])
        commands[f"{command} {name}"] = {"exit": code, "stdout": capsys.readouterr().out}
    files = {}
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return {"commands": commands, "files": dict(sorted(files.items()))}


def test_bundled_outputs_keep_their_digests(tmp_path, capsys):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    produced = bundled_outputs(tmp_path, capsys)
    moved = [f"{name}: {produced['files'].get(name, 'not written')}"
             for name in sorted(set(recorded["files"]) | set(produced["files"]))
             if recorded["files"].get(name) != produced["files"].get(name)]
    moved += [f"{command}: {run}" for command, run in produced["commands"].items()
              if recorded["commands"].get(command) != run]
    libraries = [f"{name} {recorded['versions'][name]} -> {version}"
                 for name, version in library_versions().items()
                 if recorded["versions"][name] != version]
    assert not moved and not libraries, (
        "moved outputs:\n  " + "\n  ".join(moved)
        + ("\nlibrary versions differ from those recorded: " + ", ".join(libraries)
           if libraries else ""))
