"""Lint: every name a priormap module imports is used in that module,
scene_io opens files in one line reader and one line writer only, and
model alone calls the stacked resample.

The one exemption from the first rule is an import line marked
`# unused here; bench/tracing.py`: the benchmark's tracing counts calls
through that name on that module, so each such name must be one that
bench/tracing.py patches on that module.
"""
from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import priormap

SRC = Path(priormap.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
MARK = "# unused here; bench/tracing.py"

#: Prints the (module, name) pairs that bench/tracing.py's install patches.
_PATCHED_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing
saved = tracing.install(tracing.Tracer())
print(json.dumps(sorted({(module.__name__, name) for module, name, _ in saved})))
"""


@pytest.fixture(scope="module")
def patched() -> set[tuple[str, str]]:
    # In a child process: importing the benchmark pins environment variables.
    done = subprocess.run([sys.executable, "-c", _PATCHED_PROBE, str(BENCH), str(SRC.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    return {tuple(pair) for pair in json.loads(done.stdout)}


def _imports(tree: ast.Module):
    """(bound name, line number) of every name an import binds, but those
    of `from __future__ import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path, patched):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "priormap" if path.stem == "__init__" else f"priormap.{path.stem}"
    dead, pins = [], []
    for name, line in _imports(tree):
        if MARK in lines[line - 1]:
            pins.append(name)
            assert name not in used, f"{path.name}:{line}: {name} is used; drop the mark"
        elif name not in used:
            dead.append(f"{path.name}:{line}: {name}")
    assert dead == []
    assert [name for name in pins if (module, name) not in patched] == []


def test_scene_io_opens_files_in_one_reader_and_one_writer():
    # Every line file is read through _numbered_lines and written through
    # _write_records, so all formats share one decoding and one encoding.
    tree = ast.parse((SRC / "scene_io.py").read_text(encoding="utf-8"))
    enclosing = {node: func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
    opened_in = [enclosing.get(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    assert sorted(opened_in) == ["_numbered_lines", "_write_records"]


def test_model_alone_calls_the_stacked_resample():
    # Every other layer resamples through model's views on the one pass
    # (resampled_pieces, resampled_features, MapFeature.resampled), so a
    # point count is reached by one resample of each piece.
    callers = {path.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and getattr(
                   node.func, "id", getattr(node.func, "attr", None)) == "resample_polylines"}
    assert callers == {"model.py"}
