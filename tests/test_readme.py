"""The README's examples run: its Python blocks in one namespace, and each
JSON document through the loader the README names for it. Its module table
names only what exists."""

from __future__ import annotations

import functools
import importlib
import json
import re
from pathlib import Path

from eigenfid import DensityMatrix, QubitChannel, SweepConfig, serialize

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
_TABLE_ROW = re.compile(r"^\| `(eigenfid\.\w+)` *\|(.*)\|$", re.MULTILINE)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?")


def _blocks(language: str) -> list[str]:
    return [body for lang, body in _BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def test_python_blocks_run_in_one_namespace(capsys):
    blocks = _blocks("python")
    assert len(blocks) >= 2  # the second reads the first one's channel
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def test_json_documents_load():
    loaded = []
    for block in _blocks("json"):
        doc = json.loads(block)
        if "type" in doc:
            loaded.append(serialize.object_from_dict(doc))
        else:
            loaded.append(serialize.sweep_config_from_dict(doc, doc["mode"]))
    assert sorted(type(obj).__name__ for obj in loaded) == sorted(
        cls.__name__ for cls in (SweepConfig, DensityMatrix, QubitChannel))


def _resolves(owner, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.removesuffix("()").split("."), owner)
    except AttributeError:
        return False
    return True


def test_module_table_names_only_what_exists():
    # a name resolves as an attribute of the row's module or of a class in it;
    # the field names of the JSON documents are not attributes
    fields = (serialize._SWEEP_KEYS | serialize._DRIVE_KEYS | serialize._STATE_KEYS
              | serialize._CHANNEL_KEYS)
    rows = _TABLE_ROW.findall(README.read_text(encoding="utf-8"))
    assert len(rows) >= 8
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for name in re.findall(r"`([^`]*)`", contents):
            if (_IDENTIFIER.fullmatch(name) and name not in fields
                    and not any(_resolves(owner, name) for owner in owners)):
                missing.append(f"{module_name}: {name}")
    assert not missing
