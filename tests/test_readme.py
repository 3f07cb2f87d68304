"""The README's examples run: its Python blocks in one namespace, and each
JSON document through the loader the README names for it."""

from __future__ import annotations

import json
import re
from pathlib import Path

from eigenfid import DensityMatrix, QubitChannel, SweepConfig, serialize

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


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
