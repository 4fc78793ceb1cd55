"""Stdout and exit codes of a fixed CLI sweep match recorded digests.

The digests in golden_outputs.json come from tools/make_golden.py; a
change that is meant to keep every byte of output must leave them all
matching.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_make_golden():
    path = os.path.join(ROOT, "tools", "make_golden.py")
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_golden_digests():
    make_golden = load_make_golden()
    with open(make_golden.GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    now = make_golden.sweep()
    assert sorted(now) == sorted(golden)
    changed = [argv for argv in sorted(golden) if now[argv] != golden[argv]]
    assert changed == []
