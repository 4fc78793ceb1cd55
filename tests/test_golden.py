"""Stdout and exit codes of a fixed CLI sweep match recorded digests.

The digests in golden_outputs.json come from tools/make_golden.py; a
change that is meant to keep every byte of output must leave them all
matching, in process and under ``python -O`` alike.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAKE_GOLDEN = os.path.join(ROOT, "tools", "make_golden.py")


def load_make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", MAKE_GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches_golden(now):
    with open(os.path.join(ROOT, "tests", "golden_outputs.json"),
              encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(now) == sorted(golden)
    changed = [argv for argv in sorted(golden) if now[argv] != golden[argv]]
    assert changed == []


def test_cli_output_matches_golden_digests():
    assert_matches_golden(load_make_golden().sweep())


def test_cli_output_matches_golden_digests_under_optimized_mode():
    # python -O strips asserts, so a check that shapes output must not
    # be one; the sweep runs in a fresh -O -B interpreter, which only
    # prints the digests and never writes the golden file
    script = "\n".join([
        "import importlib.util, json, sys",
        "spec = importlib.util.spec_from_file_location('make_golden', %r)"
        % (MAKE_GOLDEN,),
        "module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(module)",
        "json.dump({'optimize': sys.flags.optimize,"
        " 'digests': module.sweep()}, sys.stdout)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-O", "-B", "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert len(out["digests"]) == 176
    assert_matches_golden(out["digests"])
