"""Record the CLI's output on the bundled corpus as golden digests.

Runs a fixed sweep of commands in process through ``orbinov.cli.main``
and writes, for each command line, the SHA-256 of its stdout and its
exit code to tests/golden_outputs.json.  tests/test_golden.py reruns the
sweep and compares, so a change that alters any byte of output fails
there.  Regenerate only when an output change is intended.  Run from
the repository root:

    python3 tools/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from orbinov.cli import corpus_names, main, resolve_document

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests",
                      "golden_outputs.json")


def commands():
    """Every command line of the sweep, as argv lists."""
    sweep = []
    for name in corpus_names():
        for cname in resolve_document(name).cocycle_names():
            for sub in ("novikov", "check-inequalities", "periods",
                        "perturb"):
                sweep.append([sub, name, "--class", cname])
                sweep.append([sub, name, "--class", cname, "--json"])
    for name in corpus_names():
        sweep.append(["homology", name])
        sweep.append(["homology", name, "--transforms", "--json"])
        for p in ("2", "5", "7"):
            sweep.append(["validate", name, "--cyclic", p])
        sweep.append(["validate", name, "--depth", "2", "--seed", "7",
                      "--cyclic", "3", "--json"])
        sweep.append(["validate", name, "--depth", "0"])
    return sweep


def digest(argv):
    """SHA-256 of the stdout of one in-process run, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8"))
            .hexdigest(), "exit": code}


def sweep():
    """Golden record of every command, keyed by its space-joined argv."""
    return {" ".join(argv): digest(argv) for argv in commands()}


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(sweep(), handle, sort_keys=True, indent=1)
        handle.write("\n")
    print("wrote %s" % (os.path.normpath(GOLDEN),))
