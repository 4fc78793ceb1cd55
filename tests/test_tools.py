"""The corpus generator and the demos run against the current API."""

import importlib.util
import os
import subprocess
import sys

import pytest

import orbinov

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(orbinov.__file__))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def load_make_corpus():
    path = os.path.join(ROOT, "tools", "make_corpus.py")
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_corpus_rebuilds_the_bundled_documents():
    make_corpus = load_make_corpus()
    corpus = os.path.join(SRC, "orbinov", "corpus")
    names = []
    for make in make_corpus.MAKERS:
        doc = make()
        with open(os.path.join(corpus, doc.name + ".json"),
                  encoding="utf-8") as handle:
            assert doc.serialize() == handle.read(), doc.name
        names.append(doc.name + ".json")
    assert sorted(names) == sorted(os.listdir(corpus))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
