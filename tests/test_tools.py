"""The corpus generator, the demos and the benchmark's span table run
against the current API."""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import orbinov
from orbinov import cli
from orbinov.complexes import build_complex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(orbinov.__file__))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def load_script(*parts):
    path = os.path.join(ROOT, *parts)
    name = os.path.splitext(parts[-1])[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_corpus_rebuilds_the_bundled_documents():
    make_corpus = load_script("tools", "make_corpus.py")
    corpus = os.path.join(SRC, "orbinov", "corpus")
    names = []
    for make in make_corpus.MAKERS:
        doc = make()
        with open(os.path.join(corpus, doc.name + ".json"),
                  encoding="utf-8") as handle:
            assert doc.serialize() == handle.read(), doc.name
        names.append(doc.name + ".json")
    assert sorted(names) == sorted(os.listdir(corpus))


def test_solve_cocycle_refuses_unrealizable_targets(monkeypatch):
    make_corpus = load_script("tools", "make_corpus.py")
    X = build_complex([("a", "b"), ("b", "c"), ("a", "c")])
    assert make_corpus.solve_cocycle(X, [3]) == {("a", "b"): Fraction(3)}
    # the one free generator listed twice cannot have periods 1 and 0;
    # the refusal is a raise, so python -O keeps it
    h1 = make_corpus.H1Presentation(X)
    twice = SimpleNamespace(orders=h1.orders * 2,
                            generator_cycles=h1.generator_cycles * 2,
                            offtree=h1.offtree, tree_walk=h1.tree_walk)
    monkeypatch.setattr(make_corpus, "H1Presentation", lambda X: twice)
    with pytest.raises(AssertionError, match="not realizable"):
        make_corpus.solve_cocycle(X, [1, 0])


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_targets_resolve(monkeypatch):
    # the benchmark rebinds these names from outside the package, so a
    # name deleted or renamed under src/ would otherwise fail only there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = load_script("perfbench", "spans.py")
    missing = []
    for _, module, attribute in spans.SPANS + spans.COUNTERS:
        owner = importlib.import_module(module)
        cls_name, _, attr = attribute.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            found = attr in getattr(owner, "__dict__", {})
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((module, attribute))
    assert missing == []


# spans each workload must reach: a refactor that bypassed a wrapped
# function would otherwise quietly zero a per-layer metric
TRACED = {"twisted": ["lmatrix.fraction_field_rank",
                      "lmatrix.invariant_factors"],
          "integral": ["complexes.integer_homology"],
          "oracle": ["nerve.identity_failures",
                     "twisted.cyclic_cover_oracle"]}


def test_benchmark_cycles_answer_correctly(monkeypatch, tmp_path):
    # a change under src/ or tools/ that made the benchmark crash or
    # answer wrongly would otherwise fail only when the benchmark runs;
    # each cycle runs under the benchmark's tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load_script("perfbench", "workloads.py")
    spans = load_script("perfbench", "spans.py")
    problems = []
    unreached = []
    for name in sorted(workloads.WORKLOADS):
        cycle = workloads.build(name, 0, str(tmp_path / name))
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            for analysis in cycle:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(analysis.argv))
                for problem in workloads.check(analysis, code,
                                               out.getvalue()):
                    problems.append((analysis.argv, problem))
        finally:
            restore()
        calls = tracer.calls()
        unreached += [(name, span) for span in TRACED[name]
                      if not calls[span]]
    assert problems == []
    assert unreached == []
