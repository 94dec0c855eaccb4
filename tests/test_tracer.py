import importlib
import importlib.util
from pathlib import Path

import altgen

REPO = Path(altgen.__file__).resolve().parents[2]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracer.py wraps altgen functions and methods by name; a
    # rename or move in the package must fail here, not only in traced runs
    tracer_mod = load_tracer()
    functions = {(m, a): getattr(importlib.import_module(f"altgen.{m}"), a)
                 for m, a in tracer_mod.SPAN_FUNCTIONS}
    methods = {(m, c, a): getattr(importlib.import_module(f"altgen.{m}"), c).__dict__[a]
               for m, c, a in tracer_mod.SPAN_METHODS + tracer_mod.COUNT_METHODS}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (m, a), original in functions.items():
            assert getattr(importlib.import_module(f"altgen.{m}"), a) is not original, (m, a)
        for (m, c, a), original in methods.items():
            owner = getattr(importlib.import_module(f"altgen.{m}"), c)
            assert owner.__dict__[a] is not original, (m, c, a)
    finally:
        tracer.uninstall()
    for (m, a), original in functions.items():
        assert getattr(importlib.import_module(f"altgen.{m}"), a) is original
    for (m, c, a), original in methods.items():
        assert getattr(importlib.import_module(f"altgen.{m}"), c).__dict__[a] is original


def test_every_matvec_span_is_a_child_of_the_spectral_gap(monkeypatch):
    # the tracer's span stack is one list for the process: a traced call on
    # a row-block thread would add a span or hang it from the wrong parent
    from altgen import graphs, spectral
    from altgen.embeddings import build_SN

    monkeypatch.setattr(graphs, "_cpu_count", lambda: 2)
    graph = graphs.AxisBlockGraph(build_SN(1, 5))
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        report = spectral.spectral_gap(graph, method="lanczos", seed=1)
    finally:
        tracer.uninstall()
    assert tracer.names.count("spectral.spectral_gap") == 1
    top = tracer.names.index("spectral.spectral_gap")
    matvecs = [i for i, name in enumerate(tracer.names) if name == "graphs.matvec"]
    assert len(matvecs) == report.iterations
    assert all(tracer.parents[i] == top for i in matvecs)
    assert tracer.stack == [] and None not in tracer.ends
