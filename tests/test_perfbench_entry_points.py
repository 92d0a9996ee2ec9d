"""The benchmark tracer finds every library entry point it instruments.

``perfbench/spans.py`` wraps entry points by name and skips, with a note in
``Tracer.missing``, any name the library no longer has, so a renamed entry
point would silently zero its metrics.  This catches that in the fast suite.
"""

from pathlib import Path

from parisi_lab import gaussian, saddle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_instruments_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    original = gaussian.minimize_parisi_1d
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert tracer.missing == []
        assert saddle.minimize_parisi_1d is not original
    finally:
        uninstall()
    assert gaussian.minimize_parisi_1d is original and saddle.minimize_parisi_1d is original
