"""The library surface the benchmark in ``perfbench/`` relies on.

The benchmark wraps, imports and reads drhier names from outside the
package; a rename there would otherwise break only traced benchmark runs.
"""

from pathlib import Path

from drhier import quantize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_and_jobs_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import jobs
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert jobs.JOBS and all(callable(job) for job in jobs.JOBS.values())
    assert isinstance(quantize._REORDER_MEMO, dict)
