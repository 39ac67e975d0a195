"""The library surface the benchmark in ``perfbench/`` relies on.

The benchmark wraps, imports and reads drhier names from outside the
package; a rename there would otherwise break only traced benchmark runs.
Its CLI goldens are its correctness gate, so they are checked here too:
a changed output then fails the test suite before anyone benchmarks.  So
are the harness's own self-tests.
"""

import json
import subprocess
from fractions import Fraction
import sys
from pathlib import Path

import pytest

from drhier import cli, quantize
from drhier.diffpoly import DiffPoly, Ring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_GOLDEN = PERFBENCH / "golden"
BENCH_CASES = json.loads((BENCH_GOLDEN / "index.json").read_text())


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


def test_tracer_counts_the_terms_of_a_product(monkeypatch):
    # the per-layer count reads len(result.terms): a renamed attribute would
    # make it read 0 without any error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    ring = Ring(2)
    u1, u2 = DiffPoly.jet(ring, 1, 0), DiffPoly.jet(ring, 2, 1)
    tracer = spans.Tracer()
    try:
        tracer.install()
        product = (u1 + u2) * (u1 - u2 + Fraction(1, 3))
    finally:
        tracer.restore()
    assert len(list(product.items())) == 4  # u1^2 - u2_1^2 + u1/3 + u2_1/3
    assert tracer.counters["diffpoly.mul.terms_out"] == 4


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_benchmark_golden(name, capsysbinary):
    case = BENCH_CASES[name]
    code = cli.main(list(case["argv"]))
    assert code == case["exit"]
    assert capsysbinary.readouterr().out == (BENCH_GOLDEN / f"{name}.stdout").read_bytes()


def test_perfbench_selftest_passes():
    # the harness's own self-tests start job processes, so they run apart
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-4000:]
