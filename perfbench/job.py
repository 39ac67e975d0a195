"""Run one benchmark job in a fresh interpreter and report on stderr.

Usage: job.py SPEC_JSON TRACE

SPEC_JSON is {"cli": [argv...]} for a CLI invocation, {"api": name,
"seed": n, "kwargs": {...}} for an API job from jobs.py, or {} to only time
the import.  TRACE is 0 or 1.  A CLI job's stdout is the CLI's own stdout
and its exit code is the CLI's.  The last stderr line is
``REPORT_PREFIX`` followed by a JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import drhier.cli  # noqa: E402

T_IMPORTED = time.monotonic()

REPORT_PREFIX = "PERFBENCH-REPORT "


def run(spec: dict, traced: bool) -> tuple[int, dict]:
    report: dict = {"imported_at": T_IMPORTED}
    if not spec:
        return 0, report
    import jobs
    from drhier import quantize

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        if "cli" in spec:
            try:
                code = drhier.cli.main(spec["cli"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
        else:
            checked, failed = jobs.JOBS[spec["api"]](spec["seed"], **spec.get("kwargs", {}))
            report.update(checked=checked, identity_failures=failed)
            code = 0 if failed == 0 else 1
    finally:
        body_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(body_s=body_s, maxrss_kb=usage.ru_maxrss,
                  reorder_memo_entries=len(quantize._REORDER_MEMO))
    if tracer is not None:
        report["trace"] = tracer.reduce(body_s)
    return code, report


def main() -> int:
    spec = json.loads(sys.argv[1])
    code, report = run(spec, sys.argv[2] == "1")
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
