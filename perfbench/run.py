"""drhier benchmark: fixed workloads of exact computations, each job in a
fresh interpreter, every job checked against its golden output or its own
exact identities.

    python3 perfbench/run.py --workload verify_main [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-golden

Load model: a closed loop with one client.  The jobs of a workload run one
after another, each in its own process as a CLI invocation would, so no
drhier cache carries over from one job to the next.  An untraced run
repeats the workload while another pass fits in ``--seconds`` (at least one
pass) and reports the end-to-end metrics named in BENCHMARK.json.  A traced
run (``--trace 1``) runs each job once untraced and once under the
outside-in tracer of spans.py and reports the per-layer metrics.  The last
stdout line is the result object; the line before it records the seed, the
machine and the source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "drhier"
GOLDEN = HERE / "golden"
JOB = HERE / "job.py"
REPORT_PREFIX = "PERFBENCH-REPORT "  # the marker job.py puts before its report
DEFAULT_SEED = 1
SETUP_PROBES_PER_JOB = 2
JOB_TIMEOUT_S = 150
# Fixed string hashing, so per-layer counts repeat; cached bytecode, as an
# installed package imports it (the warm-up probe writes it on a fresh checkout).
JOB_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
JOB_ENV["PYTHONHASHSEED"] = "0"


def cli(name: str, *argv: str) -> dict:
    return {"name": name, "spec": {"cli": list(argv)}}


def api(name: str, fn: str) -> dict:
    return {"name": name, "spec": {"api": fn}}


# Why these workloads: see BASELINE.md.
WORKLOADS = {
    "verify_main": [
        cli("verify-main-r3", "verify-main", "--r", "3", "--format", "json"),
        cli("verify-main-r4", "verify-main", "--r", "4", "--format", "json"),
        cli("verify-main-r5", "verify-main", "--r", "5", "--format", "json"),
    ],
    "reconstruct": [
        cli("reconstruct-r2", "reconstruct", "--r", "2", "--tmax", "4",
            "--t-degree", "5", "--eps-order", "6"),
        api("reconstruct-oracle", "reconstruct_oracle"),
    ],
    "quantize": [
        api("quantize-r3", "quantize_r3"),
        api("quantize-r4", "quantize_r4"),
    ],
}


# -- one job ----------------------------------------------------------------------


def load_golden(name: str) -> tuple[dict, bytes]:
    index = json.loads((GOLDEN / "index.json").read_text())
    return index[name], (GOLDEN / f"{name}.stdout").read_bytes()


def check_cli(job: dict, stdout: bytes, code: int, golden=None) -> list[str]:
    """Problems with a CLI job's stdout and exit code against its golden."""
    meta, expected = golden or load_golden(job["name"])
    problems = []
    if meta["argv"] != job["spec"]["cli"]:
        problems.append(f"golden was made for argv {meta['argv']}")
    if code != meta["exit"]:
        problems.append(f"exit code {code}, golden {meta['exit']}")
    if stdout != expected:
        at = next((i for i, (x, y) in enumerate(zip(stdout, expected)) if x != y),
                  min(len(stdout), len(expected)))
        problems.append(f"stdout differs from golden at byte {at} "
                        f"({len(stdout)} vs {len(expected)} bytes)")
    return problems


def spawn(spec: dict, traced: bool):
    """Run job.py on one spec; returns (process, start time, wall s, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(JOB), json.dumps(spec), "1" if traced else "0"],
        cwd=ROOT, env=JOB_ENV, capture_output=True, timeout=JOB_TIMEOUT_S)
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, t0, wall, cpu


def run_job(job: dict, seed: int, traced: bool, spec_extra: dict | None = None) -> dict:
    spec = dict(job["spec"], **(spec_extra or {}))
    if "api" in spec:
        spec["seed"] = seed
    try:
        proc, t0, wall, cpu = spawn(spec, traced)
    except subprocess.TimeoutExpired:
        return {"name": job["name"], "ok": False,
                "problems": [f"timed out after {JOB_TIMEOUT_S} s"]}
    lines = proc.stderr.decode(errors="replace").splitlines()
    report = None
    if lines and lines[-1].startswith(REPORT_PREFIX):
        report = json.loads(lines[-1][len(REPORT_PREFIX):])
    if report is None:
        problems = ["no report; stderr ends: " + " | ".join(lines[-3:])]
    elif "cli" in spec:
        problems = check_cli(job, proc.stdout, proc.returncode)
    elif proc.returncode != 0 or report.get("identity_failures"):
        problems = [f"{report.get('identity_failures')} of {report.get('checked')} "
                    f"identities failed (exit {proc.returncode})"]
    else:
        problems = []
    result = {"name": job["name"], "ok": not problems, "problems": problems,
              "wall_s": wall, "cpu_s": cpu}
    if report is not None:
        result.update(setup_s=report["imported_at"] - t0,
                      body_s=report.get("body_s"),
                      maxrss_mb=report.get("maxrss_kb", 0) / 1024,
                      reorder_memo_entries=report.get("reorder_memo_entries"),
                      trace=report.get("trace"))
    return result


# -- metrics ----------------------------------------------------------------------


def end_to_end(passes: list[list[dict]], probes: list[float]) -> dict:
    setups = [j["setup_s"] for p in passes for j in p] + probes

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": med(lambda p: sum(j["wall_s"] for j in p)),
        "cpu_s": med(lambda p: sum(j["cpu_s"] for j in p)),
        "job_max_s": med(lambda p: max(j["wall_s"] for j in p)),
        "peak_rss_mb": med(lambda p: max(j["maxrss_mb"] for j in p)),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Sum the traced jobs' span reductions into named per-layer values."""
    calls = {name: 0 for _, _, name, _ in TARGETS}
    incl = dict.fromkeys(calls, 0.0)
    self_s = dict.fromkeys(calls, 0.0)
    values = Tracer().counters  # every counter, at 0
    covered = body = 0.0
    for job in traced:
        tr = job["trace"]
        covered += tr["covered_s"]
        body += tr["body_s"]
        for src, dst in ((tr["calls"], calls), (tr["incl_s"], incl),
                         (tr["self_s"], self_s), (tr["counters"], values)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                        if k.startswith(layer + "."))
    values["scalars.alg_ops"] = sum(calls.get(f"scalars.{op}", 0)
                                    for op in ("mul", "add", "inverse"))
    values["quantize.reorder_memo_entries"] = max(
        j["reorder_memo_entries"] for j in traced)
    values["trace.attributed_frac"] = covered / body
    values["trace.overhead_ratio"] = body / sum(j["body_s"] for j in untraced)
    for k, v in calls.items():
        values[f"{k}.calls"] = v
    for k, v in incl.items():
        values[f"{k}.s"] = v
    for k, v in self_s.items():
        values.setdefault(f"{k}.self_s", v)
    return values


def pick(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


# -- record -------------------------------------------------------------------------


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + name)), ref)
    return {"drhier_commit": commit, "src_sha256": digest.hexdigest()}


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:  # read only
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "cpu_model": cpu}


# -- running a workload ------------------------------------------------------------


def probe_setup() -> float:
    result = run_job({"name": "import-probe", "spec": {}}, 0, False)
    if not result["ok"]:
        raise RuntimeError(f"import probe failed: {result['problems']}")
    return result["setup_s"]


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    jobs = WORKLOADS[name]
    probe_setup()  # warm-up: compiles bytecode on a fresh checkout
    if traced:  # [untraced, traced]
        passes = [[run_job(j, seed, t) for j in jobs] for t in (False, True)]
    else:
        deadline = time.monotonic() + seconds
        passes, probes = [], []
        while True:
            started = time.monotonic()
            passes.append([])
            for job in jobs:  # probes spread over the run, not bunched at its start
                probes += [probe_setup() for _ in range(SETUP_PROBES_PER_JOB)]
                passes[-1].append(run_job(job, seed, False))
            now = time.monotonic()
            if now + (now - started) > deadline:
                break
    runs = [j for p in passes for j in p]
    values = {}
    if all("setup_s" in j for j in runs):  # every job reported, right or wrong
        values = per_layer(*passes) if traced else end_to_end(passes, probes)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "passes": len(passes), **machine_record(), **source_record(),
        "jobs": [{k: j.get(k) for k in ("name", "ok", "problems", "wall_s", "cpu_s",
                                        "setup_s", "maxrss_mb")} for j in runs],
    }
    result = {"correct": all(j["ok"] for j in runs), "attempted": len(runs),
              "failed": sum(not j["ok"] for j in runs), "values": values}
    return record, result


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if "cli" not in job["spec"]:
                continue
            proc = spawn(job["spec"], False)[0]
            (GOLDEN / f"{job['name']}.stdout").write_bytes(proc.stdout)
            index[job["name"]] = {"argv": job["spec"]["cli"], "exit": proc.returncode}
            print(f"{job['name']}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden/ from the current source")
    args = parser.parse_args(argv)
    needed = [SRC / "cli.py"]
    if not args.write_golden:
        needed += [ROOT / "BENCHMARK.json", GOLDEN / "index.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: missing " + ", ".join(missing), file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    record, result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    for job in record["jobs"]:
        if not job["ok"]:
            print(f"perfbench: {job['name']} failed: {'; '.join(job['problems'])}",
                  file=sys.stderr)
    specs = config["per_layer" if args.trace else "end_to_end"]
    values = result.pop("values")
    result["metrics"] = pick(values, specs) if values else {}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
