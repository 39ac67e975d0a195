"""Self-tests of the benchmark harness (goldens, tracer, seeds).

    python3 perfbench/selftest.py

The file name keeps it out of the package's pytest collection: the tests
start job processes and belong to the benchmark, not to drhier.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

from drhier import cli, gdhier  # noqa: E402
from drhier.quantize import WeylContext  # noqa: E402
from drhier.scalars import AlgScalar  # noqa: E402

SMALL = {"quantize-r3": {"kwargs": {"triples": 20}},
         "quantize-r4": {"kwargs": {"triples": 20, "pairs": 10}}}


def job(name: str) -> dict:
    return next(j for jobs_ in run.WORKLOADS.values() for j in jobs_ if j["name"] == name)


class GoldenTest(unittest.TestCase):
    def test_one_byte_change_is_caught(self):
        index = json.loads((run.GOLDEN / "index.json").read_text())
        self.assertTrue(index)
        for name in index:
            meta, stdout = run.load_golden(name)
            self.assertEqual(run.check_cli(job(name), stdout, meta["exit"]), [])
            for at in (0, len(stdout) // 2, len(stdout) - 1):
                changed = bytearray(stdout)
                changed[at] ^= 1
                self.assertTrue(run.check_cli(job(name), bytes(changed), meta["exit"]))
                self.assertTrue(run.check_cli(job(name), stdout, meta["exit"],
                                              (meta, bytes(changed))))
            self.assertTrue(run.check_cli(job(name), stdout, meta["exit"] + 1))

    def test_every_cli_job_has_a_golden(self):
        index = json.loads((run.GOLDEN / "index.json").read_text())
        for jobs_ in run.WORKLOADS.values():
            for j in jobs_:
                if "cli" in j["spec"]:
                    self.assertEqual(index[j["name"]]["argv"], j["spec"]["cli"])


class TracerTest(unittest.TestCase):
    def bound(self):
        return [AlgScalar.__dict__["__mul__"], AlgScalar.__dict__["__rmul__"],
                AlgScalar.__dict__["__radd__"], gdhier.pdo_root, gdhier.gd_context,
                cli.gd_context, cli.weyl_star, cli.verify_dr_dz_equivalence,
                cli.main, jobs.weyl_star]

    def test_restore_leaves_unwrapped_functions(self):
        originals = self.bound()
        tracer = Tracer().install()
        try:
            for before, now in zip(originals, self.bound()):
                self.assertIsNot(before, now)
            self.assertIs(AlgScalar.__dict__["__mul__"], AlgScalar.__dict__["__rmul__"])
            AlgScalar(1) * AlgScalar(0, 2) + 1
            2 * AlgScalar(3)
        finally:
            tracer.restore()
        self.assertEqual(tracer.reduce(1.0)["calls"], {"scalars.mul": 2, "scalars.add": 1})
        for before, now in zip(originals, self.bound()):
            self.assertIs(before, now)
        AlgScalar(1) * AlgScalar(2)
        self.assertEqual(len(tracer.start), 3)

    def test_untraced_job_after_traced_job_reports_no_spans(self):
        vm3 = job("verify-main-r3")
        traced = run.run_job(vm3, 1, True)
        untraced = run.run_job(vm3, 1, False)
        self.assertTrue(traced["ok"] and untraced["ok"], (traced, untraced))
        self.assertGreater(traced["trace"]["spans"], 0)
        self.assertIsNone(untraced["trace"])

    def test_self_time_subtracts_children(self):
        tracer = Tracer()
        tracer.span_names = ["a", "b"]
        for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                        (0, 1, 2.0, 3.0), (1, -1, 12.0, 13.0)):
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.start.append(start)
            tracer.end.append(end)
        red = tracer.reduce(20.0)
        self.assertEqual(red["self_s"], {"a": 8.0, "b": 3.0})
        self.assertEqual(red["incl_s"], {"a": 10.0, "b": 4.0})
        self.assertEqual(red["covered_s"], 11.0)


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        for name in ("verify-main-r3", "quantize-r4"):
            a, b = (run.run_job(job(name), 7, True, SMALL.get(name)) for _ in range(2))
            self.assertTrue(a["ok"] and b["ok"], (a, b))
            for key in ("calls", "counters", "spans"):
                self.assertEqual(a["trace"][key], b["trace"][key], (name, key))
            self.assertEqual(a["reorder_memo_entries"], b["reorder_memo_entries"])

    def test_other_seed_gives_other_inputs_and_identities_hold(self):
        ctx = WeylContext(n_fields=3, window=5)
        draws = {seed: [jobs.random_weyl(random.Random(f"quantize-r4:{seed}"), ctx, 6).terms
                        for _ in range(5)] for seed in (1, 2)}
        self.assertNotEqual(draws[1], draws[2])
        for seed in (1, 2):
            for name in ("quantize-r3", "quantize-r4"):
                result = run.run_job(job(name), seed, False, SMALL[name])
                self.assertTrue(result["ok"], result)


class ConfigTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in config["workloads"]),
                         sorted(run.WORKLOADS))
        names = {name for _, _, name, _ in TARGETS}
        fake = {"covered_s": 1.0, "body_s": 1.0, "calls": {}, "incl_s": {},
                "self_s": {}, "counters": {}}
        values = run.per_layer([{"body_s": 1.0}],
                               [{"trace": fake, "reorder_memo_entries": 0}])
        run.pick(values, config["per_layer"])
        self.assertTrue(all(f"{n}.calls" in values for n in names))


if __name__ == "__main__":
    unittest.main()
