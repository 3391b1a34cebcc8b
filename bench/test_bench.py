"""Self-tests of the benchmark harness (stdlib unittest):

    python3 -m unittest discover -s bench -p 'test_*.py'
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from burstcodes import classic, perm, tburst  # noqa: E402
from burstcodes.seqcore import NotDecodableError, apply_burst, Burst  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bindings() -> dict:
    """Every attribute of the traced namespaces, plus the label methods."""
    out = {}
    for name in ("burstcodes",) + tuple(f"burstcodes.{m}" for m in spans.MODULES):
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            out[name, attr] = obj
    for cls in spans.LABELERS:
        out[cls, "label"] = getattr(tburst, cls).__dict__["label"]
    return out


def small_labelers():
    """Cheap oracles: binary burst blocks of 5 and 10, edit blocks of 3 and 6."""
    burst = tburst.BlockLabeler({k: tburst.oracle_build_brute(k, 2, "burst") for k in (5, 10)})
    edit = perm.perm_labeler(perm.PermCodeParams(5, 2, 4, 3, 0, 0, ((0, 0), (0, 0))))
    return burst, edit


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = bindings()
        tracer = spans.Tracer()
        with tracer:
            from burstcodes import cli, pll2burst, verify

            # names imported into other modules are rebound there too
            for mod, attr in (
                (perm, "cpb_decode"), (perm, "locate_burst"),
                (pll2burst, "levenshtein_decode"), (verify, "psi"),
                (verify, "deletion_ball"), (cli, "deletion_ball"),
                (tburst, "oracle_build_brute"), (tburst, "_edit_candidates"),
            ):
                self.assertIsNot(getattr(mod, attr), before[mod.__name__, attr], attr)
            for cls in spans.LABELERS:
                self.assertIsNot(getattr(tburst, cls).__dict__["label"], before[cls, "label"])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)

    def test_self_time_excludes_children(self):
        x = (0, 1, 1, 0, 1, 0, 0, 1, 1, 0)
        a = classic.vt_syndrome  # residue of x itself, so x is a codeword
        tracer = spans.Tracer()
        with tracer:
            res = apply_burst(x, Burst(4, 1))
            got = classic.vt_decode(res, a(x) % (len(x) + 1), len(x))
        self.assertEqual(got, x)
        st = tracer.merged()
        self.assertEqual(st.calls["classic.vt_decode"], 1)
        self.assertGreaterEqual(st.edges["classic.vt_decode", "seqcore.vt_syndrome"], 1)
        for name, self_s in st.self_time.items():
            self.assertLessEqual(self_s, st.wall[name] + 1e-3, name)
        ids = {s[0] for s in tracer.spans}
        for _, _, start, end, parent in tracer.spans:
            self.assertLessEqual(start, end)
            self.assertTrue(parent is None or parent in ids)
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            path = Path(tmp) / "spans.jsonl"
            tracer.write_spans(path)
            written = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertEqual([tuple(s.values()) for s in written], tracer.spans)

    def test_counts_candidates_and_refusals(self):
        burst_labeler, _ = small_labelers()
        rng = random.Random(3)
        u, params = gen.ctb_codeword(rng, burst_labeler, n=12, q=4, t=2, delta=4, P=5)
        tracer = spans.Tracer()
        with tracer:
            self.assertEqual(tburst.ctb_decode(apply_burst(u, Burst(3, 2)), params, burst_labeler), u)
        st = tracer.merged()
        self.assertGreater(st.yields["tburst._burst_candidates"], 0)
        self.assertEqual(st.raised["tburst.cpb_decode"], 0)
        self.assertGreater(st.calls["tburst.BlockLabeler.label"], 0)


class GeneratorTest(unittest.TestCase):
    def test_dense_rows_are_dense(self):
        for t, delta, n in ((2, 7, 32), (3, 6, 40), (1, 2, 9), (2, 4, 4)):
            dp = tburst.DensityParams(n, t, delta)
            rng = random.Random(t * 100 + delta)
            for _ in range(200):
                row = gen.dense_row(rng, n, t, delta)
                self.assertEqual(len(row), n)
                self.assertTrue(tburst.is_dense(row, dp), (t, delta, row))

    def test_same_seed_same_inputs(self):
        burst_labeler, edit_labeler = small_labelers()

        def draw(seed):
            rng = random.Random(seed)
            u, params = gen.ctb_codeword(rng, burst_labeler, n=12, q=4, t=2, delta=4, P=5)
            pi = gen.random_permutation(rng, 5)
            return (
                gen.dense_row(rng, 32, 2, 7), u, params, pi,
                gen.perm_params(pi, edit_labeler, 2, 4, 3),
                gen.binary_words(rng, 3, 8),
            )

        self.assertEqual(draw(7), draw(7))
        self.assertNotEqual(draw(7), draw(8))

    def test_generated_words_are_codewords(self):
        burst_labeler, edit_labeler = small_labelers()
        rng = random.Random(11)
        for _ in range(20):
            u, params = gen.ctb_codeword(rng, burst_labeler, n=12, q=4, t=2, delta=4, P=5)
            self.assertTrue(tburst.ctb_member(u, params, burst_labeler))
            pi = gen.random_permutation(rng, 5)
            self.assertTrue(perm.perm_member(pi, gen.perm_params(pi, edit_labeler, 2, 4, 3), edit_labeler))

    def test_book_stream_is_seeded(self):
        from burstcodes import verify

        books = {
            "vt": (verify.sieve("vt", 8), "burst", 1),
            "induced": (verify.sieve("induced", 6, q=3), "induced", 2),
        }
        a = gen.book_stream(random.Random(5), books, 50)
        self.assertEqual(a, gen.book_stream(random.Random(5), books, 50))
        self.assertEqual({fam for fam, *_ in a}, {"vt", "induced"})
        for fam, sent, received, _ in a:
            self.assertIn(sent, books[fam][0].words)
            self.assertLess(len(received), len(sent))


class SpeedTest(unittest.TestCase):
    def test_scale_uses_the_nearest_probes(self):
        speed = run.Speed()
        # host at reference speed until t=100, then twice as slow
        speed.times = [float(t) for t in range(200)]
        speed.values = [run.PROBE_REF_S * (1 if t < 100 else 2) for t in range(200)]
        self.assertEqual(speed.scale(10.2, 10.8), 1.0)
        self.assertEqual(speed.scale(150.5, 160.5), 0.5)
        self.assertEqual(speed.scaled(150.0, 0.4), 0.2)
        # past either end, the probes at that end
        self.assertEqual(speed.scale(-5.0, -4.0), 1.0)
        self.assertEqual(speed.scale(300.0, 301.0), 0.5)
        # a 10 s timing: the probes within 30 s of it, 39 fast and 31 slow;
        # without the fastest and slowest 7, the mean probe is 80/56 slow
        self.assertAlmostEqual(speed.scale(90.5, 100.5), 0.7)
        # the slowest tenth is left out: one stalled probe does not count
        speed.values[30] *= 10
        self.assertEqual(speed.scale(30.2, 30.4), 1.0)

    def test_probes_record_time_order(self):
        speed = run.Speed()
        speed.probe(3)
        self.assertEqual(len(speed.values), 3)
        self.assertEqual(speed.times, sorted(speed.times))
        self.assertTrue(all(v > 0 for v in speed.values))


class WindowTest(unittest.TestCase):
    def test_fixed_reps_and_whole_stream(self):
        def decode(ctx, res, item):
            for i, x in workloads._cycle(ctx, "stream", 300):
                res.decode(i, lambda: x, x)

        def sieve(ctx, res, item):
            res.add("sieve", item, workloads.clock())

        wl = workloads.Workload("fake", None, [
            workloads.Op("decode", ("stream",), decode, 0.5, 1),
            workloads.Op("sieve", ("a", "b"), sieve, 0.5, 1, reps=2),
        ], decode_reps=2)
        ctx = {"stream": [(i, (i,)) for i in range(run.MIN_DECODES)]}
        res = workloads.Results()
        run.run_window(wl, ctx, res, 0.05, run.Speed())
        # fixed reps however long the window; every input decoded twice, counted once
        self.assertEqual({k: len(v) for k, v in res.samples.items()}, {("sieve", "a"): 2, ("sieve", "b"): 2})
        self.assertGreaterEqual(min(len(v) for v in res.latencies.values()), 2)
        self.assertEqual((res.attempted, res.failed), (run.MIN_DECODES, 0))


class GateTest(unittest.TestCase):
    def test_refusal_is_counted_not_wrong(self):
        res = workloads.Results()

        def refuse():
            raise NotDecodableError("forced")

        res.decode(0, refuse, (0, 1))
        res.decode(1, lambda: (0, 1), (0, 1))
        self.assertEqual((res.attempted, res.refused), (2, 1))
        self.assertTrue(res.correct)
        self.assertEqual((len(res.latencies), res.decodes), (2, 2))

    def test_repeats_count_once_and_must_agree(self):
        res = workloads.Results()

        def refuse():
            raise NotDecodableError("forced")

        for _ in range(3):
            res.decode(0, refuse, (0, 1))
            res.decode(1, lambda: (0, 1), (0, 1))
        self.assertEqual((res.attempted, res.failed), (2, 1))
        self.assertEqual((len(res.latencies), res.decodes), (2, 6))
        self.assertTrue(res.correct)
        self.assertTrue(res.correct)
        # redecode repeats the first call on that input
        res.redecode(0)
        self.assertEqual((len(res.latencies[0]), res.attempted, res.failed), (4, 2, 1))
        # the same input decoded differently on a repeat fails the run
        res.decode(1, refuse, (0, 1))
        self.assertEqual((res.attempted, res.failed), (2, 1))
        self.assertFalse(res.correct)

    def test_wrong_answer_fails_the_run(self):
        res = workloads.Results()
        res.decode(0, lambda: (1, 1), (0, 1))
        res.roundtrip("batch", lambda x: x, lambda y: y[::-1], [(0, 1)])
        self.assertFalse(res.correct)
        self.assertEqual(len(res.wrong), 2)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.report(res, {"setup_s": (1.0, "s", "n=1")}, {"seed": 1})
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertFalse(result["correct"])
        # the round trip is wrong but is not a decode: one failed of one attempted
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertEqual(res.roundtrips, 1)

    def test_refusal_in_round_trip_is_wrong(self):
        res = workloads.Results()

        def refuse(y):
            raise NotDecodableError("forced")

        res.roundtrip("batch", lambda x: x, refuse, [(0, 1), (1, 1)])
        self.assertFalse(res.correct)
        self.assertEqual((res.attempted, res.failed, res.roundtrips), (0, 0, 2))

    def test_workload_table_matches_runner(self):
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOAD_NAMES)
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(run.END_TO_END.values()))
        layers = run.layer_metrics(spans.Tracer(), 1.0, 0.5)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, (_, unit, _) in layers.items()],
        )


if __name__ == "__main__":
    unittest.main()
