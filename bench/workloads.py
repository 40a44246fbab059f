"""The benchmark's workloads. Each runs in a fresh interpreter started by run.py:

    python3 bench/workloads.py WORKLOAD --seed N --seconds S --mode MODE
        --work DIR [--spans PATH]

MODE is one of
  setup  build the inputs and stop;
  timed  build the inputs, then run operations until S seconds have passed;
  fixed  build the inputs, then run a fixed, seed-determined list of
         operations, so that two runs with the same seed do the same work.
With --spans the process runs under the span tracer (for ``cli``: every CLI
call does) and the spans go to PATH (for ``cli``: a directory).

The process prints {"ready": true} on stdout as soon as its inputs are
ready, and, unless MODE is setup, one {"result": {...}} line at the end.
Operations are timed one by one; their outputs are checked only after the
last one, outside every timed region.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from resichain import amalgamation as am  # noqa: E402
from resichain import chain as ch  # noqa: E402
from resichain import classification as cl  # noqa: E402
from resichain import decomposition as dec  # noqa: E402
from resichain import morphisms as mor  # noqa: E402
from resichain import pointed, words, zchain  # noqa: E402
from resichain.constructors import com, go  # noqa: E402
from resichain.errors import ShapeMismatch  # noqa: E402

from tracer import Tracer  # noqa: E402

# criterion 2 of the acceptance gate: every span over every class with
# |B|, |C| <= 6, searched in the class's members up to size 12
SWEEP_SPANS = 71236
FIXED_OPS = {"sweep": 2000, "closure": 400}
CLI_TIMEOUT_S = 4.0
STARTUP_PROBES = 7
CLI_PASS_S = 12  # one pass of the cli mix per this many seconds of --seconds
SPEED_REF_MS = 1.0
SPEED_EVERY_S = 0.2
SPEED_WINDOW = 6
# answers recorded at the baseline commit, for verbs whose answer has no
# closed form in the library
ENUMERATE_6_COUNT = 575


class Sweep:
    """Criterion 2's spans in a seeded order. Each class's spans are spread
    evenly over the order, so every prefix samples the classes in
    proportion to their share of the 71,236 spans."""

    name = "sweep"

    def __init__(self, rng: random.Random, _work: Path):
        self.classes = cl.all_sixty()
        self.pools = []
        self.keys = {}
        keyed = []
        for ci, cls in enumerate(self.classes):
            members = cl.class_members(cls, 6)
            self.pools.append(cl.class_members(cls, 12))
            spans = []
            for A in members:
                for B in members:
                    legs_b = mor.enumerate_embeddings(A, B)
                    if not legs_b:
                        continue
                    for C in members:
                        for i_c in mor.enumerate_embeddings(A, C):
                            spans.extend((ci, A, B, C, i_b, i_c) for i_b in legs_b)
            rng.shuffle(spans)
            offset = rng.random()
            keyed.extend(((r + offset) / len(spans), s) for r, s in enumerate(spans))
        self.span_count = len(keyed)
        keyed.sort(key=lambda kv: kv[0])
        self.items = [s for _, s in keyed]

    def setup_problems(self) -> list:
        if self.span_count != SWEEP_SPANS:
            return [f"enumerated {self.span_count} spans, expected {SWEEP_SPANS}"]
        return []

    def op(self, item):
        """The gate's calls for one span, in the gate's order."""
        ci, A, B, C, i_b, i_c = item
        span = am.Span(A, B, C, i_b, i_c)
        bound = B.size + C.size
        res = am.find_amalgam(
            span, lambda d: True, bound, one_sided=True, candidates=self.pools[ci]
        )
        if not isinstance(res, am.AmalgamResult):
            return res, (False,)
        flags = [
            am.verify_amalgam(span, res),
            res.D.size <= bound,
            cl.sig_in_class(dec.decompose(res.D), self.classes[ci]),
        ]
        try:
            cons = am.amalgamate_components(span)
        except ShapeMismatch:
            cons = None
        if cons is not None:
            flags += [am.verify_amalgam(span, cons), cons.D.size <= bound]
        return res, tuple(flags)

    def check(self, item, out) -> bool:
        return all(out[1])

    def scanned(self, item, out) -> int:
        """Position of the certificate in the size-sorted, de-duplicated
        class pool, counting only candidates at least as large as B."""
        ci, _, B, _, _, _ = item
        D = out[0].D
        if ci not in self.keys:  # built after the timed phase, so no
            # signature is cached by the benchmark before the search
            self.keys[ci] = sorted({(d.size, ch.canonical_signature(d)) for d in self.pools[ci]})
        keys = self.keys[ci]
        lo = bisect.bisect_left(keys, (B.size, b""))
        hi = bisect.bisect_right(keys, (D.size, ch.canonical_signature(D)))
        return hi - lo


class Closure:
    """Generator sets of commutative idempotent chains of size <= 7. One in
    five is the members of a random finite class among the sixty (HasAP
    with that class, 0.1-12 ms); four in five are 1, 2 or 3 random chains
    (nearly always NoAP, 7-140 ms). The median must fall well inside the
    random sets: at a 2:3 split it sat on the sparse gap between the two
    kinds and spread by 17% between runs. Classes and chains are drawn
    from back-to-back shuffles of their lists, so every prefix of the
    sequence uses each of them about equally often."""

    name = "closure"
    ITEMS = 20000

    def __init__(self, rng: random.Random, _work: Path):
        chains = cl.class_members(cl.parse_class("inf:w,w,w"), 7)
        finite = [c for c in cl.all_sixty() if c.is_finite]
        members = {c: cl.class_members(c) for c in finite}
        self.problems = []
        expected = sum(dec.count_chains(n) for n in range(1, 8))
        if len(chains) != expected:
            self.problems.append(f"{len(chains)} chains of size <= 7, expected {expected}")
        next_class, next_chain = _shuffled(rng, finite), _shuffled(rng, chains)
        self.items = []
        for i in range(self.ITEMS):
            if i % 5 == 0:
                cls = next(next_class)
                self.items.append((cls, members[cls]))
            else:
                self.items.append((None, [next(next_chain) for _ in range(1 + i % 3)]))

    def setup_problems(self) -> list:
        return self.problems

    def op(self, item):
        K = cl.hs_closure(item[1])
        return K, cl.ap_verdict(K)

    def check(self, item, out) -> bool:
        expected = item[0]
        K, verdict = out
        if expected is not None:
            return isinstance(verdict, cl.HasAP) and verdict.canonical == expected
        if isinstance(verdict, cl.HasAP):
            return cl.class_signatures(verdict.canonical) == set(K.signatures())
        w = verdict.witness
        if w is None:
            return True
        keys = {ch.canonical_signature(c) for c in K.members}
        return (
            verdict.refutation is not None
            and all(ch.canonical_signature(x) in keys for x in (w.A, w.B, w.C))
            and mor.is_embedding(w.i_B)
            and mor.is_embedding(w.i_C)
        )


def _shuffled(rng: random.Random, values: list):
    """Endless stream of seeded shuffles of ``values``, back to back."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _one_json(out: str):
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError("expected exactly one line of output")
    return json.loads(lines[0])


def _make_spec(sig: dec.DecompositionSignature) -> str:
    parts = [f"com:{m},{n}" for m, n in sig.pairs]
    if sig.p > 0:
        parts.append(f"go:{sig.p}")
    return parts[0] if len(parts) == 1 else "sum:" + "+".join(parts)


class Cli:
    """One pass is 100 sequential ``python3 -m resichain.cli`` calls: 74
    light verbs and 26 heavy ones, 8 of them inputs that break the README's
    CLI contract at the baseline commit. The heavy quarter
    puts the 90th percentile inside the heavy verbs: above the ten
    ``amalgamate --class`` calls sit only the timed-out call, three
    ``enumerate 6`` and one verify suite, so the percentile falls in the
    middle of that group of ten rather than on the edge of a group."""

    name = "cli"

    def __init__(self, rng: random.Random, work: Path):
        self.work = work
        self.rng = rng
        self.files = 0
        everything = cl.parse_class("inf:w,w,w")
        self.chains = [c for c in cl.class_members(everything, 6) if c.size > 1]
        self.sigs = [s for s in cl.class_signatures(everything, 8) if s.size > 1]
        self.sigs.sort(key=lambda s: (s.size, s.pairs, s.p))
        self.items = []  # (verb, argv, stdin, expect, known_defect)
        self._light()
        self._defects()
        self._heavy()
        rng.shuffle(self.items)

    def setup_problems(self) -> list:
        return []

    def _file(self, data) -> str:
        self.files += 1
        path = self.work / f"in{self.files}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _add(self, argv, expect, stdin=None, defect=False):
        self.items.append((argv[0], argv, stdin, expect, defect))

    def _light(self) -> None:
        rng = self.rng
        for _ in range(6):
            sig = rng.choice(self.sigs)
            self._add(
                ["make", _make_spec(sig)],
                lambda o, sig=sig: dec.decompose(ch.chain_from_json(o)) == sig,
            )
        for _ in range(7):
            c = rng.choice(self.chains)
            want = ch.predicates(c).as_dict()
            self._add(["check", self._file(c.to_json())], lambda o, w=want: o == w)
        for _ in range(7):
            c = rng.choice(self.chains)
            sig = dec.decompose(c)
            want = {**sig.to_json(), "text": sig.text()}
            self._add(["decompose", self._file(c.to_json())], lambda o, w=want: o == w)
        for _ in range(7):
            c = rng.choice(self.chains)
            x, y = rng.randrange(c.size), rng.randrange(c.size)
            side = rng.choice((ch.LEFT, ch.RIGHT))
            want = c.label(ch.residual(c, x, y, side))
            self._add(
                ["residual", c.label(x), c.label(y), self._file(c.to_json()), "--side", side],
                lambda o, w=want: o["result"] == w,
            )
        for _ in range(7):
            c = rng.choice(self.chains)
            want = len(mor.congruences(c))
            self._add(["congruences", self._file(c.to_json())], lambda o, w=want: o["count"] == w)
        for _ in range(6):
            c = rng.choice([c for c in self.chains if len(mor.congruences(c)) > 1])
            cong = rng.choice(mor.congruences(c)[1:])
            kernel = f"{c.label(cong.kernel_class[0])},{c.label(cong.kernel_class[-1])}"
            want = ch.canonical_signature(mor.quotient(c, cong)[0])
            self._add(
                ["quotient", "--kernel", kernel, self._file(c.to_json())],
                lambda o, w=want: ch.canonical_signature(ch.chain_from_json(o)) == w,
            )
        for verb, search in (("embed", mor.enumerate_embeddings), ("homs", mor.enumerate_homomorphisms)):
            for _ in range(6):
                a, b = sorted(rng.sample(self.chains, 2), key=lambda c: c.size)
                want = len(search(a, b))
                self._add(
                    [verb, self._file(a.to_json()), self._file(b.to_json())],
                    lambda o, w=want: o["count"] == w == len(o["maps"]),
                )
        for i in range(6):
            w1 = self._word()
            if i % 2:
                want = words.is_minimal(words.parse_word(w1)).to_json()
                self._add(["words", "minimal", w1], lambda o, w=want: {k: o[k] for k in w} == w)
            else:
                w2 = self._word()
                want = words.preorder_leq(words.parse_word(w1), words.parse_word(w2))
                self._add(["words", "leq", w1, w2], lambda o, w=want: o["holds"] is w)
        for _ in range(6):
            self._asop()
        for _ in range(3):
            cond = rng.choice(pointed.CONDITIONS)
            data = pointed.seed_algebra(cond).to_json()
            self._add(["pcondition", self._file(data)], lambda o, w=cond: o == {"condition": w})

    def _word(self) -> str:
        rng = self.rng
        if rng.random() < 0.7:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
            return f"per:{bits}@{rng.randint(-3, 3)}"
        support = sorted(rng.sample(range(-4, 5), rng.randint(0, 3)))
        return "fin:{" + ",".join(map(str, support)) + "}"

    def _asop(self) -> None:
        rng = self.rng
        word = self._word()
        spec = words.parse_word(word)

        def element():
            kind = rng.choice("abe")
            return zchain.UNIT if kind == "e" else zchain.ASElement(kind, rng.randint(-3, 3))

        x, y = element(), element()
        op = rng.choice(("mul", "residual", "unary", "leq"))
        if op == "mul":
            argv, want = [x.text(), y.text()], zchain.as_mult(spec, x, y).text()
        elif op == "residual":
            side = rng.choice((ch.LEFT, ch.RIGHT))
            argv = [x.text(), y.text(), "--side", side]
            want = zchain.as_residual(spec, x, y, side).text()
        elif op == "unary":
            which = rng.choice((ch.ELL, ch.R, ch.STAR))
            argv, want = [x.text(), "--which", which], zchain.as_unary(spec, x, which).text()
        else:
            argv, want = [x.text(), y.text()], zchain.as_leq(x, y)
        self._add(["as-op", "--set", word, op, *argv], lambda o, w=want: o["result"] == w)

    def _defects(self) -> None:
        """Inputs that break the CLI contract at the baseline commit, where
        each ends in a traceback; each
        passes once it exits 1 or 2 under the CLI contract."""
        c = self.rng.choice(self.chains)
        no_unit = {k: v for k, v in c.to_json().items() if k != "unit"}
        rejected = lambda o: False  # noqa: E731  any exit 0 is wrong here
        self._add(["make", "go:x"], rejected, defect=True)
        self._add(["make", "com:1"], rejected, defect=True)
        self._add(["quotient", "--kernel", "e", self._file(c.to_json())], rejected, defect=True)
        self._add(["as-op", "--set", "per:01", "mul", "a:0"], rejected, defect=True)
        self._add(["words", "leq", "per:01", "fin:{a}"], rejected, defect=True)
        self._add(["check", self._file(no_unit)], rejected, defect=True)
        self._add(["check", "-"], rejected, stdin="not json", defect=True)

    def _span(self, chains, sizes):
        """A random span with i_B, i_C embeddings, its three chains drawn
        from ``chains`` with the given sizes."""
        rng = self.rng
        by_size = {}
        for c in chains:
            by_size.setdefault(c.size, []).append(c)
        while True:
            A, B, C = (rng.choice(by_size[n]) for n in sizes)
            legs_b, legs_c = mor.enumerate_embeddings(A, B), mor.enumerate_embeddings(A, C)
            if legs_b and legs_c:
                return am.Span(A, B, C, rng.choice(legs_b), rng.choice(legs_c))

    def _heavy(self) -> None:
        rng = self.rng
        for _ in range(3):
            self._add(["enumerate", "6"], lambda o: o["count"] == ENUMERATE_6_COUNT)
        want = dec.count_chains(7)
        self._add(
            ["enumerate", "7", "--commutative", "--idempotent"],
            lambda o, w=want: o["count"] == w == len(o["chains"]),
        )
        for suite in sorted(SUITES):
            self._add(
                ["verify", suite, "--max-size", "4"],
                lambda o, s=suite: o["suite"] == s and o["failed"] == 0 and o["checked"] > 0,
            )
        heavy_class = cl.parse_class("inf:w,w,w")
        for _ in range(10):
            span = self._span(cl.class_members(heavy_class, 5), (2, 5, 5))
            self._add(
                ["amalgamate", self._file(span.to_json()), "--class", heavy_class.text(), "--one-sided"],
                lambda o, s=span, k=heavy_class: _certificate_ok(o, s, k),
            )
        if rng.random() < 0.5:
            span = self._span([go(n) for n in range(1, 5)], (rng.randint(2, 3), 5, 5))
        else:
            span = self._span([com(m, n) for m in range(3) for n in range(3)], (3, 5, 5))
        self._add(
            ["amalgamate", self._file(span.to_json()), "--construct"],
            lambda o, s=span: o["verified"] is True and _certificate_ok(o, s, None),
        )
        finite = [c for c in cl.all_sixty() if c.is_finite]
        cls = rng.choice(finite)
        gens = [m.to_json() for m in cl.class_members(cls)]
        self._add(
            ["classify", self._file(gens)],
            lambda o, w=cls.text(): o == {"class": w, "ap": True},
        )
        gens = rng.sample(self.chains, 2)
        want = json.loads(json.dumps(cl.ap_verdict(cl.hs_closure(gens)).as_dict()))
        self._add(["ap", self._file([g.to_json() for g in gens])], lambda o, w=want: o == w)
        # no --class: the default pool enumerates every chain up to
        # |B| + |C| = 8, past RESICHAIN_MAX_SIZE
        span = self._span([go(n) for n in range(4)], (1, 4, 4))
        self._add(
            ["amalgamate", self._file(span.to_json())],
            lambda o: True,
            defect=True,
        )

    def startup_ms(self, code: str, speed: "Speedometer") -> float:
        """Median scaled time of ``python3 -c CODE``, the start-up cost every
        CLI call pays."""
        times = []
        for _ in range(STARTUP_PROBES):
            speed.sample()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=60)
            end = time.perf_counter()
            speed.sample()
            times.append((end - start) * 1e3 * speed.scale(end))
        return statistics.median(times)

    def op(self, item, spans_dir=None, index=0):
        verb, argv, stdin, _, _ = item
        if spans_dir is None:
            cmd = [sys.executable, "-m", "resichain.cli", *argv]
        else:
            spans = str(Path(spans_dir) / f"{index}.spans")
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), spans, *argv]
        try:
            proc = subprocess.run(
                cmd,
                input=stdin,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
                cwd=self.work,
                env=cli_env(),
            )
        except subprocess.TimeoutExpired:
            return None
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, out) -> bool:
        """The README contract for every call, then the known answer."""
        if out is None:
            return False
        code, stdout, stderr = out
        if code not in (0, 1, 2) or "Traceback" in stderr:
            return False
        if code in (0, 1):
            try:
                payload = _one_json(stdout)
            except ValueError:
                return False
        known_defect = item[4]
        if known_defect:
            return code != 0 or item[3](payload)
        return code == 0 and bool(item[3](payload))


def _certificate_ok(o: dict, span, cls) -> bool:
    if o.get("found") is not True:
        return False
    D = ch.chain_from_json(o["D"])
    res = am.AmalgamResult(
        D=D,
        j_B=mor.ChainMap(span.B, D, tuple(o["jB"])),
        j_C=mor.ChainMap(span.C, D, tuple(o["jC"])),
        one_sided=o["one_sided"],
    )
    if not am.verify_amalgam(span, res) or D.size > span.B.size + span.C.size:
        return False
    return cls is None or cl.member_of(D, cls)


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RESICHAIN_MAX_SIZE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


SUITES = (
    "lemma:embedding-criterion",
    "lemma:residual-closed-forms",
    "lemma:decomposition-unique",
    "lemma:skeleton-contraction",
    "lemma:congruence-correspondence",
    "lemma:star-involution",
    "lemma:counting",
    "lemma:component-amalgams",
)
WORKLOADS = {w.name: w for w in (Sweep, Closure, Cli)}


def _speed_kernel() -> None:
    """Fixed interpreter work (tuple building, dict updates) that uses no
    resichain code, so a change to the program never changes its time."""
    counts, window = {}, ()
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        window = (i,) + window[:3]


class Speedometer:
    """Tracks how fast the machine runs. On a shared machine the speed
    drifts by up to 2x over tens of seconds as neighbours load it, so every
    time the benchmark reports is scaled by SPEED_REF_MS over the time
    _speed_kernel takes around it. One kernel sample is taken between operations at most
    every SPEED_EVERY_S; an interval's scale uses the median of the
    SPEED_WINDOW samples nearest its end, half before and half after. The
    result reads as a time at the reference speed."""

    def __init__(self):
        self.ends = []
        self.samples = []

    def sample(self) -> None:
        start = time.perf_counter()
        _speed_kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - start)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, end: float) -> float:
        """Reference speed over the machine's speed around time ``end``."""
        i = bisect.bisect_left(self.ends, end)
        half = SPEED_WINDOW // 2
        window = self.samples[max(0, i - half) : i + half]
        return SPEED_REF_MS / (statistics.median(window) * 1e3)


def run(args) -> dict:
    speed = Speedometer()
    for _ in range(SPEED_WINDOW // 2):
        speed.sample()
    tracer = None
    if args.spans and args.workload != "cli":
        tracer = Tracer()
        tracer.install()
    work = Path(args.work)
    workload = WORKLOADS[args.workload](random.Random(args.seed), work)
    ready = time.perf_counter()
    for _ in range(SPEED_WINDOW // 2):
        speed.sample()
    print(json.dumps({"ready": True, "scale": speed.scale(ready)}), flush=True)
    if args.mode == "setup":
        return {}

    items = workload.items
    seconds = None
    if args.workload == "cli":
        passes = 1 if args.mode == "fixed" else max(1, round(args.seconds / CLI_PASS_S))
        items = items * passes
    elif args.mode == "fixed":
        items = items[: FIXED_OPS[args.workload]]
    else:
        seconds = args.seconds

    intervals, outputs = [], []
    clock = time.perf_counter
    t0 = clock()
    for i, item in enumerate(items):
        if seconds is not None and clock() - t0 >= seconds:
            break
        speed.maybe_sample()
        start = clock()
        try:
            if args.workload == "cli":
                out = workload.op(item, args.spans, i)
            else:
                out = workload.op(item)
        except Exception as exc:  # a raising operation is a failed one
            out = exc
        intervals.append((start, clock()))
        outputs.append(out)
    for _ in range(SPEED_WINDOW // 2):
        speed.sample()
    raw_latencies = [end - start for start, end in intervals]
    # a timed-out CLI call (None) lasts the timeout, whatever the machine speed
    latencies = [
        (end - start) * (1.0 if out is None else speed.scale(end))
        for (start, end), out in zip(intervals, outputs)
    ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(workload.setup_problems())
    failed = unexpected = 0
    scanned = certificates = 0
    verbs = []
    with tracer.paused() if tracer else contextlib.nullcontext():
        for item, out in zip(items, outputs):
            known_defect = args.workload == "cli" and item[4]
            try:
                ok = not isinstance(out, Exception) and workload.check(item, out)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                ok, out = False, exc
            if not ok:
                failed += 1
                if not known_defect:
                    unexpected += 1
                    if len(problems) < 10:
                        problems.append(f"{args.workload} operation failed: {_describe(item, out)}")
            if args.workload == "sweep" and ok:
                scanned += workload.scanned(item, out)
                certificates += 1
            if args.workload == "cli":
                verbs.append(item[0])
    if tracer:
        tracer.write(args.spans)
    startup = {}
    if args.workload == "cli" and args.mode == "fixed" and not args.spans:
        startup = {
            "interpreter_ms": workload.startup_ms("pass", speed),
            "import_ms": workload.startup_ms("import resichain.cli", speed),
        }
    return {
        "attempted": len(outputs),
        "failed": failed,
        "unexpected_failures": unexpected,
        "problems": problems,
        "latencies_s": latencies,
        "raw_total_s": sum(raw_latencies),
        "peak_rss_mb": rss_mb,
        "verbs": verbs,
        "candidates_scanned": scanned,
        "certificates": certificates,
        "startup_ms": startup,
    }


def _describe(item, out) -> str:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if isinstance(item[0], str):
        return " ".join(item[1])[:200]
    return repr(item)[:200]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = run(args)
    if args.mode != "setup":
        print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
