"""kripkit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 kbench/run.py --workload axiom-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and loads the library from `src/`,
as the tier-1 tests do, with whichever scan kernel that path provides. The
op loop is closed, with one caller and one thread. Every result is checked
outside the timed region; an op that raises or returns a wrong result
counts as failed and the run goes on.

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Before it come the run header (one
JSON object) and one `name value unit` line per metric.

--trace 0  end-to-end metrics. Set-up (import plus input generation) is
           measured in PROBES fresh interpreters and in this process, and
           its median reported.
--trace 1  per-layer metrics, as means per op: an untraced pass for
           --seconds, then a pass over the same ops with spans around each
           layer, checked so that each op's self times add up to its wall
           time.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 4
MIN_OPS = 200  # so that ten ops lie beyond p95
MAX_LOOP_S = 120.0  # stop a pass this long even short of MIN_OPS
REF_UNIT_S = 0.0005  # nominal time of one reference_unit(); see reference_s
REF_DUTY = 0.05  # reference time after each op, as a share of the op's
MIN_REF_UNITS = 4  # reference units after each op, however short
SETUP_REF_UNITS = 50  # reference units before and after each set-up


def reference_unit() -> int:
    """A fixed pure-Python workload of tuple, dict, int and call traffic.

    It does not touch the library and allocates little, so a change to
    kripkit leaves its time alone.
    """
    memo, acc = {}, 0
    for i in range(2000):
        key = (i & 255, i & 7)
        got = memo.get(key)
        if got is None:
            got = memo[key] = (i * 2654435761) & 0xFFFF
        acc ^= got if isinstance(got, int) else 0
    return acc


def reference_s(units: int) -> float:
    """Time of `units` reference units, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            reference_unit()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _commit() -> str:
    """HEAD of a git checkout, read from files; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """sha256 over the library's sources, which names the code measured
    where there is no git commit to name it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kripkit").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _setup(workload: str, seed: int):
    """Import the library and generate the inputs.

    Returns the module, the workload, its ops, the input fingerprint and
    the set-up time, at reference speed and as measured.
    """
    ref = reference_s(SETUP_REF_UNITS)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    w = workloads.WORKLOADS[workload]
    ops = w.generate(seed)
    setup_s = time.perf_counter() - t0
    ref += reference_s(SETUP_REF_UNITS)
    scaled = setup_s * REF_UNIT_S * 2 * SETUP_REF_UNITS / ref
    fp = workloads.fingerprint(t for op in ops for t in w.texts(op))
    return workloads, w, ops, fp, (scaled, setup_s)


def _probe(workload: str, seed: int):
    """Set-up time and fingerprint measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    return tuple(got["setup_s"]), got["fingerprint"]


class Pass:
    """Runs ops in list order, cycling, and checks each result.

    After each op, outside its timed region, the reference workload runs
    for REF_DUTY of the op's time and at least MIN_REF_UNITS units. The
    op's time is reported at reference speed: scaled by REF_UNIT_S over the
    unit time measured right after it. On a shared VM the CPU's speed
    jitters within tens of milliseconds, so the reference must be measured
    next to the op it scales.
    """

    def __init__(self, w, api, ops):
        self.w, self.api, self.ops = w, api, ops
        self.i = 0
        self.done = {}  # op number -> (round, wall_s, models, factor), if passed
        self.failures = []
        self.bad_rounds = set()
        self.unit_s = []  # reference unit time measured after each op
        self.factor = 1.0  # reference factor of the last op

    def reference_ms(self) -> dict:
        per_op = sorted(1e3 * u for u in self.unit_s)
        return {"nominal": REF_UNIT_S * 1e3, "min": per_op[0],
                "median": statistics.median(per_op), "max": per_op[-1]}

    def key(self, i):
        """The round of op i; a prefix is a round of its own."""
        cycle, pos = divmod(i, len(self.ops))
        if pos < self.w.prefix:
            return cycle, -1
        return cycle, (pos - self.w.prefix) // self.w.round_len

    def step(self, tracer=None, layer_counts=None):
        """Run and check the next op; return its spans when traced."""
        op = self.ops[self.i % len(self.ops)]
        self.i += 1
        spans = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.w.run(self.api, op)
                wall = time.perf_counter() - t0
            else:
                tracer.open_op()
                try:
                    result = self.w.run(self.api, op)
                finally:
                    spans = tracer.close_op()
                wall = spans[0][2] - spans[0][1]
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(f"raised {exc!r}")
            return spans
        units = max(MIN_REF_UNITS, round(REF_DUTY * wall / REF_UNIT_S))
        unit_s = reference_s(units) / units
        self.unit_s.append(unit_s)
        self.factor = REF_UNIT_S / unit_s
        try:
            problem = self.w.check(op, result)
            models = self.w.models(op, result)
            if layer_counts is not None:
                for name, n in self.w.layer_counts(op, result).items():
                    layer_counts[name] = layer_counts.get(name, 0) + n
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.fail(problem)
        else:
            self.done[self.i - 1] = (self.key(self.i - 1), wall, models,
                                     self.factor)
        return spans

    def fail(self, why):
        """Count the last op as failed, and its round as incomplete."""
        self.failures.append(f"op {self.i - 1}: {why}")
        self.bad_rounds.add(self.key(self.i - 1))

    def timed(self, seconds: float) -> None:
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds
                                         and self.i >= MIN_OPS):
                return
            self.step()

    def walls(self, scaled=True) -> list:
        return [wall * (factor if scaled else 1.0)
                for _, wall, _, factor in self.done.values()]

    def rounds(self, scaled=True) -> dict:
        """[ops, busy_s, models] of each complete round, by round.

        Every round holds the same mix of op classes, so a median over
        rounds drops rounds slowed by other load on the machine.
        """
        rows = {}
        for key, wall, models, factor in self.done.values():
            row = rows.setdefault(key, [0, 0.0, 0])
            row[0] += 1
            row[1] += wall * (factor if scaled else 1.0)
            row[2] += models
        full = {key: row for key, row in rows.items()
                if key not in self.bad_rounds and row[0] == (
                    self.w.prefix if key[1] < 0 else self.w.round_len)}
        return full or {"all": [sum(r[i] for r in rows.values())
                                for i in range(3)]}

    def round_rates(self, scaled=True):
        """Median ops/s and models/s over the complete rounds."""
        full = self.rounds(scaled).values()
        return (statistics.median(n / busy for n, busy, _ in full),
                statistics.median(m / busy for _, busy, m in full))


def _end_to_end(args, workloads, w, ops, setups):
    p = Pass(w, workloads.library_api(), ops)
    p.timed(args.seconds)
    ops_per_s, models_per_s = p.round_rates()
    ms = [x * 1e3 for x in p.walls()]
    raw = [x * 1e3 for x in p.walls(scaled=False)]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p95_ms": (tracing.percentile(ms, 0.95), "ms"),
        "models_per_s": (models_per_s, "models/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    as_measured = {
        "setup_s": statistics.median(s for _, s in setups),
        "ops_per_s": p.round_rates(scaled=False)[0],
        "op_p50_ms": statistics.median(raw),
        "op_p95_ms": tracing.percentile(raw, 0.95),
    }
    return p, metrics, as_measured


def _per_layer(args, workloads, w, ops):
    api = workloads.library_api()
    plain = Pass(w, api, ops)
    plain.timed(args.seconds)
    tracer = tracing.Tracer()
    traced = Pass(w, api, ops)
    layer = {}  # span name -> [calls, busy_s, self_s], times at reference speed
    with tracing.Patches(tracer, workloads.trace_sites(api)):
        for _ in range(plain.i):
            spans = traced.step(tracer, tracer.counts)
            if spans is None:
                continue
            bad = tracing.span_problems(spans)
            if bad:
                traced.fail("; ".join(bad))
            for name, row in tracing.fold_spans(spans).items():
                total = layer.setdefault(name, [0, 0.0, 0.0])
                total[0] += row[0]
                total[1] += row[1] * traced.factor
                total[2] += row[2] * traced.factor
    # means per op, so that runs of different length compare
    n = max(1, len(traced.done))
    metrics = {"op.count": (len(traced.done), "count")}
    for name in ("op",) + workloads.TRACED_FUNCTIONS:
        calls, busy, self_s = layer.get(name, (0, 0.0, 0.0))
        if name != "op":
            metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.busy_s"] = (busy / n, "s")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for name in workloads.TRACED_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / n, "count")
    # both passes ran the same ops; the median is robust to the jitter
    # that single ops of a few seconds show
    metrics["trace.overhead_ratio"] = (statistics.median(
        traced.done[i][1] * traced.done[i][3]
        / (plain.done[i][1] * plain.done[i][3])
        for i in traced.done.keys() & plain.done.keys()), "ratio")
    traced.i += plain.i  # attempted in both passes
    traced.failures = plain.failures + traced.failures
    return traced, metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only time set-up, in this fresh interpreter")
    args = ap.parse_args(argv)

    if not (SRC / "kripkit" / "__init__.py").is_file():
        print(f"no kripkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        _, _, _, fp, setup = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup, "fingerprint": fp}))
        return 0

    load_start = os.getloadavg()
    probes = [] if args.trace else [_probe(args.workload, args.seed)
                                    for _ in range(PROBES)]
    workloads, w, ops, fp, setup = _setup(args.workload, args.seed)
    if args.trace:
        p, metrics, as_measured = _per_layer(args, workloads, w, ops)
    else:
        p, metrics, as_measured = _end_to_end(
            args, workloads, w, ops, [s for s, _ in probes] + [setup])
    failures = [f"probe fingerprint {got} differs from {fp}"
                for _, got in probes if got != fp] + p.failures

    from kripkit import backend_name
    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "load_start": load_start,
        "load_end": os.getloadavg(), "backend": backend_name(),
        "input_sha256": fp, "ops_timed": len(p.done),
        "ops_failed": len(failures) / p.i,
        "reference_unit_ms": p.reference_ms(),
        "as_measured": as_measured,
        "failures": failures[:20],
    }
    print(json.dumps({"header": header}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": p.i,
        "failed": min(len(failures), p.i),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
