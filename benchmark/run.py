"""Benchmark of the hardyverify library.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample runs in a fresh interpreter
(benchmark/sample.py), one after another, as separate ``hardy`` CLI calls
would.  With --trace 0 the run first times the set-up several times, then
runs blocks of the workload until S seconds have passed, and reports the
end-to-end metrics.  With --trace 1 it runs block 0 untraced and then traced,
in pairs, until S seconds have passed, and reports the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object;
the lines before it are a readable summary.

Exit codes: 0 a result was printed; 1 a sample could not run (for example,
the library sources are missing); 2 bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = Path(__file__).resolve().parent / "sample.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify", "cont-sweep", "disc-sparse", "disc-dense")
SETUP_SAMPLES = 21
DEADLINE_S = 170.0
# samples load cached bytecode, as an installed package does, whatever the
# caller's environment says
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
# workload-specific names of the generic metrics, as NOTES.md uses them
ALIASES = {
    "verify": {"op_ms_iqm": "verify_s (x1000)"},
    "cont-sweep": {"ops_per_s": "cont_points_per_s", "op_ms_iqm": "cont_point_ms_p50",
                   "op_ms_p95": "cont_point_ms_p95"},
    "disc-sparse": {"ops_per_s": "disc_sparse_points_per_s"},
    "disc-dense": {"ops_per_s": "disc_dense_seqs_per_s"},
}


class SampleError(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, *args: str) -> str:
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise SampleError("out of time before the next sample")
        try:
            proc = subprocess.run([sys.executable, str(SAMPLE), *args], cwd=ROOT,
                                  env=CHILD_ENV, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise SampleError(f"sample {args} did not finish in {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise SampleError(f"sample {args} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def unit(self, block: int, trace: bool) -> dict:
        out = self.child("unit", self.workload, str(self.seed), str(block),
                         "1" if trace else "0", str(OUT_DIR))
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self) -> float:
        """Interpreter start to ready; the child prints the system-wide
        monotonic clock when ready, so its exit is not counted."""
        t0 = time.monotonic()
        ready = float(self.child("setup").strip().splitlines()[-1])
        return ready - t0


def source_digest() -> str:
    """Hash of the library and of the benchmark code that makes its inputs."""
    h = hashlib.sha256()
    paths = [*(ROOT / "src" / "hardy").rglob("*"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests of earlier samples of the same inputs and sources, kept in
    the checkout, so that repeated runs of a seed are checked against each
    other."""

    def __init__(self, path: Path, prefix: str):
        self.path, self.prefix = path, prefix
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}
        self.checks = 0
        self.mismatches: list[str] = []

    def check(self, key: str, digest: str) -> None:
        full = f"{self.prefix}|{key}"
        if full not in self.data:
            self.data[full] = digest
            return
        self.checks += 1
        if self.data[full] != digest:
            self.mismatches.append(f"output of {key} differs from an earlier sample")

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values."""
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metadata(seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src" / "hardy").glob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "src_hardy_lines": lines}


def end_to_end(run: Run, store: DigestStore) -> tuple[dict, int, int, list[str]]:
    setups = [run.setup_s() for _ in range(SETUP_SAMPLES)]
    op_s, rss = [], []
    ops = failed = functionals = unresolved = 0
    failures: list[str] = []
    block = 0
    measure_start = run.elapsed()
    while block == 0 or run.elapsed() - measure_start < run.seconds:
        # verify has one input per seed; sweeps take the next block
        key = 0 if run.workload == "verify" else block
        res = run.unit(key, trace=False)
        op_s += res["op_s"]
        rss.append(res["rss_mb"])
        ops += res["ops"]
        failed += res["failed"]
        failures += res["failures"]
        functionals += res["functionals"]
        unresolved += res["unresolved"]
        store.check(f"block={key}", res["digest"])
        block += 1
    attempted = ops + store.checks
    failed += len(store.mismatches)
    failures += store.mismatches
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_iqm": 1e3 * interquartile_mean(op_s),
        "op_ms_p95": 1e3 * quantile(op_s, 0.95),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": 1.0 - failed / attempted,
        "resolved_ratio": 1.0 - unresolved / functionals if functionals else 1.0,
    }
    info = [f"samples {block}, ops timed {len(op_s)}, set-ups {len(setups)}, "
            f"op_ms_p50 {1e3 * statistics.median(op_s):.6g}",
            f"fail_ratio {failed}/{attempted}, unresolved_ratio {unresolved}/{functionals}"]
    for name, alias in ALIASES[run.workload].items():
        info.append(f"{alias} = {name}")
    return metrics, attempted, failed, failures + info


def per_layer(run: Run, store: DigestStore) -> tuple[dict, int, int, list[str]]:
    overhead, untraced, times, counts = [], [], [], []
    ops = failed = 0
    failures: list[str] = []
    measure_start = run.elapsed()
    while not times or run.elapsed() - measure_start < run.seconds:
        plain = run.unit(0, trace=False)
        res = run.unit(0, trace=True)
        for r in (plain, res):
            ops += r["ops"]
            failed += r["failed"]
            failures += r["failures"]
            store.check("block=0", r["digest"])
        overhead.append(sum(res["op_s"]) - sum(plain["op_s"]))
        untraced.append(sum(plain["op_s"]))
        times.append(res["layer_times"])
        counts.append(res["layer_counts"])
    if any(c != counts[0] for c in counts[1:]):
        failed += 1
        failures.append("layer counts differ between identical samples")
    attempted = ops + store.checks + (len(counts) > 1)
    failed += len(store.mismatches)
    failures += store.mismatches
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.median(t.get(name, 0.0) for t in times)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    info = [f"traced pairs {len(times)}, spans written to {res['spans_file']}"]
    return metrics, attempted, failed, failures + info


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    run = Run(args.workload, args.seed, args.seconds)
    try:
        OUT_DIR.mkdir(exist_ok=True)
        # compiles the library's bytecode, so that no timed set-up pays for it
        run.child("setup")
        store = DigestStore(OUT_DIR / "digests.json", "|".join(
            (args.workload, str(args.seed), source_digest(), platform.python_version())))
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(run, store)
        store.save()
    except (SampleError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result = {name: {"value": metrics.get(name, 0), "unit": unit}
              for name, unit in declared.items()}
    meta = metadata(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{run.elapsed():.1f} s")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in result.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": result}
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**final, "meta": meta, "notes": notes}, indent=1, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
