"""Benchmark of covert-bosonic: oracle verification, a cutoff ladder of the
Fock-space stages, and square-root-law bound sweeps.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each pass of a workload runs in a fresh worker process
(``worker.py``), one at a time, so caches start cold and imports are paid as
a CLI user pays them.  Passes start while the next one is expected to end
within ``--seconds``.  Afterwards the run tops up its set-up samples with
workers that only set up, and launches the workload's smallest CLI command
in fresh processes to time a cold start.

Standard output lists every metric by name with its unit, the provenance of
the run, and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json names: its
``end_to_end`` metrics untraced, its ``per_layer`` metrics with
``--trace 1``.  A traced run alternates traced and untraced passes; the
difference of their wall times is the tracing overhead.  The full record of
the run (inputs, ops, spans, provenance) goes to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
from spans import self_times_ns, tail_percentile  # noqa: E402

# Set explicitly for every worker so that runs on different machines use the
# same BLAS parallelism when they can: two threads, or one on a single core.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
COLD_START_LAUNCHES = 7
# Everything must end within 180 s; nothing new starts after EXTRAS_DEADLINE.
EXTRAS_DEADLINE_S = 140.0
RUN_LIMIT_S = 170.0
CLI_ENTRY = "import sys; from covert_bosonic.cli import main; sys.exit(main())"


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.src = root / "src"
        self.scratch = BENCH_DIR / "out"
        self.scratch.mkdir(exist_ok=True)
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("COVERT_BOSONIC_CUTOFF", None)
        for var in BLAS_ENV:
            self.env[var] = str(BLAS_THREADS)
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.import_s: list[float] = []
        self.cold: list[dict] = []
        self.crashes: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _worker(self, mode: str, index: int, trace: bool, cold_args=None) -> dict | None:
        spec = {"workload": self.workload, "seed": self.seed, "pass": index,
                "trace": trace, "mode": mode, "src": str(self.src),
                "scratch_dir": str(self.scratch), "cold_args": cold_args,
                "spawn_monotonic": time.monotonic()}
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(5.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} {index}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"{mode} {index}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}")
            return None
        out = json.loads(lines[-1])
        self.setups.append(out["setup_s"])
        self.import_s.append(out["import_s"])
        return out

    def measure(self) -> None:
        """Passes until the time is up, with the cold starts spread among
        them, so that every metric samples the whole run."""
        self.cold_args = inputs.cold_start_args(self.workload, self.seed)
        min_passes = 2 if self.trace else 1
        durations = []
        i = 0
        while i < min_passes or (self.elapsed() + median(durations) <= self.seconds):
            for _ in range(2 if i == 0 else 1):
                if len(self.cold) < COLD_START_LAUNCHES:
                    self.cold.append(self._cold_start())
            t0 = time.monotonic()
            # In a traced run odd passes are traced and even ones are not.
            traced = self.trace and i % 2 == 1
            out = self._worker("pass", i, traced, self.cold_args if i == 0 else None)
            durations.append(time.monotonic() - t0)
            self.passes.append({"index": i, "traced": traced, "result": out})
            i += 1
        # The remaining cold starts alternate with set-up-only workers, again
        # to spread the samples out in time.
        while ((len(self.cold) < COLD_START_LAUNCHES or len(self.setups) < MIN_SETUP_SAMPLES)
               and self.elapsed() < EXTRAS_DEADLINE_S):
            if len(self.cold) < COLD_START_LAUNCHES:
                self.cold.append(self._cold_start())
            if len(self.setups) < MIN_SETUP_SAMPLES:
                self._worker("setup", i, False)
                i += 1
        reference = (self.passes[0]["result"] or {}).get("cold_reference")
        for launch in self.cold:
            launch["failures"] = self._cold_failures(launch.pop("stdout"),
                                                     launch.pop("exit_code"), reference)

    def _cold_start(self) -> dict:
        cmd = [sys.executable, "-c", CLI_ENTRY, *self.cold_args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=max(5.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return {"seconds": None, "stdout": None, "exit_code": None}
        return {"seconds": time.monotonic() - t0, "stdout": proc.stdout,
                "exit_code": proc.returncode}

    @staticmethod
    def _cold_failures(stdout, exit_code, reference: dict | None) -> list[str]:
        if stdout is None:
            return ["cold start timed out"]
        if reference is None:
            return ["no in-process output to compare with"]
        if exit_code != reference["exit_code"]:
            return [f"exit {exit_code}, in-process {reference['exit_code']}"]
        if stdout != reference["stdout"].encode("utf-8"):
            return ["stdout differs from the in-process output"]
        return []


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def op_counts(run: Run) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in run.passes:
        if p["result"] is None:
            attempted += 1
            failed += 1
            continue
        for op in p["result"]["ops"]:
            attempted += 1
            if op["failures"]:
                failed += 1
                messages.append(f"pass {p['index']} op {op['id']}: {op['failures'][:3]}")
    for c in run.cold:
        attempted += 1
        if c["failures"]:
            failed += 1
            messages.append(f"cold start: {c['failures']}")
    messages.extend(run.crashes)
    return attempted, failed, messages


def end_to_end(run: Run) -> dict:
    done = [r for p in run.passes if (r := p["result"]) is not None]
    untraced = [r for p in run.passes
                if (r := p["result"]) is not None and not p["traced"]] or done
    cold = [c["seconds"] for c in run.cold if c["seconds"] is not None]
    m = {
        "setup_s": (median(run.setups), "s"),
        "wall_s": (median([r["wall_s"] for r in untraced]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in done]), "MB"),
        "cold_start_s": (median(cold), "s"),
    }
    if run.workload == "bounds-sweep":
        d = [r["detail"] for r in untraced]
        lat = [s * 1e3 for x in d for s in x["op_latencies_s"]]
        tail = tail_percentile(lat)
        m["points_per_s"] = (median([x["points"] / x["library_s"] for x in d]), "1/s")
        if lat:  # latencies of successful ops only
            m["op_p50_ms"] = (median(lat), "ms")
        if tail is not None:
            m["op_tail_ms"] = (tail["value"], "ms")
            m["op_tail_percentile"] = (tail["percentile"], "%")
            m["op_tail_samples"] = (tail["samples"], "count")
        m["cli_points_per_s"] = (
            median([x["cli_points"] / x["cli_s"] for x in d if x["cli_s"]]), "1/s")
        m["cli_cold_start_s"] = m["cold_start_s"]
        m["cold_start_launches"] = (len(cold), "count")
    return m


def _span_metric(span: dict) -> tuple[str, float, str]:
    """Metric name, scale from ns and unit of a span's self time."""
    name, n = span["name"], span["attrs"].get("n")
    if n is not None:
        return f"{name}.n{n}_ms", 1e-6, "ms"
    if name.startswith("oracle.verify_"):
        return f"{name}_s", 1e-9, "s"
    return f"{name}_ms", 1e-6, "ms"


def per_layer(run: Run) -> dict:
    done = [(p, p["result"]) for p in run.passes if p["result"] is not None]
    samples: dict[str, list] = {}
    units = {}
    for p, r in done:
        if not p["traced"]:
            continue
        for span, self_ns in zip(r["spans"], self_times_ns(r["spans"])):
            span["self_ns"] = self_ns
            key, scale, unit = _span_metric(span)
            samples.setdefault(key, []).append(self_ns * scale)
            units[key] = unit
    m = {k: (median(v), units[k]) for k, v in samples.items()}
    m["cli.import_s"] = (median(run.import_s), "s")
    ops = [op for _, r in done for op in r["ops"]]
    m["oracle.grid_points"] = (sum(op.get("grid_points", 0) for op in ops), "count")
    m["covert_bounds.points"] = (sum(op.get("points", 0) for op in ops), "count")
    m["covert_bounds.undefined_converse"] = (
        sum(bool(op.get("refused")) for op in ops), "count")
    traced = [r["wall_s"] for p, r in done if p["traced"]]
    plain = [r["wall_s"] for p, r in done if not p["traced"]]
    if traced and plain:
        m["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return m


def provenance(run: Run) -> dict:
    commit = "unavailable"  # a checkout without .git, or no git
    if (run.root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    src_lines = sum(len(f.read_bytes().splitlines()) for f in sorted(run.src.rglob("*.py")))
    env = next((p["result"]["env"] for p in run.passes if p["result"]), {})
    return {"commit": commit, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "blas_threads": BLAS_THREADS, "src_lines": src_lines, **env}


def select(spec: list[dict], computed: dict, default_zero: bool) -> dict:
    """The metrics ``spec`` names, in its order, with their declared units."""
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in computed:
            value, got_unit = computed[name]
            if got_unit != unit:
                raise ValueError(f"{name}: computed in {got_unit}, declared {unit}")
        elif default_zero:
            value = 0.0  # a layer this workload does not reach
        else:
            raise ValueError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "covert_bosonic" / "__init__.py").is_file():
        sys.stderr.write(f"no covert_bosonic sources under {root / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()
    if not any(p["result"] for p in run.passes):
        sys.stderr.write("no pass completed:\n" + "\n".join(run.crashes) + "\n")
        return 3
    attempted, failed, messages = op_counts(run)
    e2e = end_to_end(run)
    layers = per_layer(run) if run.trace else {}
    prov = provenance(run)

    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(f"{args.workload} fail_ratio = {failed / attempted!r} ({failed}/{attempted} ops)")
    for msg in messages:
        print(f"FAILED {msg}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if run.trace:
        metrics = select(spec["per_layer"], layers, default_zero=True)
    else:
        metrics = select(spec["end_to_end"], e2e, default_zero=False)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failures": messages, "provenance": prov, "cold_args": run.cold_args,
              "cold_starts": run.cold, "setup_samples": run.setups,
              "end_to_end": e2e, "per_layer": layers, "passes": run.passes}
    results = run.scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
