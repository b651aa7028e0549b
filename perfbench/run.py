"""The repository's benchmark: three ``stmfg`` workloads on synthetic tissue.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are generated from ``--seed``
with ``stmfg synth`` before any timing starts; each workload then runs as a
fresh ``python -m stmfg ...`` child (through ``perfbench/child.py``, which
adds timing hooks from outside), one child at a time, with BLAS pinned to
one thread. Every child's outputs are checked; a failed child's timings are
left out of the medians.

``--trace 0`` makes set-up probes (children stopped at the first entry into
``train()``; at least two, for at least 3 s), then repeats the whole command
until ``--seconds`` have passed, and prints the end-to-end metrics named in
``BENCHMARK.json``.
``--trace 1`` runs the command once untraced and once traced, requires the
traced run's deterministic artifacts to match the untraced run byte for
byte, and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CheckFailed, check_ablate, check_run, deterministic_artifacts  # noqa: E402
from layers import per_layer  # noqa: E402

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
# Set-up probes: at least two, and for at least this long, so that a
# sub-second set-up is sampled several times.
SETUP_PROBE_S = 3.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAIRWISE_MS = ("losses.contrastive_ms", "losses.spatial_reg_ms")
ZINB_MS = ("model.decode_ms", "losses.zinb_ms")


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "ablate"
    n_side: int
    genes: int
    epochs: int  # chosen on an ARI plateau, see plateau.jsonl


WORKLOADS = {
    "run2500_g200": Workload("run", 50, 200, 12),
    "run900_g3000": Workload("run", 30, 3000, 20),
    "ablate900_g200": Workload("ablate", 30, 200, 16),
}


@dataclass
class Child:
    """One finished child run."""
    code: int
    spawned_at: float
    wall_s: float
    report: dict | None
    out: Path
    error: str = ""
    scores: dict = field(default_factory=dict)

    @property
    def trainings(self) -> list[list]:
        return [s for s in self.report["spans"] if s[0] == "training.train"]

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.error

    @property
    def problem(self) -> str:
        return f"{self.out.name}: {self.error or f'exit {self.code}'}"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    mem_total = "unknown"
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "mem_total": mem_total,
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def stmfg_args(wl: Workload, data: Path, out: Path) -> list[str]:
    """The command on the generated files; training keeps the default seed
    (0), so the benchmark seed varies the data only."""
    args = [wl.command, "--expression", str(data / "expression.csv"),
            "--coords", str(data / "coords.csv"), "--labels", str(data / "labels.csv"),
            "--out", str(out), "--epochs", str(wl.epochs)]
    return (args + ["--seeds", "0"]) if wl.command == "ablate" else args


class Runner:
    """Starts the children of one benchmark run, one at a time, in ``work``."""

    def __init__(self, root: Path, work: Path, name: str, seed: int, started: float):
        self.root, self.work, self.name, self.seed = root, work, name, seed
        self.wl = WORKLOADS[name]
        self.deadline = started + DEADLINE_S
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def _spawn(self, argv: list[str], tag: str) -> tuple[int, float, float]:
        log = self.work / f"{tag}.log"
        with log.open("wb") as fh:
            started = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = -9
            finally:
                if proc.poll() is None:  # timed out or interrupted
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - started
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print(f"{tag}: exit {code}: " + " | ".join(tail), file=sys.stderr)
        return code, started, wall

    def synth(self) -> Path | None:
        """Write the workload's inputs from the seed (not timed)."""
        data = self.work / "data"
        code, _, _ = self._spawn(
            [sys.executable, "-m", "stmfg", "synth", "--out", str(data),
             "--n-side", str(self.wl.n_side), "--domains", "5",
             "--genes", str(self.wl.genes), "--seed", str(self.seed), "--dropout", "0.3"],
            "synth")
        return data if code == 0 else None

    def child(self, mode: str, data: Path) -> Child:
        self.count += 1
        tag = f"{mode}{self.count}"
        out = self.work / tag
        report = self.work / f"{tag}.json"
        argv = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--report", str(report),
                "--", *stmfg_args(self.wl, data, out)]
        code, spawned_at, wall = self._spawn(argv, tag)
        ok_exit = code == 0 and report.is_file()
        loaded = json.loads(report.read_text(encoding="utf-8")) if ok_exit else None
        run = Child(code, spawned_at, wall, loaded, out)
        if code == 0 and loaded is None:
            run.error = "no report"
        elif code == 0 and not run.trainings:
            run.error = "train() was never entered"
        elif code == 0 and mode != "setup":
            try:
                if self.wl.command == "run":
                    run.scores = check_run(out, data, self.wl.epochs)
                else:
                    run.scores = check_ablate(out)
            except CheckFailed as exc:
                run.error = str(exc)
            except (ValueError, IndexError, KeyError) as exc:  # rows of the wrong shape
                run.error = f"malformed output: {exc!r}"
        return run


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile of ``values`` with at least ten values above it:
    the (n-10)-th smallest, at percentile 100 (n-10)/n. Below 20 values that
    percentile would fall under the median, so the median is returned."""
    n = len(values)
    if n < 20:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def measured(runner: Runner, data: Path, seconds: float) -> tuple[dict, int, list[str]]:
    """End-to-end metrics: set-up probes, then the whole command repeated
    until ``seconds`` have passed. Failed children are left out."""
    began = time.monotonic()
    probes = []
    while len(probes) < 2 or time.monotonic() - began < SETUP_PROBE_S:
        probes.append(runner.child("setup", data))
    runs = [runner.child("mark", data)]
    while time.monotonic() - began < seconds and \
            time.monotonic() + 1.5 * runs[-1].wall_s < runner.deadline:
        runs.append(runner.child("mark", data))
    attempted = len(probes) + len(runs)
    problems = [r.problem for r in probes + runs if not r.ok]
    ok = [r for r in runs if r.ok]
    if not ok:
        return {}, attempted, problems

    setups = [r.trainings[0][2] - r.spawned_at for r in probes + runs if r.ok]
    epochs = [s for r in ok for t in r.trainings for s in t[5]["epoch_s"]]
    tail, pct = tail_percentile(epochs)
    print(f"epoch_ms_tail is p{pct:.1f} of {len(epochs)} epochs; setup_s is the median of "
          f"{len(setups)} set-ups; {len(ok)} of {len(runs)} full runs passed their checks")
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.wall_s for r in ok),
        "train_s": statistics.median(sum(t[3] - t[2] for t in r.trainings) for r in ok),
        "epoch_ms_p50": 1000.0 * statistics.median(epochs),
        "epoch_ms_tail": 1000.0 * tail,
        "peak_rss_mib": statistics.median(r.report["maxrss_kib"] / 1024.0 for r in ok),
        "ari": statistics.median(r.scores["ari"] for r in ok),
        "nmi": statistics.median(r.scores["nmi"] for r in ok),
        "ok_rate": 1.0 - len(problems) / attempted,
    }, attempted, problems


def check_counts_repeat(runner: Runner, exact: dict) -> str:
    """Compare this run's exact counts with those an earlier traced run of
    the same code, workload and seed stored in the checkout."""
    digest = hashlib.sha256()
    for path in sorted((runner.root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    store = runner.root / ".perfbench" / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{runner.name}-seed{runner.seed}-{digest.hexdigest()[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        return "" if before == exact else f"exact counts changed between runs: {before} vs {exact}"
    path.write_text(json.dumps(exact, sort_keys=True), encoding="utf-8")
    return ""


def traced(runner: Runner, data: Path) -> tuple[dict, int, list[str]]:
    """Per-layer metrics from one traced run, checked against an untraced
    run of the same inputs."""
    plain = runner.child("mark", data)
    trace = runner.child("trace", data)
    problems = [r.problem for r in (plain, trace) if not r.ok]
    if problems:
        return {}, 2, problems
    faults = []  # all count against the traced run
    if deterministic_artifacts(plain.out) != deterministic_artifacts(trace.out):
        faults.append("traced artifacts differ from the untraced run")
    if [t[5]["loss_sha"] + t[5]["emb_sha"] for t in plain.trainings] != \
            [t[5]["loss_sha"] + t[5]["emb_sha"] for t in trace.trainings]:
        faults.append("traced loss tables or embeddings differ from the untraced run")
    try:
        metrics, exact = per_layer(trace.report["spans"], trace.spawned_at)
    except ValueError as exc:
        return {}, 2, [f"{trace.out.name}: " + "; ".join(faults + [str(exc)])]
    metrics["trace.overhead_s"] = trace.wall_s - plain.wall_s
    faults.append(check_counts_repeat(runner, exact))
    faults = [fault for fault in faults if fault]
    problems = [f"{trace.out.name}: " + "; ".join(faults)] if faults else []
    pairwise = sum(metrics[m] for m in PAIRWISE_MS)
    zinb = sum(metrics[m] for m in ZINB_MS)
    print(f"stage split: pairwise {pairwise:.1f} ms, decode+zinb {zinb:.1f} ms per epoch")
    return metrics, 2, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Termination unwinds like an exception, so the running child is killed
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "stmfg" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of an stmfg source checkout (src/stmfg and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))

    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, args.workload, args.seed, started)
    try:
        data = runner.synth()
        if data is None:
            values, attempted, problems = {}, 1, ["stmfg synth failed"]
        elif args.trace:
            values, attempted, problems = traced(runner, data)
        else:
            values, attempted, problems = measured(runner, data, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    correct = not problems and bool(values)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
