"""The repo benchmark: three user jobs, end-to-end and per layer.

Workloads (each a closed loop of one job at a time, every job in a fresh
interpreter, see ``job.py``):

* ``mix-o1`` — one ``Runner.run_mix(O1, "dbp-tcm")``, no store;
* ``campaign-cold`` — a cold 2-worker ``run_campaign`` over M1-M4 x
  {shared-frfcfs, ebp, dbp} into an empty store;
* ``tune-study`` — a cold seeded halving study (``run_study``, ``jobs=1``)
  and a warm re-run of the identical study.

``--trace 0`` repeats jobs for ``--seconds`` and prints the end-to-end
metrics (medians over the jobs): job times in reference units, see
:data:`END_TO_END`, with the absolute seconds beside them. ``--trace 1``
runs one cProfile job for the ``share.*`` layer shares, then pairs of an
untraced and a traced job until ``--seconds`` have passed, and prints the
per-layer metrics. Every job's output digest is checked against
``expected.json``; a mismatch, a failed or quarantined run, a store hit
in a cold pass or a miss in the warm pass counts the job as failed.
``--seed`` picks the simulation seed: even seeds run the default seed,
odd ones the held-out seed.

    python3 perfbench/run.py --workload mix-o1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --record    # rewrite expected.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from job import SIZES, WORKLOADS
from layers import SHARE_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: (default, held-out) simulation seeds; ``--seed`` parity picks one.
SIM_SEEDS = (1, 5)

#: Job times are bounded in reference units (see ``job.reference``): a
#: job's seconds over the seconds of a fixed pure-Python computation run
#: just before and after it. On a shared host both drift together, so
#: the ratio holds still where absolute seconds do not; the seconds are
#: printed beside it.
END_TO_END = {
    "setup_s": "s", "job_ref": "ref", "cpu_ref": "ref",
    "peak_rss_mb": "MB", "sim_kinst_per_ref": "kinst/ref",
}
SECONDS = {"job_s": "s", "cpu_s": "s", "sim_kips": "kinst/s", "ref_s": "s"}
PER_LAYER = {
    "traces.gen_calls": "count", "traces.gen_unique": "count",
    "traces.gen_useful_ratio": "ratio", "traces.gen_s": "s",
    "sim.alone_runs": "count", "sim.alone_unique": "count",
    "sim.alone_useful_ratio": "ratio", "sim.alone_s": "s",
    "sim.shared_runs": "count", "sim.measure_s": "s",
    "sim.engine_events": "count", "sim.events_per_s": "1/s",
    "sim.kcycles_per_s": "kcyc/s",
    "phase.alone_run_s": "s", "phase.measure_s": "s",
    "memctrl.decisions": "count", "memctrl.scans": "count",
    "memctrl.wake_memo_hit_ratio": "ratio",
    "dram.commands": "count", "dram.refreshes": "count",
    "campaign.supervisor_cpu_s": "s", "campaign.worker_cpu_s": "s",
    "campaign.attempts": "count",
    "store.put_calls": "count", "store.put_s": "s",
    "store.bytes_written": "bytes", "store.get_calls": "count",
    "store.hit_ratio": "ratio", "store.warm_pass_s": "s",
    "results.upserts": "count", "results.upsert_s": "s",
    "tuner.trials": "count", "tuner.evaluate_s": "s",
    "tuner.trial_overhead_s": "s",
    **{f"share.{layer}": "ratio" for layer in SHARE_LAYERS},
    "trace.overhead_ratio": "ratio",
    "host.ref_s": "s",
}
#: Per-layer counts that must repeat exactly from job to job.
EXACT = [name for name, unit in PER_LAYER.items() if unit == "count"]
#: On ``campaign-cold`` these counts include every pool worker's own
#: trace generation and alone baselines, so they depend on which worker
#: picks up which run: reported, but not required to repeat there.
DISPATCH_DEPENDENT = {
    "traces.gen_calls", "sim.alone_runs", "sim.engine_events",
    "dram.commands", "dram.refreshes",
}


def exact_counts(workload: str) -> List[str]:
    if workload != "campaign-cold":
        return EXACT
    return [name for name in EXACT if name not in DISPATCH_DEPENDENT]


class Bench:
    """One benchmark invocation: a work directory and the expected digests."""

    def __init__(self, workload: str, sim_seed: int, size: str,
                 expected: Dict[str, object], work: Path) -> None:
        self.workload = workload
        self.sim_seed = sim_seed
        self.size = size
        self.expected = expected
        self.work = work
        self.jobs = 0

    def launch(self, mode: str, deadline: float) -> Dict[str, object]:
        """Run one job in a fresh interpreter; its report plus ``setup_s``."""
        self.jobs += 1
        work = self.work / f"job-{self.jobs}"
        command = [
            sys.executable, str(HERE / "job.py"),
            "--workload", self.workload, "--sim-seed", str(self.sim_seed),
            "--size", self.size, "--mode", mode, "--work", str(work),
        ]
        launched = time.monotonic()
        # A session of its own, so a timeout also stops the pool workers.
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"failure": f"{mode} job timed out"}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return {"failure": f"{mode} job exited {proc.returncode}: "
                               f"{tail[0]}"}
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report["planned_at"] - launched
        report["failure"] = self.check(report)
        return report

    def check(self, report: Dict[str, object]) -> str:
        """Why the job's output is wrong, or ``""`` when it is right."""
        if report["problems"]:
            return "; ".join(report["problems"])
        expected = self.expected.get(self.size, {}).get(
            self.workload, {}).get(str(self.sim_seed))
        if expected is None:
            return f"no expected digest for seed {self.sim_seed}"
        if report["digest"] != expected:
            return "output digest differs from expected.json"
        return ""


def end_to_end(bench: Bench, seconds: float, deadline: float):
    """Jobs for ``seconds``; medians of the end-to-end metrics."""
    reports: List[Dict[str, object]] = []
    started = time.monotonic()
    while not reports or time.monotonic() - started < seconds:
        reports.append(bench.launch("plain", deadline))
        if time.monotonic() + 2 * _median(reports, "job_s", 1.0) > deadline:
            break
    timed = [r for r in reports if "job_s" in r]
    for report in timed:
        report["sim_kips"] = report["insts"] / 1000 / report["job_s"]
    median_of = {name: _median(timed, name) for name in (
        "setup_s", "job_s", "cpu_s", "peak_rss_mb", "insts", "ref_s",
        "ref_cpu_s")}
    if median_of["job_s"] is None:
        return reports, dict.fromkeys(END_TO_END)
    # Ratios of medians, not medians of ratios: one job's two reference
    # samples are too few to tell the host's speed, a run's are enough.
    job_ref = median_of["job_s"] / median_of["ref_s"]
    metrics = {
        "setup_s": median_of["setup_s"],
        "job_ref": job_ref,
        "cpu_ref": median_of["cpu_s"] / median_of["ref_cpu_s"],
        "peak_rss_mb": median_of["peak_rss_mb"],
        "sim_kinst_per_ref": median_of["insts"] / 1000 / job_ref,
    }
    return reports, metrics


def per_layer(bench: Bench, seconds: float, deadline: float):
    """A profiled job, then untraced/traced pairs, for ``seconds``."""
    started = time.monotonic()
    profiled = bench.launch("profile", deadline)
    reports = [profiled]
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    while not traced or time.monotonic() - started < seconds:
        plain.append(bench.launch("plain", deadline))
        traced.append(bench.launch("layers", deadline))
        if time.monotonic() + 3 * _median(plain, "job_s", 1.0) > deadline:
            break
    reports += plain + traced
    layered = [r["layers"] for r in traced if "layers" in r]
    metrics = {
        name: _median(layered, name)
        for name in PER_LAYER if not name.startswith("share.")
    }
    exact = exact_counts(bench.workload)
    for report in traced[1:]:
        if "layers" in report and any(
                report["layers"][n] != layered[0][n] for n in exact):
            report["failure"] = report["failure"] or "layer counts changed"
    shares = profiled.get("layers", {})
    metrics.update({n: shares.get(n) for n in PER_LAYER
                    if n.startswith("share.")})
    if _median(plain, "job_s") and _median(traced, "job_s"):
        metrics["trace.overhead_ratio"] = (
            _median(traced, "job_s") / _median(plain, "job_s"))
    metrics["host.ref_s"] = _median(traced, "ref_s")
    return reports, metrics


def _median(reports, name: str, default=None):
    values = [r[name] for r in reports if r.get(name) is not None]
    return median(values) if values else default


def record(size: str, path: Path) -> int:
    """Run one job per workload and seed; write their digests to ``path``."""
    expected = json.loads(path.read_text()) if path.is_file() else {}
    table = expected.setdefault(size, {})
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_") as tmp:
        for workload in WORKLOADS:
            for seed in SIM_SEEDS:
                bench = Bench(workload, seed, size, {}, Path(tmp))
                report = bench.launch("plain", time.monotonic() + 600)
                if "digest" not in report or report["problems"]:
                    print(f"{workload} seed {seed}: {report['failure']}",
                          file=sys.stderr)
                    return 1
                table.setdefault(workload, {})[str(seed)] = report["digest"]
                print(f"recorded {workload} seed {seed} "
                      f"({report['job_s']:.2f} s)")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expected digests and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args.size, args.expected)
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + 170
    sim_seed = SIM_SEEDS[args.seed % 2]
    expected = json.loads(args.expected.read_text())
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_") as tmp:
        bench = Bench(args.workload, sim_seed, args.size, expected, Path(tmp))
        measure = per_layer if args.trace else end_to_end
        reports, metrics = measure(bench, args.seconds, deadline)
    units = PER_LAYER if args.trace else END_TO_END
    if any(value is None for value in metrics.values()):
        for report in reports:
            print(f"job failed: {report['failure']}", file=sys.stderr)
        return 1

    failed = [r["failure"] for r in reports if r["failure"]]
    kernels = sorted({r["kernel"] for r in reports if "kernel" in r})
    print(f"host nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"platform={platform.platform()} kernel={','.join(kernels)}")
    print(f"workload={args.workload} seed={args.seed} sim_seed={sim_seed} "
          f"size={args.size} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    if not args.trace:
        timed = [r for r in reports if "job_s" in r]
        for name, unit in SECONDS.items():
            print(f"  {name:32s} {_median(timed, name):>16.6g} {unit}"
                  "  (unbounded: host-dependent)")
    print(f"  ops {len(reports)}  ops_failed {len(failed)}")
    for reason in failed:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
