"""One benchmark job in a fresh interpreter: plan, run, report as JSON.

``run.py`` launches this script once per job, so every job starts cold:
no warm ``Runner`` caches, no pool workers left from an earlier job.
The last line of standard output is one JSON object with the job's
timings, its output digest and, in ``layers``/``profile`` mode, the
per-layer metrics.

    python3 perfbench/job.py --workload mix-o1 --sim-seed 1 \\
        --size full --mode plain --work .perfbench_work/job
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "fast"

#: Job sizes. ``full`` is what the benchmark measures; ``tiny`` keeps the
#: self-test fast.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "mix-o1": {"horizon": 150_000},
        "campaign-cold": {
            "mixes": ("M1", "M2", "M3", "M4"),
            "approaches": ("shared-frfcfs", "ebp", "dbp"),
            "horizon": 50_000,
        },
        "tune-study": {"mixes": ("M4", "M7"), "budget": 8,
                       "horizon": 100_000},
    },
    "tiny": {
        "mix-o1": {"horizon": 20_000},
        "campaign-cold": {
            "mixes": ("M1", "M4"),
            "approaches": ("shared-frfcfs", "dbp"),
            "horizon": 20_000,
        },
        "tune-study": {"mixes": ("M4",), "budget": 3, "horizon": 20_000},
    },
}
WORKLOADS = tuple(SIZES["full"])
#: Events of the reference computation (about a quarter second).
REF_STEPS = 400_000


class _RefNode:
    __slots__ = ("due", "fired")

    def __init__(self, due: int) -> None:
        self.due = due
        self.fired = 0

    def fire(self, now: int) -> int:
        self.fired += 1
        self.due = now + 1 + (self.fired * 37) % 61
        return self.due


def reference() -> Tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python computation.

    A tiny event loop (a heap agenda, method calls on slotted objects,
    dict updates), shaped like the simulator's but sharing no repro code:
    its time tracks how fast this host runs such Python at the moment,
    which on a shared host drifts by tens of percent within minutes. The
    collector is off so the program's heap size cannot change it.
    """
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        nodes = [_RefNode(i) for i in range(64)]
        agenda = [(node.due, i) for i, node in enumerate(nodes)]
        heapq.heapify(agenda)
        totals: Dict[int, int] = {}
        for _ in range(REF_STEPS):
            now, i = heapq.heappop(agenda)
            due = nodes[i].fire(now)
            totals[i & 15] = totals.get(i & 15, 0) + due - now
            heapq.heappush(agenda, (due, i))
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()


def isolate(work: Path) -> None:
    """Pin the kernel and keep every file this job writes under ``work``.

    Runs before ``repro`` is imported: no ``REPRO_*`` variable from the
    caller's environment (store, fault plan, trace library, kernel) can
    change what is measured.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_KERNEL"] = KERNEL
    os.environ["REPRO_TRACE_LIBRARY"] = str(work / "traces")
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Output digests: what a job computed, compared exactly with expected.json.
# ---------------------------------------------------------------------------
def run_digest(result) -> Dict[str, object]:
    summary = result.metrics.summary
    return {
        "ws": summary.weighted_speedup,
        "ms": summary.max_slowdown,
        "hs": summary.harmonic_speedup,
        "ipc": [result.shared_ipcs[t] for t in sorted(result.shared_ipcs)],
        "engine_events": result.system.engine_events,
        "total_commands": result.system.total_commands,
    }


def useful_insts(results: Iterable) -> int:
    """Instructions retired by each shared run plus each distinct alone
    baseline once: the simulated work a job's results rest on."""
    shared = 0
    alone: Dict[tuple, int] = {}
    for result in results:
        horizon = result.system.horizon
        shared += sum(t.retired_insts for t in result.system.threads.values())
        for thread, ipc in result.alone_ipcs.items():
            app = result.metrics.apps[thread]
            alone[(app, horizon)] = round(ipc * horizon)
    return shared + sum(alone.values())


# ---------------------------------------------------------------------------
# Workloads. plan_* builds everything a job needs (its set-up) and returns
# the job: a callable that runs it and returns ``check``, which is called
# after timing and returns (digest, problems, insts, extra layer metrics).
# ---------------------------------------------------------------------------
def plan_mix_o1(size: dict, seed: int, work: Path, traced: bool) -> Callable:
    from repro.sim.runner import Runner
    from repro.workloads import get_mix

    runner = Runner(horizon=size["horizon"], seed=seed, kernel=KERNEL)
    mix = get_mix("O1")

    def job():
        result = runner.run_mix(mix, "dbp-tcm")
        return lambda: (run_digest(result), [], useful_insts([result]), {})

    return job


def plan_campaign_cold(size: dict, seed: int, work: Path,
                       traced: bool) -> Callable:
    from repro.campaign import CampaignSpec, ResultStore, run_campaign

    plan = CampaignSpec(
        name="perfbench",
        mixes=size["mixes"],
        approaches=size["approaches"],
        seeds=(seed,),
        horizons=(size["horizon"],),
    ).plan()
    store = ResultStore(work / "store")
    spans = str(work / "spans.json") if traced else None

    def job():
        campaign = run_campaign(plan, jobs=2, store=store, spans=spans)

        def check():
            problems = [
                f"{o.spec.label}: {o.status} {o.error}".strip()
                for o in campaign.outcomes
                if o.status != "ok"  # a cold pass must simulate every run
            ]
            ok = [o for o in campaign.outcomes if o.result is not None]
            digest = {
                o.spec.label: {**run_digest(o.result), "key": o.spec.key()}
                for o in ok
            }
            return digest, problems, useful_insts(o.result for o in ok), {}

        return check

    return job


def plan_tune_study(size: dict, seed: int, work: Path,
                    traced: bool) -> Callable:
    from repro.campaign import ResultStore
    from repro.results.db import ResultIndex, index_path_for
    from repro.tuner import run_study

    store = ResultStore(work / "store")

    def study(index):
        return run_study(
            approach="dbp", strategy="halving", budget=size["budget"],
            seed=seed, mixes=size["mixes"], horizon=size["horizon"],
            store=store, index=index,
        )

    def job():
        with ResultIndex(index_path_for(store.root)) as index:
            cold = study(index)
            started = time.perf_counter()
            warm = study(index)
            warm_s = time.perf_counter() - started

        def check():
            problems = [
                f"trial {t.point.trial_id}: {t.error}"
                for t in cold.trials + warm.trials
                if t.status != "ok"
            ]
            if cold.cache_hits:
                problems.append(f"cold pass read {cold.cache_hits} store hits")
            if warm.cache_hit_rate != 1.0:
                problems.append(
                    f"warm hit rate {warm.cache_hit_rate:.3f} < 1")
            rows = [[t.point.trial_id, t.approach, t.horizon, t.score]
                    for t in cold.trials]
            if rows != [[t.point.trial_id, t.approach, t.horizon, t.score]
                        for t in warm.trials]:
                problems.append("warm re-run scored differently from cold")
            runs = {}
            for key, _path in store.iter_blobs():
                hit = store.get(key)
                if hit is not None:
                    runs[key] = hit[0]
            digest = {
                "trials": rows,
                "runs": {k: run_digest(r) for k, r in sorted(runs.items())},
            }
            return (digest, problems, useful_insts(runs.values()),
                    {"store.warm_pass_s": warm_s})

        return check

    return job


PLANS = {
    "mix-o1": plan_mix_o1,
    "campaign-cold": plan_campaign_cold,
    "tune-study": plan_tune_study,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from a LayerRecorder tally.
# ---------------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Dict[str, object], spans: List[dict],
                  cpu_self: float, cpu_children: float) -> Dict[str, float]:
    c, s, keys = totals["counts"], totals["seconds"], totals["keys"]
    sim_s = s["sim.alone_s"] + s["sim.shared_s"]
    gen_unique = len(keys.get("traces.gen", ()))
    alone_unique = len(keys.get("sim.alone", ()))
    wake = c["memctrl.wake_hits"] + c["memctrl.wake_misses"]
    phase = {"alone-run": 0.0, "measure": 0.0}
    for event in spans:
        if event.get("ph") == "X" and event.get("name") in phase:
            phase[event["name"]] += event["dur"] / 1e6
    trials = c["tuner.evaluate"]
    return {
        "traces.gen_calls": c["traces.gen"],
        "traces.gen_unique": gen_unique,
        "traces.gen_useful_ratio": _ratio(gen_unique, c["traces.gen"]),
        "traces.gen_s": s["traces.gen"],
        "sim.alone_runs": c["sim.alone_runs"],
        "sim.alone_unique": alone_unique,
        "sim.alone_useful_ratio": _ratio(alone_unique, c["sim.alone_runs"]),
        "sim.alone_s": s["sim.alone_s"],
        "sim.shared_runs": c["sim.shared_runs"],
        "sim.measure_s": s["sim.shared_s"],
        "sim.engine_events": c["sim.engine_events"],
        "sim.events_per_s": _ratio(c["sim.engine_events"], sim_s),
        "sim.kcycles_per_s": _ratio(c["sim.cycles"], sim_s) / 1000,
        "phase.alone_run_s": phase["alone-run"],
        "phase.measure_s": phase["measure"],
        "memctrl.decisions": c["memctrl.decisions"],
        "memctrl.scans": c["memctrl.scans"],
        "memctrl.wake_memo_hit_ratio": _ratio(c["memctrl.wake_hits"], wake),
        "dram.commands": c["dram.commands"],
        "dram.refreshes": c["dram.refreshes"],
        "campaign.supervisor_cpu_s": cpu_self,
        "campaign.worker_cpu_s": cpu_children,
        "campaign.attempts": c["campaign.attempts"],
        "store.put_calls": c["store.put"],
        "store.put_s": s["store.put"],
        "store.bytes_written": c["store.bytes_written"],
        "store.get_calls": c["store.get"],
        "store.hit_ratio": _ratio(c["store.get_hits"], c["store.get"]),
        "results.upserts": c["results.upsert"],
        "results.upsert_s": s["results.upsert"],
        "tuner.trials": trials,
        "tuner.evaluate_s": s["tuner.evaluate"],
        "tuner.trial_overhead_s": (
            s["tuner.evaluate"] - s["runner.run_apps"] if trials else 0.0
        ),
    }


def _cpu() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--mode", choices=("plain", "layers", "profile"),
                        default="plain")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    isolate(work)

    from repro.sim.system import resolve_kernel
    from repro.telemetry.spans import (
        SpanTracer, install_tracer, load_trace_file,
    )

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import LayerRecorder, fold_profile

    traced = args.mode != "plain"
    recorder = None
    if traced:
        recorder = LayerRecorder(work, profile=args.mode == "profile")
        recorder.install()
    job = PLANS[args.workload](
        SIZES[args.size][args.workload], args.sim_seed, work, traced
    )
    planned_at = time.monotonic()

    tracer = profiler = None
    in_process = args.workload != "campaign-cold"
    if traced and in_process:
        tracer = SpanTracer("perfbench")
        install_tracer(tracer)
    if args.mode == "profile":
        profiler = cProfile.Profile(time.process_time)
    ref_before = reference()
    cpu_before = _cpu()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    check = job()
    if profiler is not None:
        profiler.disable()
    job_s = time.perf_counter() - started
    cpu_after = _cpu()
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ref_after = reference()

    doc = {
        "planned_at": planned_at,
        "job_s": job_s,
        "cpu_s": sum(cpu_after) - sum(cpu_before),
        # The reference just before and just after the job.
        "ref_s": (ref_before[0] + ref_after[0]) / 2,
        "ref_cpu_s": (ref_before[1] + ref_after[1]) / 2,
        "peak_rss_mb": max(me, kids) / 1024,  # ru_maxrss is KiB on Linux
        "kernel": resolve_kernel(None),
    }
    if recorder is not None:
        recorder.uninstall()  # check() reads the store unobserved
        install_tracer(None)
    digest, problems, insts, extra = check()
    if recorder is not None:
        spans = (
            tracer.events() if tracer is not None
            else load_trace_file(str(work / "spans.json"))["traceEvents"]
        )
        layers = layer_metrics(
            recorder.totals(), spans,
            cpu_after[0] - cpu_before[0], cpu_after[1] - cpu_before[1],
        )
        layers["store.warm_pass_s"] = extra.get("store.warm_pass_s", 0.0)
        if profiler is not None:
            stats = pstats.Stats(profiler)
            for path in recorder.worker_profiles():
                stats.add(path)
            layers.update(
                {f"share.{k}": v for k, v in
                 fold_profile(stats, ROOT / "src" / "repro").items()}
            )
        doc["layers"] = layers
    doc.update(digest=digest, problems=problems, insts=insts)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
