"""Per-layer counters and timers, installed from outside ``repro``.

Nothing here edits ``src/repro``: :class:`LayerRecorder` replaces public
entry points (``Runner.alone_ipc``/``run_apps``, ``System.run``,
``ResultStore.get``/``put``, ``record_trial``,
``CampaignObjective.evaluate``, ``execute`` and ``generate_trace``) with
thin wrappers that count and time the calls, and restores them on
:meth:`LayerRecorder.uninstall`.

Campaign workers are forked after :meth:`install`, so they inherit the
wrappers. A forked process starts its own tally (the inherited one
belongs to the parent) and writes it to ``<out_dir>/layers-<pid>.json``
after each outermost wrapped call; :meth:`totals` merges those files
with the owner's tally. With ``profile=True`` every forked process also
runs cProfile over its outermost wrapped calls and dumps the stats next
to the tally, for :func:`fold_profile`.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: ``share.*`` buckets: packages of ``src/repro`` (``schedulers`` split
#: out of ``memctrl``); other repro modules fold into ``other``, code
#: outside repro (interpreter, stdlib, this benchmark) into ``stdlib``.
SHARE_LAYERS = (
    "sim", "memctrl", "schedulers", "dram", "cpu", "cache", "osmm",
    "mapping", "core", "workloads", "campaign", "results", "tuner",
    "other", "stdlib",
)


class LayerRecorder:
    """Counts, times and key sets per layer, merged across forked workers."""

    def __init__(self, out_dir: Path, profile: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.profile = profile
        self.owner = os.getpid()
        self._patches: List[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.keys: Dict[str, set] = defaultdict(set)
        self.depth = 0
        self.alone_depth = 0
        self.alone_key: tuple = ()
        self.shared_pending = False
        self.profiler: Optional[cProfile.Profile] = None

    # ------------------------------------------------------------------
    def _enter(self) -> None:
        if os.getpid() != self.pid:
            self._reset()  # first call in a forked worker
        if self.depth == 0 and self.profile and self.pid != self.owner:
            self.profiler = self.profiler or cProfile.Profile(
                time.process_time)
            self.profiler.enable()
        self.depth += 1

    def _exit(self) -> None:
        self.depth -= 1
        if self.depth or self.pid == self.owner:
            return
        stem = self.out_dir / f"layers-{self.pid}"
        if self.profiler is not None:
            self.profiler.disable()
            self.profiler.dump_stats(f"{stem}.pstats")
        doc = {
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "keys": {k: sorted(map(list, v)) for k, v in self.keys.items()},
        }
        Path(f"{stem}.json").write_text(json.dumps(doc))

    def _wrap(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            recorder._enter()
            try:
                started = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.counts[name] += 1
                    recorder.seconds[name] += time.perf_counter() - started
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                recorder._exit()

        # Same name and module as the original, so a wrapped function
        # still pickles by reference into pool workers.
        for field in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, field, getattr(original, field, None))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap repro's public entry points; :meth:`uninstall` undoes it."""
        import repro.campaign.api as campaign_api
        import repro.campaign.executor as executor
        import repro.tuner.api as tuner_api
        import repro.tuner.objective as objective
        import repro.workloads as workloads
        from repro.campaign.store import ResultStore
        from repro.metrics.kernelstats import kernel_counter_summary
        from repro.sim.runner import Runner
        from repro.sim.system import System

        rec = self
        original_alone = Runner.alone_ipc

        def alone_ipc(runner, app):
            # What an alone baseline depends on here. The config is left
            # out: the only part the workloads vary is the tuner's
            # migration knobs, which a one-core shared run never uses.
            rec.alone_key = (app, runner.seed, runner.target_insts,
                             runner.horizon)
            rec.alone_depth += 1
            try:
                return original_alone(runner, app)
            finally:
                rec.alone_depth -= 1

        Runner.alone_ipc = alone_ipc
        self._patches.append((Runner, "alone_ipc", original_alone))
        original_run = System.run

        def system_run(system, *args, **kwargs):
            started = time.perf_counter()
            result = original_run(system, *args, **kwargs)
            elapsed = time.perf_counter() - started
            kind = "alone" if rec.alone_depth else "shared"
            rec.counts[f"sim.{kind}_runs"] += 1
            rec.seconds[f"sim.{kind}_s"] += elapsed
            rec.counts["sim.engine_events"] += result.engine_events
            rec.counts["sim.cycles"] += result.horizon
            rec.counts["dram.commands"] += result.total_commands
            rec.counts["dram.refreshes"] += result.total_refreshes
            if kind == "alone":
                rec.keys["sim.alone"].add(rec.alone_key)
            else:
                rec.shared_pending = True
            return result

        System.run = system_run
        self._patches.append((System, "run", original_run))

        def after_run_apps(args, kwargs, result) -> None:
            # Only a run simulated in this call (not a store hit) counts.
            if rec.shared_pending:
                rec.shared_pending = False
                kernel = kernel_counter_summary(result.metrics_snapshot)
                rec.counts["memctrl.decisions"] += kernel["decisions"]
                rec.counts["memctrl.scans"] += kernel["scans"]
                rec.counts["memctrl.wake_hits"] += kernel["wake_memo"]["hits"]
                rec.counts["memctrl.wake_misses"] += (
                    kernel["wake_memo"]["misses"])

        self._wrap(Runner, "run_apps", "runner.run_apps", after_run_apps)

        def after_generate(args, kwargs, trace) -> None:
            # Trace content depends on (profile, seed, target_insts); the
            # trace source always passes the last two by keyword.
            profile = args[0] if args else kwargs["profile"]
            rec.keys["traces.gen"].add((
                profile.name, kwargs.get("seed"), kwargs.get("target_insts"),
            ))

        self._wrap(workloads, "generate_trace", "traces.gen", after_generate)

        def after_get(args, kwargs, hit) -> None:
            rec.counts["store.get_hits"] += hit is not None

        def after_put(args, kwargs, path) -> None:
            rec.counts["store.bytes_written"] += os.path.getsize(path)

        self._wrap(ResultStore, "get", "store.get", after_get)
        self._wrap(ResultStore, "put", "store.put", after_put)
        self._wrap(tuner_api, "record_trial", "results.upsert")
        self._wrap(objective.CampaignObjective, "evaluate", "tuner.evaluate")

        def after_execute(args, kwargs, campaign) -> None:
            rec.counts["campaign.attempts"] += sum(
                o.attempts for o in campaign.outcomes)

        self._wrap(executor, "execute", "campaign.execute", after_execute)
        wrapped_execute = executor.execute
        for module in (campaign_api, objective):
            self._patches.append((module, "execute", module.execute))
            module.execute = wrapped_execute

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, object]:
        """The owner's tally merged with every worker's tally file."""
        counts = Counter(self.counts)
        seconds = Counter(self.seconds)
        keys = {k: set(v) for k, v in self.keys.items()}
        for path in sorted(self.out_dir.glob("layers-*.json")):
            doc = json.loads(path.read_text())
            counts.update(doc["counts"])
            seconds.update(doc["seconds"])
            for name, items in doc["keys"].items():
                keys.setdefault(name, set()).update(map(tuple, items))
        return {"counts": counts, "seconds": seconds, "keys": keys}

    def worker_profiles(self) -> List[str]:
        return [str(p) for p in sorted(self.out_dir.glob("layers-*.pstats"))]


def fold_profile(stats: pstats.Stats, package: Path) -> Dict[str, float]:
    """cProfile self time folded onto :data:`SHARE_LAYERS`, as shares.

    ``package`` is the ``src/repro`` directory the profiled code ran from.
    """
    folded: Dict[str, float] = dict.fromkeys(SHARE_LAYERS, 0.0)
    for (filename, _line, _func), row in stats.stats.items():
        folded[_layer_of(filename, package)] += row[2]  # tottime
    total = sum(folded.values()) or 1.0
    return {layer: value / total for layer, value in folded.items()}


def _layer_of(filename: str, package: Path) -> str:
    try:
        inner = Path(filename).resolve().relative_to(package).parts
    except ValueError:
        return "stdlib"  # includes built-ins, named like "~"
    if len(inner) < 2:
        return "other"  # a top-level module such as repro/config.py
    if inner[:2] == ("memctrl", "schedulers"):
        return "schedulers"
    return inner[0] if inner[0] in SHARE_LAYERS else "other"
