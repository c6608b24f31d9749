"""Experiment runner tests."""

from dataclasses import replace

import pytest

from repro.config import OSConfig
from repro.core.dbp import DBPConfig, DynamicBankPartitioning
from repro.errors import ExperimentError
from repro.sim.runner import Runner, alone_config, clear_memos
from repro.sim.system import System
from repro.telemetry.spans import SpanTracer, install_tracer, uninstall_tracer
from repro.workloads import Mix


@pytest.fixture
def mix():
    return Mix("TEST", ("lbm", "gcc"), "H1L1")


class TestTraceCache:
    def test_traces_cached(self, fast_runner):
        a = fast_runner.trace_for("lbm")
        b = fast_runner.trace_for("lbm")
        assert a is b

    def test_traces_seeded(self, fast_runner):
        assert fast_runner.trace_for("lbm").name == "lbm"

    def test_trace_cache_keyed_by_generator_inputs(self, fast_runner):
        """Mutating seed or target_insts must never serve a stale trace."""
        a = fast_runner.trace_for("lbm")
        fast_runner.seed = 7
        b = fast_runner.trace_for("lbm")
        assert a is not b
        fast_runner.seed = 1
        assert fast_runner.trace_for("lbm") is a
        fast_runner.target_insts = 100_000
        c = fast_runner.trace_for("lbm")
        assert c is not a


def _span_names(run):
    """The complete-span names ``run()`` emits under a fresh tracer."""
    tracer = SpanTracer("test")
    install_tracer(tracer)
    try:
        run()
    finally:
        uninstall_tracer()
    return [e["name"] for e in tracer.events() if e.get("ph") == "X"]


class TestAloneRuns:
    def test_alone_ipc_positive_and_cached(self, fast_runner):
        first = fast_runner.alone_ipc("lbm")
        assert first > 0
        again = []
        names = _span_names(lambda: again.append(fast_runner.alone_ipc("lbm")))
        assert again == [first]
        assert "alone-run" not in names  # served without simulating

    def test_alone_baseline_not_stale_after_horizon_change(self):
        """A baseline measured at one horizon is never served at another."""
        expected = Runner(horizon=60_000, target_insts=200_000).alone_ipc(
            "lbm"
        )
        runner = Runner(horizon=30_000, target_insts=200_000)
        short = runner.alone_ipc("lbm")
        runner.horizon = 60_000
        assert runner.alone_ipc("lbm") == expected
        assert expected != short

    def test_runners_share_traces_and_alone_runs(self, small_config):
        """Runners differing only in migration knobs and horizon share one
        trace generation, and one alone run per (app, horizon), with the
        IPC of an unshared alone run on the un-normalized config."""
        knobs = [
            small_config.osmm,
            replace(
                small_config.osmm,
                migration_mode="budget",
                migration_budget_pages=1,
                migration_lines_per_page=1,
            ),
        ]
        horizons = (20_000, 30_000)
        clear_memos()
        trace = Runner(config=small_config, target_insts=200_000).trace_for(
            "lbm"
        )
        unshared = {}
        for horizon in horizons:
            for osmm in knobs:
                config = replace(small_config, num_cores=1, osmm=osmm)
                system = System(
                    config.with_scheduler("frfcfs"), [trace], horizon=horizon
                )
                unshared[horizon, osmm] = system.run().threads[0].ipc
        clear_memos()
        shared = {}

        def run_all():
            for horizon in horizons:
                for osmm in knobs:
                    runner = Runner(
                        config=replace(small_config, osmm=osmm),
                        horizon=horizon,
                        target_insts=200_000,
                    )
                    shared[horizon, osmm] = runner.alone_ipc("lbm")

        names = _span_names(run_all)
        assert shared == unshared
        assert names.count("trace-gen") == 1
        assert names.count("alone-run") == len(horizons)

    def test_alone_config_is_one_core_frfcfs_default_migration(
        self, small_config
    ):
        config = alone_config(
            replace(
                small_config.with_scheduler("tcm", cluster_fraction=0.3),
                osmm=replace(small_config.osmm, migration_mode="budget"),
            )
        )
        defaults = OSConfig()
        assert config.num_cores == 1
        assert config.controller.scheduler == "frfcfs"
        assert config.controller.scheduler_params == {}
        assert config.osmm.migration_mode == defaults.migration_mode
        assert (
            config.osmm.migration_budget_pages
            == defaults.migration_budget_pages
        )
        assert (
            config.osmm.migration_lines_per_page
            == defaults.migration_lines_per_page
        )
        assert config.organization == small_config.organization

    def test_light_app_faster_alone(self, fast_runner):
        assert fast_runner.alone_ipc("gcc") > fast_runner.alone_ipc("lbm")


class TestRunApps:
    def test_metrics_populated(self, fast_runner, mix):
        result = fast_runner.run_mix(mix, "shared-frfcfs")
        metrics = result.metrics
        assert metrics.mix == "TEST"
        assert metrics.approach == "shared-frfcfs"
        assert metrics.weighted_speedup > 0
        assert metrics.max_slowdown >= 1.0 or metrics.max_slowdown > 0
        assert set(metrics.slowdowns) == {0, 1}
        assert metrics.apps == ("lbm", "gcc")
        assert set(result.alone_ipcs) == {0, 1}
        assert set(result.shared_ipcs) == {0, 1}

    def test_run_cache_reuses_results(self, fast_runner, mix):
        a = fast_runner.run_mix(mix, "shared-frfcfs")
        b = fast_runner.run_mix(mix, "shared-frfcfs")
        assert a is b

    def test_different_approaches_not_conflated(self, fast_runner, mix):
        a = fast_runner.run_mix(mix, "shared-frfcfs")
        b = fast_runner.run_mix(mix, "ebp")
        assert a is not b
        assert b.metrics.approach == "ebp"

    def test_unknown_approach_rejected(self, fast_runner, mix):
        with pytest.raises(Exception):
            fast_runner.run_mix(mix, "nonsense")

    def test_default_mix_name_joins_apps(self, fast_runner):
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        assert result.metrics.mix == "lbm+gcc"


class TestRunCacheKey:
    def test_key_binds_resolved_scheduler(self, fast_runner, monkeypatch):
        """Two registrations sharing a label must not share cache entries."""
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "fcfs")
        )
        key_fcfs = fast_runner.run_cache_key(("lbm", "gcc"), "tmp-x")
        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "frfcfs")
        )
        key_frfcfs = fast_runner.run_cache_key(("lbm", "gcc"), "tmp-x")
        assert key_fcfs != key_frfcfs

    def test_key_binds_scheduler_params(self, fast_runner, monkeypatch):
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES,
            "tmp-x",
            Approach("tmp-x", "shared", "tcm", scheduler_params={"cluster_fraction": 0.2}),
        )
        key_a = fast_runner.run_cache_key(("lbm", "gcc"), "tmp-x")
        monkeypatch.setitem(
            APPROACHES,
            "tmp-x",
            Approach("tmp-x", "shared", "tcm", scheduler_params={"cluster_fraction": 0.4}),
        )
        key_b = fast_runner.run_cache_key(("lbm", "gcc"), "tmp-x")
        assert key_a != key_b

    def test_adopt_result_round_trips(self, fast_runner, mix):
        result = fast_runner.run_mix(mix, "shared-frfcfs")
        assert fast_runner.cached_run(mix.apps, "shared-frfcfs") is result
        fast_runner._run_cache.clear()
        assert fast_runner.cached_run(mix.apps, "shared-frfcfs") is None
        fast_runner.adopt_result(mix.apps, "shared-frfcfs", result)
        assert fast_runner.run_mix(mix, "shared-frfcfs") is result


class TestRunCustom:
    def test_custom_policy_run(self, fast_runner):
        policy = DynamicBankPartitioning(DBPConfig(epoch_cycles=5_000))
        result = fast_runner.run_custom(
            ["lbm", "gcc"], policy, label="dbp-test"
        )
        assert result.metrics.approach == "dbp-test"
        assert result.metrics.weighted_speedup > 0

    def test_custom_scheduler_params(self, fast_runner):
        from repro.baselines import SharedPolicy

        result = fast_runner.run_custom(
            ["lbm", "gcc"],
            SharedPolicy(),
            scheduler="tcm",
            label="tcm-wide",
            cluster_fraction=0.3,
        )
        assert result.metrics.weighted_speedup > 0


class TestValidation:
    def test_bad_horizon_rejected(self, small_config):
        with pytest.raises(ExperimentError):
            Runner(config=small_config, horizon=0)
