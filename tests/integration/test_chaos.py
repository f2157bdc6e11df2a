"""End-to-end chaos engine tests.

Covers the acceptance criteria: zero violations across a 50-seed sweep on
every protocol, a seeded safety bug (minority-accept) caught by the
invariant layer and shrunk to a tiny repro, byte-identical reports for the
same seed, and two scripted fault scenarios (partition + leader crash +
heal; sustained duplication) asserted at the replica level.
"""

from __future__ import annotations

import pytest

from repro.chaos.invariants import check_cluster
from repro.chaos.report import dump_summary, render_report, to_summary
from repro.chaos.runner import (
    PROTOCOLS,
    REGISTER_KEY,
    ChaosOptions,
    build_cluster,
    run_chaos,
    run_with_schedule,
)
from repro.chaos.schedule import EVENT_KINDS, NemesisEvent, NemesisSchedule
from repro.chaos.shrink import shrink
from repro.errors import ReproError


class TestAcceptanceSweep:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fifty_seeds_no_violations(self, protocol):
        options = ChaosOptions(protocol=protocol)
        for seed in range(50):
            result = run_chaos(seed, options)
            assert result.ok, (
                f"{protocol} seed {seed}: "
                f"{[str(v) for v in result.violations]}\n"
                f"{result.schedule.describe()}"
            )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fifty_seeds_with_storage_nemeses(self, protocol):
        # Acceptance: torn writes, lying fsyncs, stalls and rotted records
        # never cost an acknowledged write while a majority of devices
        # stays intact.
        options = ChaosOptions(
            protocol=protocol, fsync="sync", storage_faults=True
        )
        for seed in range(50):
            result = run_chaos(seed, options)
            assert result.ok, (
                f"{protocol} seed {seed}: "
                f"{[str(v) for v in result.violations]}\n"
                f"{result.schedule.describe()}"
            )

    def test_sync_fsync_storage_sweep_stays_clean(self):
        # ``sync`` is the mode where a backup's accept record and its later
        # choose record ride different fsyncs: a crash or torn write between
        # them must never leave a choose without the accept it relies on
        # (``choose`` no longer appends a second accept record).
        options = ChaosOptions(fsync="sync", storage_faults=True)
        for seed in range(30):
            result = run_chaos(seed, options)
            assert result.ok, (
                f"seed {seed}: {[str(v) for v in result.violations]}\n"
                f"{result.schedule.describe()}"
            )

    def test_storage_sweep_exercises_storage_nemeses(self):
        options = ChaosOptions(fsync="sync", storage_faults=True)
        fired = {
            kind: sum(
                run_chaos(seed, options).counters.get(f"fault.{kind}", 0)
                for seed in range(50)
            )
            for kind in ("torn_write", "lost_fsync", "disk_stall", "corrupt_record")
        }
        assert all(count > 0 for count in fired.values()), fired

    def test_skip_fsync_mutation_caught_and_shrinks_small(self):
        # A replica that acks without persisting loses acked writes at its
        # first crash: acked_durability must catch it, and the repro must
        # shrink to a handful of events.
        options = ChaosOptions(mutation="skip-fsync", fsync="sync")
        caught = None
        for seed in range(10):
            result = run_chaos(seed, options)
            if not result.ok:
                caught = result
                break
        assert caught is not None, "skip-fsync never caught in 10 seeds"
        assert any(
            v.invariant == "acked_durability" for v in caught.violations
        )
        outcome = shrink(
            caught.schedule, options, invariant="acked_durability"
        )
        assert outcome.events <= 5

    def test_trials_complete_requests_and_inject_faults(self):
        # The sweep is only meaningful if the workload overlaps the faults.
        options = ChaosOptions(protocol="basic")
        result = run_chaos(0, options)
        assert result.completed_requests == 2 * 12
        assert sum(
            v for k, v in result.counters.items() if k.startswith("fault.")
        ) > 0


class TestMutationDetection:
    def test_minority_accept_caught_by_invariants(self):
        # Seed 3 is a known catcher: its schedule partitions the leader
        # away while traffic is live, so the broken quorum check lets both
        # sides choose different values for the same instance.
        options = ChaosOptions(mutation="minority-accept")
        result = run_chaos(3, options)
        assert not result.ok
        assert any(v.invariant == "log_agreement" for v in result.violations)

    def test_mutation_caught_across_several_seeds(self):
        options = ChaosOptions(mutation="minority-accept")
        caught = [seed for seed in range(40) if not run_chaos(seed, options).ok]
        assert len(caught) >= 3, f"only seeds {caught} caught the mutation"

    def test_failing_schedule_shrinks_to_tiny_repro(self):
        options = ChaosOptions(mutation="minority-accept")
        result = run_chaos(3, options)
        outcome = shrink(result.schedule, options, invariant="log_agreement")
        assert outcome.events <= 5
        assert outcome.events < len(result.schedule)
        # The minimized schedule is *known* failing (it was re-run).
        assert any(
            v.invariant == "log_agreement"
            for v in outcome.result.violations
        )
        script = outcome.schedule.to_script()
        assert "FaultSchedule(cluster)" in script
        for event in outcome.schedule.events:
            assert f"at={event.at}" in script

    def test_shrink_refuses_passing_schedule(self):
        options = ChaosOptions()
        result = run_chaos(0, options)
        assert result.ok
        with pytest.raises(ValueError, match="does not fail"):
            shrink(result.schedule, options)

    def test_shrink_respects_budget(self):
        options = ChaosOptions(mutation="minority-accept")
        result = run_chaos(3, options)
        outcome = shrink(
            result.schedule, options, invariant="log_agreement", budget=5
        )
        assert outcome.trials <= 5


class TestReproScript:
    """The script a report prints is the schedule, not a description of it."""

    @staticmethod
    def run_script(schedule, options):
        """What a human does with the script, then run_with_schedule's run
        + drain."""
        cluster = build_cluster(options, schedule.seed).start()
        exec(schedule.to_script(), {"cluster": cluster})
        try:
            cluster.run(max_time=options.deadline)
            cluster.drain(grace=max(0.5, 1.5 * options.txn_timeout + 0.2))
        except ReproError:
            pass
        return cluster

    @pytest.mark.parametrize("protocol", ["basic", "tpaxos"])
    def test_script_replays_the_compiled_schedule(self, protocol):
        options = ChaosOptions(
            protocol=protocol, fsync="sync", storage_faults=True, groups=2
        )

        def faults(counters):
            return {k: v for k, v in counters.items() if k.startswith("fault.")}

        seen: set[str] = set()
        for seed in range(12):
            compiled = run_chaos(seed, options)
            seen.update(event.kind for event in compiled.schedule.events)
            cluster = self.run_script(compiled.schedule, options)
            assert cluster.kernel.now == compiled.sim_time, f"seed {seed}"
            assert (
                sum(c.completed_requests for c in cluster.clients)
                == compiled.completed_requests
            ), f"seed {seed}"
            assert faults(cluster.metrics.counters()) == faults(
                compiled.counters
            ), f"seed {seed}"
        assert seen == set(EVENT_KINDS)

    def test_shrunk_script_reproduces_the_violation(self):
        options = ChaosOptions(mutation="minority-accept")
        outcome = shrink(
            run_chaos(3, options).schedule, options, invariant="log_agreement"
        )
        # The shrinker also reduced clients, requests and horizon.
        cluster = self.run_script(outcome.schedule, outcome.options)
        violations = check_cluster(
            cluster,
            register_key=REGISTER_KEY,
            register_initial=None,
            liveness_deadline=outcome.options.deadline,
        )
        assert any(v.invariant == "log_agreement" for v in violations)


class TestDeterminism:
    def sweep(self):
        options = ChaosOptions(mutation="minority-accept")
        results = [run_chaos(seed, options) for seed in range(5)]
        outcomes = [
            shrink(r.schedule, options, budget=40)
            for r in results
            if not r.ok
        ]
        return results, outcomes

    def test_summary_and_report_byte_identical(self):
        first_results, first_outcomes = self.sweep()
        second_results, second_outcomes = self.sweep()
        assert [r.to_dict() for r in first_results] == [
            r.to_dict() for r in second_results
        ]
        assert dump_summary(
            to_summary(first_results, first_outcomes)
        ) == dump_summary(to_summary(second_results, second_outcomes))
        assert render_report(first_results, first_outcomes) == render_report(
            second_results, second_outcomes
        )

    def test_violating_seed_gets_a_dossier(self):
        results, outcomes = self.sweep()
        report = render_report(results, outcomes)
        assert "violation(s)" in report
        assert "runnable repro script:" in report
        assert "schedule.partition(" in report or "schedule.crash(" in report
        summary = to_summary(results, outcomes)
        assert summary["violating"] >= 1
        assert "log_agreement" in summary["violations_by_invariant"]
        assert summary["shrunk"][0]["events"] <= 5


class TestScriptedScenarios:
    def test_partition_leader_exile_crash_heal_recovers(self):
        """Partition the leader into a minority, elect a new one on the
        majority side, heal, crash the new leader, recover it: clients
        must finish and every replica must converge on one log."""
        events = (
            NemesisEvent(0.10, "partition", groups=(("r0",), ("r1", "r2"))),
            NemesisEvent(0.12, "leader", pids=("r1",), scope=("r1", "r2")),
            NemesisEvent(0.60, "heal"),
            NemesisEvent(0.70, "crash", pids=("r1",)),
            NemesisEvent(0.72, "leader", pids=("r2",)),
            NemesisEvent(1.00, "recover", pids=("r1",)),
        )
        schedule = NemesisSchedule(seed=5, horizon=1.2, events=events)
        options = ChaosOptions(protocol="basic", horizon=1.2)
        result = run_with_schedule(schedule, options, keep_cluster=True)
        assert result.ok, [str(v) for v in result.violations]
        cluster = result.cluster
        assert all(client.done for client in cluster.clients)
        assert result.counters["fault.crash"] == 1
        assert result.counters["fault.partition"] == 1
        # Every replica (including the crashed-and-recovered ex-leader r1)
        # converged on the same committed log: same frontier, same values.
        logs = {
            pid: replica.log.chosen_items()
            for pid, replica in cluster.group_replicas().items()
        }
        reference = logs["r2"]
        assert len(reference) == result.completed_requests
        assert logs["r0"] == reference
        assert logs["r1"] == reference

    def test_sustained_duplication_never_double_applies(self):
        """Under a run-long duplication burst, retransmit dedup and the
        executed-table must keep every request in exactly one instance."""
        events = (
            NemesisEvent(0.0, "dup_burst", value=0.8, duration=2.0),
        )
        schedule = NemesisSchedule(seed=11, horizon=2.0, events=events)
        options = ChaosOptions(protocol="basic")
        result = run_with_schedule(schedule, options, keep_cluster=True)
        assert result.ok, [str(v) for v in result.violations]
        # The burst really duplicated traffic (Accepts, Accepteds, ...).
        assert result.counters["net.dup"] > 0
        # Belt and braces on top of the at_most_once invariant: each rid
        # appears exactly once across the chosen log.
        cluster = result.cluster
        log = cluster.group_replicas()["r0"].log.chosen_items()
        rids = [
            str(request.rid)
            for _instance, proposal in log
            for request in proposal.requests
        ]
        assert len(rids) == len(set(rids))
        assert len(log) == result.completed_requests
