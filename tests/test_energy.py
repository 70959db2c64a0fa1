"""Tests for the virtual-RAPL energy observatory.

Covers the domain meters (machine layer), the reconstructed power(t)
timeline, the attribution ledger's conservation invariants over
Fig. 4/5-style scenarios, the budget SLO watcher and its CLI exit-code
contract, the bench gate's energy columns, and the byte-identical
guarantee (reading the meters never perturbs a seeded run).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import InvocationRecord
from repro.core.scenario import Phase, Scenario
from repro.core.trace import trace_from_csv, trace_to_csv
from repro.gcc.flags import standard_levels
from repro.machine.openmp import BindingPolicy
from repro.machine.power import (
    COMPONENT_DOMAINS,
    DOMAINS,
    PowerModel,
    invocation_energy,
)
from repro.machine.topology import default_machine
from repro.polybench.workload import profile_kernel
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    maximize_throughput,
    maximize_throughput_per_watt_squared,
    minimize_time,
)
from repro.obs import Observability
from repro.obs.energy import (
    CONSERVATION_TOL,
    EnergyBudget,
    EnergyLedger,
    LedgerConservationError,
    build_timeline,
    check_budgets,
)
from repro.obs.validate import validate_energy_ledger, validate_file

# -- shared quick workload ----------------------------------------------------


@pytest.fixture(scope="module")
def quick_flow():
    from repro.core.toolflow import SocratesToolflow

    return SocratesToolflow(dse_repetitions=1, thread_counts=[1, 2, 4])


@pytest.fixture(scope="module")
def fig5_run(quick_flow):
    """A built adaptive mvt plus 1.5 virtual seconds of the fig5 flip."""
    from repro.polybench.suite import load

    result = quick_flow.build(load("mvt"))
    app = result.adaptive
    app.add_state(
        OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
        activate=True,
    )
    app.add_state(OptimizationState("Throughput", rank=maximize_throughput()))
    scenario = Scenario(
        phases=[Phase(0.0, "Thr/W^2"), Phase(0.5, "Throughput"), Phase(1.0, "Thr/W^2")],
        duration_s=1.5,
    )
    records = scenario.run(app)
    return result, app, records


@pytest.fixture(scope="module")
def fig4_run(quick_flow):
    """A Fig. 4-style run: minimize time under a stepped power budget."""
    from repro.polybench.suite import load

    result = quick_flow.build(load("mvt"))
    app = result.adaptive
    goal = Goal("power", ComparisonFunction.LESS_OR_EQUAL, 45.0)
    state = OptimizationState("budget", rank=minimize_time())
    state.add_constraint(Constraint(goal))
    app.add_state(state, activate=True)
    records = []
    for budget in (45.0, 90.0, 140.0):
        goal.value = budget
        records.extend(app.run_for(0.3))
    return result, app, records


# -- domain meters (machine layer) --------------------------------------------


class TestDomainMeters:
    def test_idle_breakdown_closure(self, executor):
        breakdown = executor.idle_breakdown()
        totals = breakdown.totals()
        assert set(totals) == set(DOMAINS)
        assert totals["dram"] == 0.0
        assert totals["package"] == pytest.approx(
            sum(totals[d] for d in COMPONENT_DOMAINS), abs=1e-12
        )
        model = PowerModel()
        machine = default_machine()
        assert totals["package"] == pytest.approx(model.idle_power(machine))

    def test_active_breakdown_matches_aggregate(self, executor, compiler, omp, two_mm):
        """The acceptance bound: per-domain sums match package power
        (and thus per-domain energy sums match energy_j) within 1e-9."""
        profile = profile_kernel(two_mm)
        for config in standard_levels():
            kernel = compiler.compile(profile, config)
            for threads in (1, 2, 7, 16, 32):
                for binding in (BindingPolicy.CLOSE, BindingPolicy.SPREAD):
                    placement = omp.place(threads, binding)
                    truth = executor.evaluate(kernel, placement)
                    breakdown = executor.breakdown(kernel, placement)
                    assert abs(breakdown.package_w - truth.power_w) <= 1e-9
                    totals = breakdown.totals()
                    assert abs(
                        sum(totals[d] for d in COMPONENT_DOMAINS)
                        - totals["package"]
                    ) <= 1e-9

    def test_breakdown_per_socket_attribution(self, executor, compiler, omp, two_mm):
        """Spread placements draw power on both sockets, close on one."""
        kernel = compiler.compile(profile_kernel(two_mm), standard_levels()[-1])
        close = executor.breakdown(kernel, omp.place(4, BindingPolicy.CLOSE))
        spread = executor.breakdown(kernel, omp.place(4, BindingPolicy.SPREAD))
        assert len(close.sockets) == len(spread.sockets) == 2
        # close keeps all busy cores (and all DRAM traffic) on socket 0
        assert close.sockets[1].dram_w == 0.0
        assert spread.sockets[1].dram_w > 0.0

    def test_scaled_breakdown(self, executor, compiler, omp, two_mm):
        kernel = compiler.compile(profile_kernel(two_mm), standard_levels()[0])
        breakdown = executor.breakdown(kernel, omp.place(4, BindingPolicy.CLOSE))
        scaled = breakdown.scaled(0.5)
        assert scaled.package_w == pytest.approx(breakdown.package_w * 0.5)
        for domain in DOMAINS:
            assert scaled.domain(domain) == pytest.approx(
                breakdown.domain(domain) * 0.5
            )

    def test_invocation_energy_helper(self):
        assert invocation_energy(2.0, 50.0) == 100.0
        assert invocation_energy(0.0, 50.0) == 0.0


# -- timeline reconstruction --------------------------------------------------


class TestTimeline:
    def test_active_segments_tile_the_trace(self, fig5_run):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        active = [s for s in timeline.samples if s.kind == "active"]
        assert len(active) == len(records)
        for sample, record in zip(active, records):
            assert sample.end_s == pytest.approx(record.timestamp, abs=1e-12)
            assert sample.duration_s == pytest.approx(record.time_s, abs=1e-12)

    def test_package_energy_matches_trace_exactly(self, fig5_run):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        trace_j = sum(r.energy_j for r in records)
        totals = timeline.totals_j()
        assert abs(totals["package"] - trace_j) <= CONSERVATION_TOL * max(
            1.0, trace_j
        )
        assert abs(
            sum(totals[d] for d in COMPONENT_DOMAINS) - totals["package"]
        ) <= CONSERVATION_TOL * max(1.0, totals["package"])

    def test_idle_gaps_filled_with_floor(self, fig5_run):
        _, app, _ = fig5_run
        # two synthetic invocations with a 0.5s hole between them
        compiler_label, binding = next(iter(app.versions))
        idle = app.executor.idle_breakdown().totals()
        gap_records = [
            InvocationRecord(
                timestamp=end, state="s", compiler=compiler_label,
                threads=1, binding=binding, time_s=1.0,
                power_w=10.0, energy_j=10.0,
            )
            for end in (1.0, 2.5)
        ]
        timeline = build_timeline(app, gap_records)
        idles = [s for s in timeline.samples if s.kind == "idle"]
        assert len(idles) == 1
        assert idles[0].start_s == pytest.approx(1.0)
        assert idles[0].end_s == pytest.approx(1.5)
        assert idles[0].power_w["package"] == pytest.approx(idle["package"])

    def test_counter_events_validate(self, fig5_run, tmp_path):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        events = timeline.counter_events()
        assert all(e["ph"] == "C" for e in events)
        # counters alone form a valid Chrome trace document
        path = tmp_path / "counters.json"
        path.write_text(json.dumps({"traceEvents": events}))
        summary = validate_file(path)
        assert summary["counters"] == len(events)
        assert summary["spans"] == 0

    def test_csv_export(self, fig5_run, tmp_path):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        path = tmp_path / "timeline.csv"
        rows = timeline.to_csv(path)
        assert rows == len(timeline.samples)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("start_s,end_s,kind")
        assert len(lines) == rows + 1

    def test_record_metrics(self, fig5_run):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        obs = Observability()
        timeline.record_metrics(obs.metrics)
        totals = timeline.totals_j()
        for domain in DOMAINS:
            counter = obs.metrics.counter(
                "socrates_energy_joules_total",
                labels={"domain": domain, "kernel": app.name},
            )
            assert counter.value == pytest.approx(totals[domain])


# -- the attribution ledger ---------------------------------------------------


class TestLedger:
    def _ledger(self, run):
        result, app, records = run
        timeline = build_timeline(app, records)
        return (
            EnergyLedger.from_timeline(
                timeline,
                stage_events=result.stage_events,
                idle_power_w=app.executor.idle_breakdown().totals(),
            ),
            records,
        )

    def test_conservation_fig5(self, fig5_run):
        ledger, records = self._ledger(fig5_run)
        ledger.verify(records=records)  # raises on any broken invariant
        assert len(ledger.entries) >= 1
        assert ledger.stages  # toolflow stages booked

    def test_conservation_fig4(self, fig4_run):
        ledger, records = self._ledger(fig4_run)
        ledger.verify(records=records)
        booked = sum(e.energy_j["package"] for e in ledger.entries)
        trace_j = sum(r.energy_j for r in records)
        assert booked == pytest.approx(trace_j, rel=1e-12)

    def test_entries_sorted_by_joules(self, fig5_run):
        ledger, _ = self._ledger(fig5_run)
        joules = [entry.energy_j["package"] for entry in ledger.entries]
        assert joules == sorted(joules, reverse=True)

    def test_verify_rejects_tampered_energy(self, fig5_run):
        ledger, _ = self._ledger(fig5_run)
        # tampering one entry's core plane breaks domain closure
        # (``entries`` returns the live LedgerEntry objects)
        ledger.entries[0].energy_j["core"] += 1.0
        with pytest.raises(LedgerConservationError, match="domain sum"):
            ledger.verify()

    def test_verify_rejects_inconsistent_record(self, fig5_run):
        ledger, records = self._ledger(fig5_run)
        bad = list(records)
        r = bad[0]
        bad[0] = InvocationRecord(
            timestamp=r.timestamp, state=r.state, compiler=r.compiler,
            threads=r.threads, binding=r.binding, time_s=r.time_s,
            power_w=r.power_w, energy_j=r.energy_j + 1.0,
        )
        with pytest.raises(LedgerConservationError, match="inconsistent"):
            ledger.verify(records=bad)

    def test_document_round_trip_validates(self, fig5_run, tmp_path):
        ledger, _ = self._ledger(fig5_run)
        path = ledger.write(tmp_path / "ledger.json")
        summary = validate_energy_ledger(path)
        assert summary["kernel"] == ledger.kernel
        assert summary["operating_points"] == len(ledger.entries)
        # and validate_file sniffs the schema despite the .json suffix
        assert validate_file(path) == summary

    def test_validator_rejects_broken_conservation(self, fig5_run, tmp_path):
        ledger, _ = self._ledger(fig5_run)
        document = ledger.as_dict()
        document["totals_j"]["package"] += 5.0
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="domain sum"):
            validate_file(path)


# -- budget SLOs --------------------------------------------------------------


class TestBudgets:
    def test_budget_requires_a_limit(self):
        with pytest.raises(ValueError, match="declares no limit"):
            EnergyBudget("empty")

    @pytest.mark.parametrize(
        "limits",
        [
            {"power_w": -5.0},
            {"power_w": 0.0},
            {"peak_power_w": -1.0},
            {"peak_power_w": 0.0},
            {"energy_j": 0.0},
            {"energy_j": float("inf")},
            {"power_w": float("nan")},
            {"power_w": 40.0, "energy_j": -1.0},
        ],
    )
    def test_limits_must_be_positive_and_finite(self, limits):
        with pytest.raises(ValueError, match="must be positive and finite"):
            EnergyBudget("bad", **limits)

    def test_met_and_violated_verdicts(self, fig5_run):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        mean = timeline.mean_power_w()["package"]
        obs = Observability()
        verdicts = check_budgets(
            timeline,
            [
                EnergyBudget("loose", power_w=mean + 50.0),
                EnergyBudget("tight", power_w=mean / 2.0),
            ],
            metrics=obs.metrics,
            audit=obs.audit,
        )
        assert [v.ok for v in verdicts] == [True, False]
        assert "VIOLATED" in verdicts[1].message()
        # the violation landed in both the metrics and the audit log
        counter = obs.metrics.counter(
            "socrates_energy_budget_violations_total",
            labels={"budget": "tight", "kernel": app.name},
        )
        assert counter.value == 1
        assert len(obs.audit.slos) == 1
        slo = obs.audit.slos[0]
        assert slo.budget == "tight"
        assert slo.violations
        assert obs.audit.slos_as_dicts()[0]["budget"] == "tight"

    def test_peak_and_energy_limits(self, fig5_run):
        _, app, records = fig5_run
        timeline = build_timeline(app, records)
        peak = timeline.peak_power_w()
        total = timeline.totals_j()["package"]
        verdicts = check_budgets(
            timeline,
            [
                EnergyBudget("peak", peak_power_w=peak * 0.9),
                EnergyBudget("joules", energy_j=total * 2.0),
            ],
        )
        assert not verdicts[0].ok and "peak power" in verdicts[0].violations[0]
        assert verdicts[1].ok


# -- trace CSV round-trip (property) ------------------------------------------


_finite = st.floats(
    min_value=0.0,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)


class TestTraceRoundTrip:
    @given(
        st.lists(
            st.tuples(_finite, _finite, _finite, _finite),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_power_and_energy_round_trip_exactly(self, tmp_path_factory, rows):
        """The satellite guarantee: ``repr``-based float columns make
        the CSV a lossless carrier for power_w / energy_j / time_s."""
        records = [
            InvocationRecord(
                timestamp=timestamp, state="s", compiler="-O2", threads=4,
                binding="close", time_s=time_s, power_w=power_w,
                energy_j=energy_j,
            )
            for timestamp, time_s, power_w, energy_j in rows
        ]
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        trace_to_csv(records, path)
        loaded = trace_from_csv(path)
        assert len(loaded) == len(records)
        for original, parsed in zip(records, loaded):
            assert parsed.timestamp == original.timestamp
            assert parsed.time_s == original.time_s
            assert parsed.power_w == original.power_w
            assert parsed.energy_j == original.energy_j


# -- byte-identical guarantee -------------------------------------------------


class TestDeterminism:
    def test_observatory_never_perturbs_a_seeded_run(self, tmp_path):
        """Reading the meters mid-run (breakdown, idle_breakdown,
        build_timeline) leaves the seeded trace byte-identical."""
        from repro.core.toolflow import SocratesToolflow
        from repro.polybench.suite import load

        def run(observed: bool) -> bytes:
            flow = SocratesToolflow(dse_repetitions=1, thread_counts=[1, 2])
            app = flow.build(load("atax")).adaptive
            app.add_state(
                OptimizationState("Thr/W^2", rank=maximize_throughput_per_watt_squared()),
                activate=True,
            )
            records = []
            for index in range(40):
                records.append(app.run_once())
                if observed and index % 5 == 0:
                    version, placement = app.resolve(
                        records[-1].compiler,
                        records[-1].binding,
                        records[-1].threads,
                    )
                    app.executor.breakdown(version.compiled, placement)
                    app.executor.idle_breakdown()
                    build_timeline(app, records)
            path = tmp_path / f"trace-{observed}.csv"
            trace_to_csv(records, path)
            return path.read_bytes()

        assert run(observed=False) == run(observed=True)


# -- bench gate energy columns ------------------------------------------------


class TestBenchEnergy:
    def _result(self, energy):
        from repro.bench.scenarios import ScenarioResult

        return ScenarioResult(
            scenario="toy",
            repeats=1,
            wall_s=[1.0],
            span_totals={"stage:x": [0.5]},
            span_counts={"stage:x": 1},
            fingerprint={"points": 7},
            peak_rss_kb=0,
            energy_j=dict(energy),
        )

    def test_baseline_round_trip_with_energy(self, tmp_path):
        from repro.bench import BenchBaseline, load_baseline, save_baseline

        baseline = BenchBaseline.from_result(
            self._result({"package": 100.0, "core": 60.0, "uncore": 30.0, "dram": 10.0})
        )
        path = save_baseline(baseline, tmp_path / "BENCH_toy.json")
        loaded = load_baseline(path)
        assert loaded.energy_j == baseline.energy_j

    def test_baseline_without_energy_still_loads(self, tmp_path):
        from repro.bench import BenchBaseline, load_baseline, save_baseline

        baseline = BenchBaseline.from_result(self._result({}))
        document = baseline.as_dict()
        assert "energy_j" not in document  # no noise for energy-free scenarios
        path = save_baseline(baseline, tmp_path / "BENCH_toy.json")
        assert load_baseline(path).energy_j == {}

    def test_gate_passes_within_tolerance(self):
        from repro.bench import BenchBaseline, compare_result

        baseline = BenchBaseline.from_result(self._result({"package": 100.0}))
        report = compare_result(
            baseline, self._result({"package": 104.0}), energy_tolerance=0.05
        )
        assert report.ok
        assert report.energy[0].domain == "package"
        assert not report.energy[0].regressed
        assert "energy within tolerance" in report.format()

    def test_gate_fails_beyond_tolerance(self):
        from repro.bench import BenchBaseline, compare_result

        baseline = BenchBaseline.from_result(self._result({"package": 100.0}))
        report = compare_result(
            baseline, self._result({"package": 110.0}), energy_tolerance=0.05
        )
        assert not report.ok
        assert report.energy_offenders[0].domain == "package"
        assert "ENERGY REGRESSED" in report.format()
        as_dict = report.as_dict()
        assert as_dict["energy_offenders"] == ["package"]

    def test_gate_ignores_energy_free_baselines(self):
        from repro.bench import BenchBaseline, compare_result

        baseline = BenchBaseline.from_result(self._result({}))
        report = compare_result(baseline, self._result({"package": 1e9}))
        assert report.energy == []
        assert report.ok


# -- dashboard energy row -----------------------------------------------------


class TestDashboard:
    def test_energy_meter_row(self):
        from repro.obs.dashboard import render_dashboard

        obs = Observability()
        for domain, joules, watts in (
            ("package", 100.0, 50.0),
            ("core", 60.0, 30.0),
            ("uncore", 30.0, 15.0),
            ("dram", 10.0, 5.0),
        ):
            obs.metrics.counter(
                "socrates_energy_joules_total",
                labels={"domain": domain, "kernel": "mvt"},
            ).inc(joules)
            obs.metrics.gauge(
                "socrates_power_watts",
                labels={"domain": domain, "kernel": "mvt"},
            ).set(watts)
        frame = render_dashboard(obs.metrics)
        assert "energy (virtual RAPL)" in frame
        assert "100.00 J" in frame
        assert "(50.0 W avg)" in frame

    def test_no_energy_no_section(self):
        from repro.obs.dashboard import render_dashboard
        from repro.obs.metrics import MetricsRegistry

        frame = render_dashboard(MetricsRegistry())
        assert "energy (virtual RAPL)" not in frame

    def test_obs_top_once_from_prom_file(self, tmp_path, capsys):
        """The CLI path: energy counters survive the Prometheus
        round-trip and render in ``obs top --once --from``."""
        from repro.cli import main
        from repro.obs.export import write_prometheus

        obs = Observability()
        obs.metrics.counter(
            "socrates_energy_joules_total",
            help="energy",
            labels={"domain": "package", "kernel": "mvt"},
        ).inc(42.0)
        path = tmp_path / "metrics.prom"
        write_prometheus(obs.metrics, path)
        assert main(["obs", "top", "--once", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "energy (virtual RAPL)" in out
        assert "42.00 J" in out


# -- CLI contract -------------------------------------------------------------


_QUICK_ARGS = ["--duration", "1", "--threads", "1,2", "--repetitions", "1"]


class TestCli:
    def test_slo_requires_a_budget(self, capsys):
        from repro.cli import main

        assert main(["energy", "slo", "mvt", *_QUICK_ARGS]) == 2
        assert "declare at least one budget" in capsys.readouterr().err

    def test_slo_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        met = main(
            ["energy", "slo", "mvt", *_QUICK_ARGS, "--power-budget", "500"]
        )
        assert met == 0
        assert "energy slo: OK" in capsys.readouterr().out
        audit_path = tmp_path / "audit.jsonl"
        violated = main(
            [
                "energy", "slo", "mvt", *_QUICK_ARGS,
                "--power-budget", "1",
                "--audit-out", str(audit_path),
            ]
        )
        assert violated == 3
        assert "energy slo: FAIL" in capsys.readouterr().out
        assert audit_path.exists()

    def test_timeline_trace_validates(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "timeline.json"
        csv_path = tmp_path / "timeline.csv"
        code = main(
            [
                "energy", "timeline", "mvt", *_QUICK_ARGS,
                "--trace-out", str(trace),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        summary = validate_file(trace)
        assert summary["counters"] > 0 and summary["spans"] > 0
        assert csv_path.exists()

    def test_report_ledger_validates(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.json"
        code = main(
            [
                "energy", "report", "mvt", *_QUICK_ARGS,
                "--ledger-out", str(ledger),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attribution ledger" in out
        assert "conservation" in out
        summary = validate_file(ledger)
        assert summary["kernel"] == "mvt"

    def test_report_json(self, capsys):
        from repro.cli import main

        assert main(["energy", "report", "mvt", *_QUICK_ARGS, "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[out.index("{") :])
        assert document["schema"] == "socrates-energy/1"
        assert document["operating_points"]
