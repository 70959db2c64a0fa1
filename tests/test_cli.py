"""Tests for the `socrates` command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FAST = ["--threads", "1,4,16", "--repetitions", "2"]
#: ``sha256sum`` lines of the seeded ``build 2mm --oplist`` output, one
#: per machine, named ``2mm_<machine>.json`` (xeon_2s is the default
#: machine and is built without ``--machine``).
OPLIST_DIGESTS = Path(__file__).parent / "data" / "build_2mm_oplists.sha256"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["list"],
            ["features", "2mm"],
            ["weave", "2mm", "--source"],
            ["build", "2mm", "--oplist", "x.json"],
            ["fig4", "--app", "mvt", "--steps", "5"],
            ["fig5", "--duration", "30"],
            ["table1"],
            ["build", "2mm", "--stage-report", "--threads", "1,4"],
            ["stats", "2mm", "--threads", "1,4", "--repetitions", "1"],
            ["stats", "2mm", "--json"],
            ["build", "2mm", "--stage-report", "--json"],
            ["bench", "list"],
            ["bench", "run", "--scenario", "single_build", "--repeats", "2"],
            ["bench", "gate", "--all", "--threshold", "1.5", "--out-dir", "x"],
            ["bench", "compare", "--baseline-dir", "b", "--json"],
            ["obs", "diff", "a.json", "b.json", "--limit", "5"],
            ["obs", "diff", "a.json", "b.json", "--json"],
            ["obs", "top", "--from", "m.prom", "--once"],
            ["obs", "top", "--once"],
            ["obs", "export", "mvt", "--out-dir", "x", "--duration", "3"],
            ["obs", "validate", "a.json", "dir"],
            ["obs", "flame", "mvt", "--folded", "--out", "p.folded"],
            ["obs", "flame", "--diff", "a.folded", "b.folded"],
            ["obs", "flame", "--scenario", "single_build", "--out-dir", "x"],
            ["obs", "whatif", "--trace", "t.json", "--speedups", "10,50", "--json"],
            ["energy", "report", "mvt", "--json", "--ledger-out", "l.json"],
            ["energy", "timeline", "mvt", "--csv", "t.csv"],
            ["energy", "slo", "mvt", "--power-budget", "40", "--budget-domain", "P:package"],
            ["trace", "margot.json", "--duration", "5", "--audit-out", "a.jsonl"],
            ["trace", "margot.json", "--machine", "biglittle_4p4e", "--trace-out", "t.json"],
            ["build", "2mm", "--machine", "biglittle_4p4e", "--trace-out", "t.json"],
            ["dse", "mvt", "--json"],
            ["dse", "syr2k", "--seed", "0xBEEF", "--trace-out", "t.json"],
            ["bench", "run", "--all", "--out-dir", "x", "--trace-out-dir", "t"],
            ["bench", "gate", "--scenario", "single_build", "--baseline-dir", "b"],
            ["predict", "2mm", "-k", "2"],
            ["profiles"],
            ["loocv", "--apps", "mvt,atax", "-k", "3"],
            ["run", "2mm", "--weaved", "--version", "3", "--size", "6"],
            ["margot-header", "margot.json", "--out", "margot.h"],
            ["experiments", "--threads", "1,4"],
            ["check", "2mm"],
            ["check", "--all", "--json", "--out", "check.json"],
            ["check", "--all", "--sarif"],
            ["check", "--source", "file.c"],
            ["check", "mvt", "--pristine-only"],
        ],
    )
    def test_valid_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_check_json_and_sarif_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--all", "--json", "--sarif"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "runs", "list", "--store", "wh"],
            ["obs", "incidents", "list"],
            ["obs", "lineage", "run:abc"],
            ["obs", "query", "kind=bench"],
            ["obs", "trend", "single_build"],
            ["obs", "top", "--once", "--alerts"],
            ["build", "2mm", "--store", "wh"],
            ["trace", "margot.json", "--store-label", "x"],
            ["dse", "mvt", "--store", "wh"],
            ["bench", "run", "--store", "wh"],
            ["bench", "gate", "--history-store", "wh"],
        ],
    )
    def test_removed_commands_and_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2mm" in out and "seidel-2d" in out

    def test_features(self, capsys):
        assert main(["features", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "ft16_loops" in out

    def test_features_unknown_app_fails(self, capsys):
        assert main(["features", "nope"]) == 2

    def test_weave_metrics_only(self, capsys):
        assert main(["weave", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "Att=" in out and "Bloat=" in out
        assert "#pragma GCC optimize" not in out

    def test_weave_with_source(self, capsys):
        assert main(["weave", "mvt", "--source"]) == 0
        out = capsys.readouterr().out
        assert "#pragma GCC optimize" in out
        assert "kernel_mvt__wrapper" in out

    def test_build_writes_artifacts(self, tmp_path, capsys):
        oplist = tmp_path / "kb.json"
        source = tmp_path / "adaptive.c"
        code = main(
            ["build", "mvt", "--oplist", str(oplist), "--source-out", str(source)]
            + FAST
        )
        assert code == 0
        assert oplist.exists() and source.exists()
        document = json.loads(oplist.read_text())
        assert document["format"] == 1
        assert len(document["points"]) == 8 * 3 * 2
        assert "margot_init();" in source.read_text()

    def test_build_stage_report(self, capsys):
        assert main(["build", "mvt", "--stage-report"] + FAST) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{") :])
        stages = [entry["stage"] for entry in report["stages"]]
        assert stages == ["characterize", "prune", "weave", "profile", "assemble"]
        assert report["totals"]["points_evaluated"] > 0

    def test_invalid_repetitions_reported_cleanly(self, capsys):
        assert main(["build", "2mm", "--threads", "1", "--repetitions", "0"]) == 2
        err = capsys.readouterr().err
        assert "dse_repetitions must be >= 1" in err

    def test_stats(self, capsys):
        assert main(["stats", "mvt"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "mvt"
        assert payload["engine"]["compile_cache"]["misses"] > 0
        assert len(payload["stages"]) == 5

    def test_stats_json_single_line(self, capsys):
        assert main(["stats", "mvt", "--json"] + FAST) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # exactly one machine-readable line
        payload = json.loads(out)
        assert payload["app"] == "mvt"
        assert len(payload["stages"]) == 5

    def test_build_json_stage_report(self, capsys):
        assert main(["build", "mvt", "--stage-report", "--json"] + FAST) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # the whole stdout is one JSON document
        assert payload["app"] == "mvt"
        assert payload["knowledge_points"] > 0
        assert len(payload["custom_flags"]) == 4
        stages = [entry["stage"] for entry in payload["stage_report"]["stages"]]
        assert stages == ["characterize", "prune", "weave", "profile", "assemble"]

    def test_build_json_without_stage_report(self, capsys):
        assert main(["build", "mvt", "--json"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stage_report" not in payload
        assert payload["coverage"] == 1.0

    def test_fig4(self, capsys):
        assert main(["fig4", "--app", "mvt", "--steps", "4"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert out.count("\n") >= 5

    def test_table1_row_count(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        # header + 12 benchmarks
        assert sum(1 for line in out.splitlines() if line.strip()) >= 13

    def test_fig3_subset(self, capsys):
        assert main(["fig3", "--apps", "mvt"] + FAST) == 0
        out = capsys.readouterr().out
        assert "POWER" in out and "THROUGHPUT" in out
        assert "#" in out  # boxplot medians rendered

    def test_fig5_short(self, capsys):
        assert main(["fig5", "--app", "mvt", "--duration", "3"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Power [W]" in out and "OMP threads" in out

    def test_trace_from_config(self, tmp_path, capsys):
        config = {
            "kernel": "mvt",
            "states": [
                {
                    "name": "eff",
                    "rank": {
                        "direction": "maximize",
                        "composition": "geometric",
                        "fields": [
                            {"metric": "throughput", "coefficient": 1.0},
                            {"metric": "power", "coefficient": -2.0},
                        ],
                    },
                },
                {
                    "name": "perf",
                    "rank": {
                        "direction": "maximize",
                        "fields": [{"metric": "throughput"}],
                    },
                },
            ],
            "active_state": "eff",
        }
        config_path = tmp_path / "margot.json"
        config_path.write_text(json.dumps(config))
        csv_path = tmp_path / "trace.csv"
        code = main(
            ["trace", str(config_path), "--duration", "2", "--csv", str(csv_path)]
            + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eff" in out and "perf" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("timestamp,state,compiler")


class TestSeededOplists:
    """The whole seeded knowledge base of ``build 2mm`` is pinned, not
    only its Pareto front: every point's knobs, mean and std, byte for
    byte, on the homogeneous and the clustered machine."""

    @pytest.mark.parametrize(
        "machine, options",
        [("xeon_2s", []), ("biglittle_8p8e", ["--machine", "biglittle_8p8e"])],
    )
    def test_oplist_matches_digest(self, machine, options, tmp_path, capsys):
        expected = dict(
            reversed(line.split()) for line in OPLIST_DIGESTS.read_text().splitlines()
        )
        name = f"2mm_{machine}.json"
        assert main(["build", "2mm", "--oplist", str(tmp_path / name)] + options) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected[name]


class TestMargotHeaderCommand:
    def test_margot_header_to_file(self, tmp_path, capsys):
        config = {
            "kernel": "mvt",
            "states": [
                {
                    "name": "perf",
                    "rank": {
                        "direction": "maximize",
                        "fields": [{"metric": "throughput"}],
                    },
                }
            ],
        }
        config_path = tmp_path / "margot.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "margot.h"
        code = main(["margot-header", str(config_path), "--out", str(out_path)] + FAST)
        assert code == 0
        header = out_path.read_text()
        assert "void margot_update(int *version, int *threads)" in header
        # the generated header is parseable by the CIR frontend
        from repro.cir import parse

        assert parse(header).has_function("margot_update")


class TestRunCommand:
    def test_run_original(self, capsys):
        assert main(["run", "2mm", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "main() returned 0" in out
        assert "D: shape=(6, 6)" in out

    def test_run_weaved_any_version_same_checksum(self, capsys):
        checksums = []
        for version in ("0", "9"):
            assert main(["run", "mvt", "--weaved", "--version", version, "--size", "6"]) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.strip().startswith("x1:"))
            checksums.append(line.split("checksum=")[1])
        assert checksums[0] == checksums[1]


CLEAN_C = "int main() {\n  return 0;\n}\n"

WARN_C = """\
double A[10][10];
void k(int n) {
  int i;
  int j;
  #pragma omp parallel for private(j)
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      A[0][j] = A[0][j] + 1.0;
}
"""

ERR_C = """\
void k(int n) {
  int i;
  double s = 0.0;
  #pragma omp parallel for
  for (i = 0; i < n; i++)
    s = s + 1.0;
}
"""


class TestCheckCommand:
    """The exit-code contract: 0 clean / 2 warnings-only / 3 errors."""

    def _lint(self, tmp_path, name, text, extra=()):
        path = tmp_path / name
        path.write_text(text)
        return main(["check", "--source", str(path), *extra])

    def test_clean_source_exits_0(self, tmp_path, capsys):
        assert self._lint(tmp_path, "clean.c", CLEAN_C) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_warning_source_exits_2(self, tmp_path, capsys):
        assert self._lint(tmp_path, "warn.c", WARN_C) == 2
        out = capsys.readouterr().out
        assert "[OMP002]" in out and "warning" in out

    def test_error_source_exits_3(self, tmp_path, capsys):
        assert self._lint(tmp_path, "err.c", ERR_C) == 3
        out = capsys.readouterr().out
        assert "[OMP001]" in out and "error" in out
        assert "hint:" in out

    def test_json_document(self, tmp_path, capsys):
        assert self._lint(tmp_path, "err.c", ERR_C, ["--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        assert payload["exit_code"] == 3
        assert payload["diagnostics"][0]["rule"] == "OMP001"

    def test_sarif_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "check.sarif"
        code = self._lint(
            tmp_path, "warn.c", WARN_C, ["--sarif", "--out", str(out_path)]
        )
        assert code == 2
        document = json.loads(out_path.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "OMP002"

    def test_single_app_has_no_errors(self, capsys):
        # mvt's dot-product loops are flagged FPS201 (warnings), so the
        # exit code is 2; what matters is the absence of errors
        assert main(["check", "mvt"]) == 2
        out = capsys.readouterr().out
        assert "2 unit(s), 0 error(s), 2 warning(s)" in out
        assert "FPS201" in out

    def test_stencil_app_is_clean(self, capsys):
        # jacobi-2d has no reductions, no dependences on the parallel
        # axis, and no calls: every rule family stays quiet
        assert main(["check", "jacobi-2d"]) == 0
        out = capsys.readouterr().out
        assert "2 unit(s), 0 error(s), 0 warning(s)" in out

    def test_app_pristine_only(self, capsys):
        assert main(["check", "mvt", "--pristine-only"]) == 2
        assert "1 unit(s)" in capsys.readouterr().out

    def test_no_selection_is_an_error(self, capsys):
        assert main(["check"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_app_fails(self, capsys):
        assert main(["check", "nope"]) == 2

    def test_metrics_out_counts_diagnostics(self, tmp_path, capsys):
        metrics_path = tmp_path / "check.prom"
        assert main(["check", "mvt", "--metrics-out", str(metrics_path)]) == 2
        text = metrics_path.read_text()
        assert 'socrates_check_diagnostics_total{rule="FPS201"} 2' in text

    def test_audit_out_writes_check_records(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.jsonl"
        assert main(["check", "mvt", "--audit-out", str(audit_path)]) == 2
        records = [
            json.loads(line) for line in audit_path.read_text().splitlines()
        ]
        assert len(records) == 2
        assert all(r["type"] == "check" and r["rule"] == "FPS201" for r in records)


class TestDseCommand:
    def test_unpruned_run(self, capsys):
        assert main(["dse", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "256 evaluated" in out

    def test_json_document(self, capsys):
        assert main(["dse", "syr2k", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["points_evaluated"] == document["space_size"] == 256
        assert document["front_size"] == len(document["front"]) > 0


class TestProfilesAndLoocv:
    def test_profiles_table(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "benchmark" in out
        assert sum(1 for line in out.splitlines() if line.strip()) == 13

    def test_loocv_subset(self, capsys):
        assert main(["loocv", "--apps", "mvt,atax,gemver", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "leave-one-out" in out
        assert "mvt" in out and "random k-subset" in out


class TestObsDiffJson:
    """Satellite: `socrates obs diff --json` emits the machine-readable
    document instead of the table."""

    def write_trace(self, tmp_path, name, pad=0):
        from repro.obs import Observability
        from repro.obs.export import write_chrome_trace

        obs = Observability()
        with obs.tracer.span("build"):
            with obs.tracer.span("stage:weave"):
                pass
            for _ in range(pad):
                with obs.tracer.span("stage:profile"):
                    pass
        path = tmp_path / name
        write_chrome_trace(obs.tracer.spans, path)
        return path

    def test_json_document_round_trips(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        b = self.write_trace(tmp_path, "b.json", pad=2)
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in document["deltas"]}
        assert by_name["stage:profile"]["count_b"] == 2
        assert by_name["stage:profile"]["count_a"] == 0
        assert by_name["stage:weave"]["count_a"] == 1
        assert document["total_delta_s"] == pytest.approx(
            document["total_b_s"] - document["total_a_s"]
        )

    def test_table_mode_unchanged(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        assert main(["obs", "diff", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "trace diff:" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_missing_trace_is_exit_2(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.json")
        assert main(["obs", "diff", str(a), str(tmp_path / "gone.json")]) == 2
        assert "gone.json" in capsys.readouterr().err


class TestObsTopHardening:
    """Satellite: `obs top --from` fails with a named ValueError (exit
    2), never a traceback, on missing/truncated/malformed files."""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["obs", "top", "--from", str(tmp_path / "no.prom"), "--once"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no.prom" in err

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["obs", "top", "--from", str(tmp_path), "--once"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text("# TYPE socrates_builds_total counter\nsocrates_builds_tot")
        assert main(["obs", "top", "--from", str(path), "--once"]) == 2
        err = capsys.readouterr().err
        assert "m.prom" in err

    def test_malformed_sample_line(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text("socrates_builds_total not-a-number\n")
        assert main(["obs", "top", "--from", str(path), "--once"]) == 2
        assert "m.prom" in capsys.readouterr().err

    def test_valid_file_renders(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text(
            "# TYPE socrates_builds_total counter\nsocrates_builds_total 3\n"
        )
        assert main(["obs", "top", "--from", str(path), "--once"]) == 0
        assert "socrates" in capsys.readouterr().out


class TestValidateDirectory:
    def test_directory_with_bad_artifact_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        good.write_text("# TYPE x counter\nx 1.0\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        skipped = tmp_path / "notes.md"
        skipped.write_text("not an artifact")
        assert main(["obs", "validate", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"{bad}: FAIL" in out

    def test_directory_all_good_summarizes(self, tmp_path, capsys):
        (tmp_path / "m.prom").write_text("# TYPE x counter\nx 1.0\n")
        (tmp_path / "p.folded").write_text("a;b 1.0\n")
        (tmp_path / "notes.md").write_text("skip me")
        assert main(["obs", "validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "validated 2 file(s), skipped 1" in out

    def test_empty_directory_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "validate", str(empty)]) == 2


class TestInputErrors:
    """Bad inputs exit 2 with an error that names the offending input,
    before any build runs."""

    def test_fig5_zero_duration(self, capsys):
        assert main(["fig5", "--app", "mvt", "--duration", "0"] + FAST) == 2
        err = capsys.readouterr().err
        assert "duration_s must be positive" in err
        assert "strictly increasing" not in err

    def test_energy_report_negative_duration(self, capsys):
        assert main(["energy", "report", "mvt", "--duration", "-2"] + FAST) == 2
        captured = capsys.readouterr()
        assert "duration_s must be positive" in captured.err
        assert "Building" not in captured.out

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_energy_slo_non_positive_budget(self, budget, capsys):
        argv = ["energy", "slo", "mvt", "--power-budget", budget, "--duration", "3"]
        assert main(argv + FAST) == 2
        captured = capsys.readouterr()
        assert "power_w must be positive and finite" in captured.err
        assert "Building" not in captured.out

    def test_check_missing_source(self, tmp_path, capsys):
        missing = tmp_path / "absent.c"
        assert main(["check", "--source", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"error: {missing}: No such file or directory" in err
        assert "Traceback" not in err

    def test_check_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.json"
        assert main(["check", "2mm", "--json", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {out}: No such file or directory" in err

    def test_trace_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["trace", str(missing)] + FAST) == 2
        err = capsys.readouterr().err
        assert f"{missing}: cannot read configuration" in err
        assert "Expecting value" not in err

    def test_trace_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["trace", str(path)] + FAST) == 2
        assert f"{path}: invalid JSON configuration" in capsys.readouterr().err

    def test_threads_not_integers(self, capsys):
        assert main(["build", "mvt", "--threads", "a,b", "--repetitions", "1"]) == 2
        err = capsys.readouterr().err
        assert "--threads expects comma-separated integers" in err
        assert "invalid literal" not in err
