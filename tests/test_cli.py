"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "1200 tests" in out
    assert "compute    517" in out


def test_demo_rejects_unknown_scenario(capsys):
    assert main(["demo", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_evaluate_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["evaluate", "fig99"])


def test_demo_scenario_runs(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["demo", "linuxbridge_failure"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] linuxbridge_failure" in out


def test_evaluate_table1(full_character, capsys):
    assert main(["evaluate", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "compute" in out


# ---------------------------------------------------------------------------
# repro lint
# ---------------------------------------------------------------------------

def _ambiguous_library_file(tmp_path):
    """A two-fingerprint library where one subsumes the other."""
    from repro.core.fingerprint import Fingerprint, FingerprintLibrary
    from repro.core.symbols import SymbolTable
    from repro.openstack.catalog import default_catalog

    catalog = default_catalog()
    symbols = SymbolTable(catalog)
    keys = [a.key for a in catalog.apis if a.state_change and not a.noise][:6]
    library = FingerprintLibrary(symbols)
    library.add(Fingerprint("op-short", symbols.encode(keys[:3]), (True,) * 3))
    library.add(Fingerprint("op-long", symbols.encode(keys), (True,) * 6))
    path = tmp_path / "library.json"
    path.write_text(json.dumps(library.to_dict()))
    return str(path)


def test_lint_clean_library_exits_zero(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "repro lint: 1200 fingerprints" in out
    assert "0 error(s)" in out
    assert ("passes: ambiguity, truncation, integrity, regex, "
            "noise-config, discriminability, index-drift") in out


def test_lint_strict_flags_injected_ambiguous_pair(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path]) == 0
    capsys.readouterr()
    assert main(["lint", "--library", path, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "AMB002" in out
    assert "op-short" in out


def test_lint_json_output_round_trips(tmp_path, capsys):
    from repro.analysis.findings import LintReport

    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    report = LintReport.from_dict(data)
    assert report.to_dict() == data
    assert report.rule_counts.get("AMB002") == 1


def test_lint_synthetic_pua_overflow_is_error(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--max-symbols", "100"]) == 1
    out = capsys.readouterr().out
    assert "SYM001" in out
    assert "ERROR" in out


def test_lint_pass_subset_and_unknown_pass(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--passes", "integrity"]) == 0
    capsys.readouterr()
    assert main(["lint", "--library", path, "--passes", "bogus"]) == 2
    assert "unknown lint pass" in capsys.readouterr().err


def test_lint_unreadable_library_is_usage_error(tmp_path, capsys):
    assert main(["lint", "--library", str(tmp_path / "missing.json")]) == 2
    assert "cannot read library" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro index
# ---------------------------------------------------------------------------

def _drifted_copy(library_path, tmp_path):
    """The same library minus one fingerprint — a stale-index library."""
    with open(library_path, encoding="utf-8") as handle:
        data = json.load(handle)
    del data["fingerprints"][0]
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_index_build_and_inspect_round_trip(tmp_path, capsys):
    library = _ambiguous_library_file(tmp_path)
    artifact = str(tmp_path / "index.json")
    assert main(["index", "build", "--library", library,
                 "--out", artifact]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "2 operations" in out

    assert main(["index", "inspect", artifact]) == 0
    out = capsys.readouterr().out
    assert "format version: 1" in out
    assert "selection flags: prune_rpcs=True" in out
    assert "longest postings lists:" in out

    assert main(["index", "inspect", artifact, "--check",
                 "--library", library]) == 0
    assert "fresh" in capsys.readouterr().out


def test_index_inspect_check_reports_drift(tmp_path, capsys):
    library = _ambiguous_library_file(tmp_path)
    artifact = str(tmp_path / "index.json")
    assert main(["index", "build", "--library", library,
                 "--out", artifact]) == 0
    capsys.readouterr()
    # A different library behind the same artifact: stale hashes.
    other = _drifted_copy(library, tmp_path)
    assert main(["index", "inspect", artifact, "--check",
                 "--library", other]) == 1
    out = capsys.readouterr().out
    assert "DRIFT:" in out
    assert "library hash mismatch" in out


def test_index_build_writes_to_stdout_without_out(tmp_path, capsys):
    library = _ambiguous_library_file(tmp_path)
    assert main(["index", "build", "--library", library]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format_version"] == 1


def test_index_inspect_unreadable_artifact_is_usage_error(
    tmp_path, capsys
):
    assert main(["index", "inspect",
                 str(tmp_path / "missing.json")]) == 2
    assert "cannot read index" in capsys.readouterr().err


def test_lint_with_stale_index_fails(tmp_path, capsys):
    library = _ambiguous_library_file(tmp_path)
    artifact = str(tmp_path / "index.json")
    assert main(["index", "build", "--library", library,
                 "--out", artifact]) == 0
    capsys.readouterr()
    other = _drifted_copy(library, tmp_path)
    assert main(["lint", "--library", other, "--index", artifact,
                 "--passes", "index-drift"]) == 1
    assert "IDX001" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Determinism: byte-identical output across hash seeds
# ---------------------------------------------------------------------------

def _cli_subprocess(args, hash_seed):
    """Run the CLI in a subprocess under a pinned PYTHONHASHSEED."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = src
    script = (
        "import sys; from repro.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_lint_json_is_hash_seed_invariant(tmp_path):
    library = _ambiguous_library_file(tmp_path)
    args = ["lint", "--library", library, "--format", "json"]
    assert _cli_subprocess(args, "0") == _cli_subprocess(args, "1")


def test_index_build_is_hash_seed_invariant(tmp_path):
    library = _ambiguous_library_file(tmp_path)
    args = ["index", "build", "--library", library]
    assert _cli_subprocess(args, "0") == _cli_subprocess(args, "1")


# ---------------------------------------------------------------------------
# repro analyze
# ---------------------------------------------------------------------------

def test_analyze_reports_throughput(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency"]) == 0
    out = capsys.readouterr().out
    assert "2-shard analyzer (inline backend) over 3000 events" in out
    assert "ingest" in out and "events/s" in out
    assert "reports: 2 operational" in out


def test_analyze_verify_shards_oracle(full_character, capsys):
    assert main(["analyze", "--events", "4000", "--shards", "4",
                 "--batch-size", "256", "--verify", "shards"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out
    assert "4-shard on 4000 events" in out


def test_analyze_verify_selection_oracle(full_character, capsys):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--verify", "selection"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT: selection oracle, indexed vs full-scan" in out
    assert "serial reports, production vs reference pipeline" in out
    assert "2-shard reports, production vs reference pipeline" in out
    assert "DIVERGED" not in out


def test_analyze_verify_is_repeatable_and_keyed_per_oracle(
    full_character, capsys
):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--verify", "detection", "--verify", "levelshift",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    detection = document["verify_detection"]
    assert detection["ok"] is True and detection["snapshots"] > 0
    assert detection["detections"] == {}
    levelshift = document["verify_levelshift"]
    assert levelshift["ok"] is True and levelshift["samples"] > 0
    assert "EQUIVALENT: levelshift oracle" in levelshift["summary"]


def test_verify_rejects_unknown_oracle_names(full_character):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--verify", "checkpoint"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--verify", "shards"])
    assert excinfo.value.code == 2


def test_analyze_stage_stats_report_selection_counters(
    full_character, capsys
):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--stage-stats"]) == 0
    out = capsys.readouterr().out
    assert "candidate selection: postings_scanned=" in out
    assert "candidates_indexed=" in out


# ---------------------------------------------------------------------------
# repro analyze --backend process
# ---------------------------------------------------------------------------

def test_analyze_process_backend_verify_shards(full_character, capsys):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--batch-size", "256", "--backend", "process",
                 "--verify", "shards"]) == 0
    out = capsys.readouterr().out
    assert "2-shard analyzer (process backend)" in out
    assert "EQUIVALENT" in out
    assert "2-shard on 3000 events" in out


def test_analyze_process_backend_stage_stats_per_shard(
    full_character, capsys
):
    # No cross-process middleware: --stage-stats falls back to
    # per-shard worker counters merged via PipelineStats.
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--backend", "process",
                 "--stage-stats", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["backend"] == "process"
    assert "stage_seconds" not in document
    shard_stats = document["shard_stats"]
    assert len(shard_stats) == 2
    total = sum(s["events_processed"] for s in shard_stats)
    assert total == 3000
    assert document["stats"]["events_processed"] == 3000


def test_analyze_process_backend_json_matches_inline(
    full_character, capsys
):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--format", "json"]) == 0
    inline = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--backend", "process",
                 "--format", "json"]) == 0
    process = json.loads(capsys.readouterr().out)
    assert inline["backend"] == "inline"
    assert process["backend"] == "process"
    strip = ("kind", "operations", "theta")
    assert [
        {k: r[k] for k in strip} for r in process["reports"]
    ] == [
        {k: r[k] for k in strip} for r in inline["reports"]
    ]
    assert process["stats"]["events_processed"] == \
        inline["stats"]["events_processed"]


def test_analyze_rejects_unknown_backend(full_character):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--events", "1000", "--backend", "threads"])
    assert excinfo.value.code == 2


def test_serve_rejects_unknown_backend():
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--events", "1000", "--backend", "greenlet"])
    assert excinfo.value.code == 2


def test_scenarios_run_rejects_unknown_backend():
    with pytest.raises(SystemExit) as excinfo:
        main(["scenarios", "run", "--backend", "threads"])
    assert excinfo.value.code == 2


def test_serve_process_backend_sessions(full_character, capsys):
    assert main(["serve", "--events", "3000", "--tenants", "2",
                 "--session-shards", "2", "--backend", "process",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert document["session_shards"] == 2
    assert document["backend"] == "process"
    assert document["service"]["events_analyzed"] == 3000
    assert document["service"]["tenants"] == 2


def test_scenarios_run_process_backend(full_character, capsys):
    assert main(["scenarios", "run",
                 "--scenario", "synthetic_error_burst",
                 "--backend", "process"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


# ---------------------------------------------------------------------------
# Exit-code contract (docs: every subcommand returns 0/1/2)
# ---------------------------------------------------------------------------

def test_exit_code_constants():
    from repro.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE

    assert (EXIT_OK, EXIT_FAIL, EXIT_USAGE) == (0, 1, 2)


def test_scenarios_run_exit_codes(full_character, capsys):
    # A passing catalog subset exits 0 through ScenarioResult.exit_code.
    assert main(["scenarios", "run",
                 "--scenario", "noop_synthetic_control"]) == 0
    capsys.readouterr()
    # Unknown scenario names are usage errors, not failures.
    assert main(["scenarios", "run", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenarios_run_unreadable_baseline_is_usage_error(
    full_character, tmp_path, capsys
):
    assert main(["scenarios", "run",
                 "--scenario", "noop_synthetic_control",
                 "--check", str(tmp_path / "missing.json")]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro analyze --format json
# ---------------------------------------------------------------------------

def test_analyze_json_document(full_character, capsys):
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["events"] == 3000
    assert document["shards"] == 2
    assert document["exit_code"] == 0
    assert document["ingest_events_per_s"] > 0
    assert document["stats"]["events_processed"] == 3000
    assert len(document["reports"]) == 2
    for report in document["reports"]:
        assert report["kind"] == "operational"
        assert report["operations"]
        assert 0.0 <= report["theta"] <= 1.0


def test_analyze_out_writes_json_even_in_text_mode(
    full_character, tmp_path, capsys
):
    out = tmp_path / "run.json"
    assert main(["analyze", "--events", "3000", "--shards", "2",
                 "--no-latency", "--out", str(out)]) == 0
    # stdout stays human-readable; the file carries the document.
    assert "2-shard analyzer" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["events"] == 3000
    assert document["exit_code"] == 0


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

def test_serve_usage_errors(capsys):
    assert main(["serve", "--events", "100",
                 "--checkpoint-every", "50"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err
    assert main(["serve", "--events", "100", "--resume"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err
    assert main(["serve", "--events", "100",
                 "--pump-threads", "2"]) == 2
    assert "--async" in capsys.readouterr().err
    assert main(["serve", "--events", "100", "--async",
                 "--pump-threads", "-1"]) == 2
    assert ">= 0" in capsys.readouterr().err


def test_serve_async_json_document(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency", "--async",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert document["async_ingest"] is True
    assert document["pump_threads"] == 2  # default: one per tenant
    assert document["service"]["events_accepted"] == 2000
    assert document["service"]["events_analyzed"] == 2000
    assert document["service"]["queued"] == 0
    assert document["reports"]


def test_serve_verify_async_oracle(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency", "--async",
                 "--pump-threads", "2", "--verify", "async",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    verdict = document["verify_async"]
    assert verdict["ok"] is True
    assert verdict["producers"] == 2
    assert verdict["sync_reports"] == verdict["async_reports"]
    assert verdict["missing"] == [] and verdict["extra"] == []


def test_serve_json_document(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert document["service"]["tenants"] == 2
    assert document["service"]["events_analyzed"] == 2000
    assert document["events_per_s"] > 0
    assert document["reports"]
    assert all(r["tenant"].startswith("tenant-")
               for r in document["reports"])


def test_serve_checkpoint_resume_round_trip(
    full_character, tmp_path, capsys
):
    checkpoints = str(tmp_path / "ckpt")
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--checkpoint-dir", checkpoints,
                 "--checkpoint-every", "500",
                 "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["service"]["checkpoints_written"] > 0

    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--checkpoint-dir", checkpoints, "--resume",
                 "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["service"]["sessions_restored"] == 2
    # The restored watermark carries over: 2000 restored + 2000 new.
    assert second["service"]["events_analyzed"] == 4000


def test_serve_verify_checkpoint_oracle(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--verify", "checkpoint", "--cuts", "2",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    verdict = document["verify_checkpoint"]
    assert verdict["ok"] is True
    assert len(verdict["cuts"]) == 2
    assert verdict["straight_reports"] == verdict["restored_reports"]
