"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_flags_before_subcommand(self):
        args = build_parser().parse_args(["--scale", "0.5", "--seed", "9", "table3"])
        assert args.scale == 0.5
        assert args.seed == 9

    def test_global_flags_after_subcommand(self):
        args = build_parser().parse_args(["table3", "--scale", "0.25"])
        assert args.scale == 0.25

    def test_flags_default_via_getattr(self):
        args = build_parser().parse_args(["table3"])
        assert getattr(args, "scale", 1.0) == 1.0

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4", "sec5",
                        "figures", "ablation-metrics", "ablation-triggers",
                        "ablation-hardware", "disasm", "inject", "plan"):
            args = parser.parse_args(
                [command] + (["C.team1"] if command == "disasm" else [])
                + (["f.c"] if command == "inject" else [])
                + (["report", "d"] if command == "plan" else [])
            )
            assert args.command == command


class TestFastCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "SOR" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "value +1" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "Paper injected" in capsys.readouterr().out

    def test_disasm(self, capsys):
        assert main(["disasm", "JB.team11"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "blr" in out

    def test_ablation_metrics(self, capsys):
        assert main(["ablation-metrics", "--faults", "20"]) == 0
        assert "Ablation A1" in capsys.readouterr().out

    def test_inject_custom_file(self, capsys, tmp_path):
        source = tmp_path / "mini.c"
        source.write_text(
            "void main() { int x = 1; if (x < 3) { x = 2; } print_int(x); exit(0); }"
        )
        assert main(["inject", str(source), "--locations", "2"]) == 0
        out = capsys.readouterr().out
        assert "assignment locations" in out
        assert "OpcodeFetch" in out


class TestTraceCommand:
    def test_trace_flag_registered_on_figures(self):
        args = build_parser().parse_args(["figures", "--trace"])
        assert args.trace is True
        assert build_parser().parse_args(["figures"]).trace is False

    def test_trace_report_parses(self):
        args = build_parser().parse_args(
            ["trace", "report", "some/dir", "--perfetto", "out.json"]
        )
        assert args.command == "trace"
        assert args.journal_dir == "some/dir"
        assert args.perfetto == "out.json"

    def test_trace_report_missing_journal_is_an_error(self, capsys, tmp_path):
        assert main(["trace", "report", str(tmp_path / "nope")]) == 1
        assert "no campaign journal" in capsys.readouterr().err

    def test_trace_report_renders_journal(self, capsys, tmp_path):
        from repro.lang import compile_source
        from repro.swifi import (
            Action, Arithmetic, CampaignConfig, CampaignRunner, MachineFault,
            InputCase, OpcodeFetch, StoreValue,
        )

        source = (
            "int in_x;\n"
            "void main() {\n"
            "    int total = in_x + 1;\n"
            "    print_int(total);\n"
            "    exit(0);\n"
            "}\n"
        )
        compiled = compile_source(source, "addone")
        cases = [InputCase("a", {"in_x": 4}, b"5")]
        site = compiled.debug.assignments[0]
        faults = [MachineFault("fetch", OpcodeFetch(site.address),
                            (Action(StoreValue(), Arithmetic(1)),))]
        journal_dir = str(tmp_path / "journal")
        CampaignRunner(compiled, cases).run(faults, config=CampaignConfig(
            journal_dir=journal_dir, trace=True, snapshot="auto", seed=1,
        ))
        perfetto = str(tmp_path / "perfetto.json")
        assert main(["trace", "report", journal_dir,
                     "--perfetto", perfetto]) == 0
        out = capsys.readouterr().out
        assert "journaled runs: 1" in out
        assert "Execution paths" in out
        assert "trace events" in out
        import json
        import os
        assert os.path.exists(perfetto)
        with open(perfetto, "r", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]


class TestFiguresChoiceValidation:
    def test_bad_engine_exits_2_naming_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--engine", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "auto" in err and "simple" in err and "trace" in err

    @pytest.mark.parametrize("command", [["figures"], ["submit", "http://h:1"]])
    def test_block_is_not_an_engine(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--engine", "block"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'block'" in err
        assert "auto" in err and "simple" in err and "trace" in err

    def test_bad_snapshot_exits_2_naming_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--snapshot", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "off" in err and "auto" in err and "verify" in err

    def test_valid_choices_parse(self):
        args = build_parser().parse_args(
            ["figures", "--engine", "simple", "--snapshot", "verify"])
        assert args.engine == "simple"
        assert args.snapshot == "verify"

    def test_trace_engine_parses_everywhere(self):
        for argv in (
            ["figures", "--engine", "trace"],
            ["ablation-triggers", "--engine", "trace"],
            ["ablation-hardware", "--engine", "trace"],
            ["srcfi", "campaign", "--engine", "trace"],
            ["srcfi", "compare", "--engine", "trace"],
        ):
            assert build_parser().parse_args(argv).engine == "trace"

    def test_engine_defaults_to_auto_everywhere(self):
        for argv in (
            ["figures"],
            ["ablation-triggers"],
            ["ablation-hardware"],
            ["srcfi", "campaign"],
            ["srcfi", "compare"],
            ["submit", "http://h:1"],
        ):
            assert build_parser().parse_args(argv).engine == "auto"
            assert build_parser().parse_args(
                argv + ["--engine", "simple"]).engine == "simple"


class TestSourceTierFlagConflicts:
    """--tier source + machine-tier-only flags: a one-line exit-2
    diagnostic from the CLI, not the deep run_source_campaign rejection."""

    @pytest.mark.parametrize("extra, named", [
        (["--snapshot", "auto"], "--snapshot auto"),
        (["--snapshot", "verify"], "--snapshot verify"),
        (["--prune"], "--prune"),
        (["--memoize"], "--memoize"),
        (["--memoize", "--memo-dir", "m"], "--memo-dir"),
        (["--memoize", "--plan-verify", "0.5"], "--plan-verify"),
    ])
    def test_machine_only_flags_exit_2(self, capsys, extra, named):
        code = main(["figures", "--tier", "source"] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert named in err
        assert "--tier machine" in err

    def test_conflicting_flags_are_all_named(self, capsys):
        code = main(["figures", "--tier", "source", "--snapshot", "auto",
                     "--prune", "--memoize"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--snapshot auto" in err
        assert "--prune" in err
        assert "--memoize" in err


class TestJobsValidation:
    @pytest.mark.parametrize("command", ["figures", "ablation-triggers",
                                         "ablation-hardware"])
    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_non_positive_jobs_exits_2(self, capsys, command, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--jobs", value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_non_numeric_jobs_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--jobs", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_positive_jobs_parse(self):
        assert build_parser().parse_args(["figures", "--jobs", "4"]).jobs == 4


class TestPlanCommand:
    def test_planner_flags_registered_on_figures(self):
        args = build_parser().parse_args(
            ["figures", "--prune", "--memoize", "--memo-dir", "m",
             "--plan-verify", "0.25"])
        assert args.prune and args.memoize
        assert args.memo_dir == "m"
        assert args.plan_verify == 0.25
        bare = build_parser().parse_args(["figures"])
        assert not bare.prune and not bare.memoize
        assert bare.memo_dir is None and bare.plan_verify == 0.0

    def test_plan_report_missing_journal_is_an_error(self, capsys, tmp_path):
        assert main(["plan", "report", str(tmp_path / "nope")]) == 1
        assert "no campaign journal" in capsys.readouterr().err

    def test_plan_report_totals_match_journal(self, capsys, tmp_path):
        import json
        import os

        from repro.lang import compile_source
        from repro.swifi import (
            Action, Arithmetic, CampaignConfig, CampaignRunner, MachineFault,
            InputCase, OpcodeFetch, StoreValue, Temporal,
        )

        source = (
            "int in_x;\n"
            "void main() {\n"
            "    int total = in_x + 1;\n"
            "    print_int(total);\n"
            "    exit(0);\n"
            "}\n"
        )
        compiled = compile_source(source, "addone")
        cases = [InputCase("a", {"in_x": 4}, b"5")]
        site = compiled.debug.assignments[0]
        faults = [
            MachineFault("fetch", OpcodeFetch(site.address),
                      (Action(StoreValue(), Arithmetic(1)),),
                      metadata=(("klass", "assignment"),)),
            # Triggers far beyond the golden instruction count: the
            # dormancy prover answers it without booting.
            MachineFault("late", Temporal(10_000_000),
                      (Action(StoreValue(), Arithmetic(1)),),
                      metadata=(("klass", "assignment"),)),
        ]
        journal_dir = str(tmp_path / "journal")
        CampaignRunner(compiled, cases).run(faults, config=CampaignConfig(
            journal_dir=journal_dir, prune=True, memoize=True, seed=1,
        ))
        assert main(["plan", "report", journal_dir]) == 0
        out = capsys.readouterr().out
        with open(os.path.join(journal_dir, "runs.jsonl"), encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        run_count = sum(1 for entry in entries if entry["type"] == "run")
        assert f"journaled runs: {run_count}" in out
        assert run_count == 2
        assert "pruned: 1" in out
        # The journaled plan line agrees with the recomputed partition.
        plans = [entry for entry in entries if entry["type"] == "plan"]
        assert len(plans) == 1
        assert plans[0]["plan"]["pruned"] == 1
        assert plans[0]["plan"]["total"] == run_count


class TestVerifyCommand:
    def test_fuzz_flags_parse(self):
        args = build_parser().parse_args(
            ["verify", "fuzz", "--seed", "7", "--cases", "50",
             "--time-budget", "30", "--artifact-dir", "out", "--state-only",
             "--no-shrink", "--quiet"])
        assert args.command == "verify"
        assert args.seed == 7
        assert args.cases == 50
        assert args.time_budget == 30.0
        assert args.state_only and args.no_shrink and args.quiet

    def test_small_fuzz_run_is_clean(self, capsys):
        assert main(["verify", "fuzz", "--seed", "3", "--cases", "6",
                     "--inputs", "1", "--faults", "2", "--state-only",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "no divergences" in out

    def test_replay_missing_artifact_exits_2(self, capsys):
        assert main(["verify", "replay", "does/not/exist.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestTierFlag:
    @pytest.mark.parametrize("argv", [
        ["figures", "--tier", "bogus"],
        ["verify", "fuzz", "--tier", "bogus"],
        ["srcfi", "campaign", "--tier", "bogus"],
    ])
    def test_bad_tier_exits_2_naming_choices(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "machine" in err and "source" in err

    def test_tier_defaults(self):
        assert build_parser().parse_args(["figures"]).tier == "machine"
        assert build_parser().parse_args(["verify", "fuzz"]).tier == "machine"
        assert build_parser().parse_args(["srcfi", "campaign"]).tier == "source"


class TestUniformFlags:
    """--jobs/--journal-dir/--resume/--trace parse the same everywhere."""

    @pytest.mark.parametrize("prefix", [
        ["figures"],
        ["verify", "fuzz"],
        ["srcfi", "campaign"],
        ["srcfi", "compare"],
    ])
    def test_uniform_flags_parse(self, prefix):
        args = build_parser().parse_args(
            prefix + ["--jobs", "2", "--journal-dir", "j",
                      "--resume", "--trace"])
        assert args.jobs == 2
        assert args.journal_dir == "j"
        assert args.resume and args.trace

    @pytest.mark.parametrize("prefix", [
        ["figures"],
        ["verify", "fuzz"],
        ["srcfi", "campaign"],
        ["srcfi", "compare"],
    ])
    def test_non_positive_jobs_exits_2(self, capsys, prefix):
        with pytest.raises(SystemExit) as excinfo:
            main(prefix + ["--jobs", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestOptFlag:
    """--opt {0,1}: parse-time validation plus the paper-fidelity guard."""

    @pytest.mark.parametrize("value", ["2", "-1", "9"])
    def test_out_of_range_opt_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["disasm", "C.team1", "--opt", value])
        assert excinfo.value.code == 2
        assert "must be 0 or 1" in capsys.readouterr().err

    def test_non_numeric_opt_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["disasm", "C.team1", "--opt", "fast"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figures", "--opt", "1"],
        ["table1", "--opt", "1"],
        ["table4", "--opt", "1"],
        ["sec5", "--opt", "1"],
        ["ablation-triggers", "--opt", "1"],
        ["ablation-hardware", "--opt", "1"],
        ["srcfi", "compare", "--opt", "1"],
        ["srcfi", "campaign", "--opt", "1"],
    ])
    def test_paper_commands_reject_opt_1(self, capsys, argv):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert "O0" in err

    def test_paper_commands_accept_explicit_opt_0(self, capsys):
        assert main(["table2", "--opt", "0"]) == 0
        assert "SOR" in capsys.readouterr().out

    def test_disasm_at_o1_differs_from_o0(self, capsys):
        assert main(["disasm", "JB.team11"]) == 0
        o0_listing = capsys.readouterr().out
        assert main(["disasm", "JB.team11", "--opt", "1"]) == 0
        o1_listing = capsys.readouterr().out
        assert "main:" in o1_listing and "blr" in o1_listing
        assert o1_listing != o0_listing
        assert o1_listing.count("\n") < o0_listing.count("\n")

    def test_coverage_runs_at_o1(self, capsys):
        assert main(["coverage", "JB.team11", "--inputs", "1",
                     "--opt", "1"]) == 0
        assert "fault-site coverage" in capsys.readouterr().out

    def test_inject_runs_at_o1(self, capsys, tmp_path):
        source = tmp_path / "mini.c"
        source.write_text(
            "int in_x;\nint out;\n"
            "void main() { out = in_x + 2; if (out < 9) { out = 9; } "
            "print_int(out); exit(0); }"
        )
        assert main(["inject", str(source), "--locations", "2",
                     "--opt", "1"]) == 0
        assert "assignment locations" in capsys.readouterr().out

    def test_verify_fuzz_opt_flag_parses(self):
        args = build_parser().parse_args(["verify", "fuzz", "--opt", "1"])
        assert args.opt == 1
        assert build_parser().parse_args(["verify", "fuzz"]).opt == 0

    def test_small_opt_axis_fuzz_run_is_clean(self, capsys):
        assert main(["verify", "fuzz", "--seed", "5", "--cases", "8",
                     "--inputs", "1", "--faults", "2", "--state-only",
                     "--quiet", "--opt", "1"]) == 0
        out = capsys.readouterr().out
        assert "no divergences" in out
        assert "O0-vs-O1" in out


class TestSrcfiCommand:
    def test_sites_lists_mutation_points(self, capsys):
        assert main(["srcfi", "sites", "JB.team6"]) == 0
        out = capsys.readouterr().out
        assert "mutation site" in out
        assert "assign-plus-1" in out

    def test_unknown_srcfi_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["srcfi", "nope"])
        assert excinfo.value.code == 2

    def test_bad_class_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["srcfi", "campaign", "--classes", "cosmic"])
        assert excinfo.value.code == 2
        assert "algorithm" in capsys.readouterr().err

    def test_campaign_prints_mode_tallies(self, capsys):
        assert main(["srcfi", "campaign", "--programs", "JB.team6",
                     "--classes", "checking", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "JB.team6/checking" in out
        assert "correct=" in out

    def test_compare_writes_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "results")
        assert main(["srcfi", "compare", "--programs", "JB.team6",
                     "--max-sites", "2", "--no-real", "--quiet",
                     "--scale", "0.3", "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "ODC class" in out
        assert (tmp_path / "results" / "srcfi_agreement.json").exists()
        assert (tmp_path / "results" / "srcfi_agreement.txt").exists()

    def test_fuzz_source_tier_runs_clean(self, capsys):
        assert main(["verify", "fuzz", "--tier", "source", "--seed", "2",
                     "--cases", "4", "--inputs", "1", "--faults", "2",
                     "--jobs", "2", "--quiet"]) == 0
        assert "no divergences" in capsys.readouterr().out
