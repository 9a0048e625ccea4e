"""CLI tests for the service trio: ``repro serve`` / ``work`` / ``submit``.

The satellite contract: ``--workers``, ``--port`` and ``--lease-timeout``
get the same parse-time positive-value validation as ``--jobs`` — a bad
value exits 2 with a one-line diagnostic naming the flag, before any
socket is opened or campaign built.
"""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_commands_registered(self):
        parser = build_parser()
        assert parser.parse_args(
            ["serve", "--state-dir", "s"]).command == "serve"
        assert parser.parse_args(["work", "http://h:1"]).command == "work"
        assert parser.parse_args(["submit", "http://h:1"]).command == "submit"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--state-dir", "s"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.lease_timeout == 30.0
        assert args.max_attempts is None and args.port_file is None

    def test_work_defaults(self):
        args = build_parser().parse_args(["work", "http://h:1"])
        assert args.workers == 1 and args.poll_interval == 0.5
        assert args.max_idle is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "http://h:1"])
        assert args.shard_size is None and args.engine == "auto"
        assert not args.no_wait and args.journal_dir is None

    def test_serve_requires_state_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2
        assert "--state-dir" in capsys.readouterr().err


class TestUniformValidation:
    """Bad values for the service flags exit 2 at parse time."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_workers_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["work", "http://h:1", "--workers", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "positive" in err

    def test_non_numeric_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["work", "http://h:1", "--workers", "many"])
        assert excinfo.value.code == 2
        assert "invalid int" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "65536", "1e4"])
    def test_bad_port_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--state-dir", "s", "--port", value])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2.5"])
    def test_non_positive_lease_timeout_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--state-dir", "s", "--lease-timeout", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--lease-timeout" in err and "positive" in err

    def test_non_positive_max_attempts_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--state-dir", "s", "--max-attempts", "0"])
        assert excinfo.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["submit", "http://h:1", "--shard-size", "0"],
        ["submit", "http://h:1", "--timeout", "-1"],
        ["work", "http://h:1", "--poll-interval", "0"],
        ["work", "http://h:1", "--max-idle", "-5"],
    ])
    def test_other_service_flags_share_the_validators(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[2] in capsys.readouterr().err

    def test_bad_engine_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "http://h:1", "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "simple" in capsys.readouterr().err  # names the choices


class TestGuards:
    def test_submit_source_tier_exits_2(self, capsys):
        assert main(["submit", "http://h:1", "--tier", "source"]) == 2
        err = capsys.readouterr().err
        assert "machine" in err and "--tier" not in err.split("error:")[0]

    def test_submit_unreachable_broker_exits_1(self, capsys):
        # Port 1 on localhost: connection refused, no server involved.
        assert main(["submit", "http://127.0.0.1:1", "--timeout", "5"]) == 1
        assert "unreachable" in capsys.readouterr().err

    def test_work_positive_workers_accepted(self):
        args = build_parser().parse_args(
            ["work", "http://h:1", "--workers", "3"])
        assert args.workers == 3

    def test_work_unreachable_broker_with_max_idle_exits_1(self, capsys):
        # Without --max-idle a worker retries an unreachable broker
        # forever (a broker restart must look like a slow network); with
        # it, a worker that never reached the broker at all must report
        # the bad URL rather than hang or exit 0.
        code = main(["work", "http://127.0.0.1:1",
                     "--poll-interval", "0.05", "--max-idle", "0.3"])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err

    def test_work_threaded_unreachable_broker_exits_1(self, capsys):
        code = main(["work", "http://127.0.0.1:1", "--workers", "2",
                     "--poll-interval", "0.05", "--max-idle", "0.3"])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err
