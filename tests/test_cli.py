"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def win_dl(tmp_path):
    path = tmp_path / "win.dl"
    path.write_text(
        "win(X) :- move(X, Y), not win(Y).\n"
        "move(a, b).\nmove(b, c).\nmove(d, d).\n"
    )
    return str(path)


@pytest.fixture()
def win_alg(tmp_path):
    path = tmp_path / "win.alg"
    path.write_text("relations MOVE;\nWIN = pi1(MOVE - (pi1(MOVE) * WIN));\n")
    return str(path)


@pytest.fixture()
def move_facts(tmp_path):
    path = tmp_path / "facts.alg"
    path.write_text("MOVE = {[a, b], [b, c]};\n")
    return str(path)


class TestDatalogCommand:
    def test_valid_semantics(self, win_dl, capsys):
        assert main(["datalog", win_dl]) == 0
        out = capsys.readouterr().out
        assert "win:" in out
        assert "(b)" in out            # b wins on the chain
        assert "undefined: (d)" in out  # the self-loop draw

    def test_inflationary_semantics(self, win_dl, capsys):
        assert main(["datalog", win_dl, "--semantics", "inflationary"]) == 0
        out = capsys.readouterr().out
        assert "undefined" not in out

    def test_query_selection(self, win_dl, capsys):
        assert main(["datalog", win_dl, "--query", "win"]) == 0
        assert "win:" in capsys.readouterr().out

    def test_separate_facts_file(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text("p(X) :- e(X).\n")
        facts = tmp_path / "f.dl"
        facts.write_text("e(a).\ne(b).\n")
        assert main(["datalog", str(program), "--facts", str(facts)]) == 0
        out = capsys.readouterr().out
        assert "(a)" in out and "(b)" in out

    def test_nonfact_in_facts_file_rejected(self, tmp_path, win_dl):
        facts = tmp_path / "bad.dl"
        facts.write_text("e(X) :- f(X).\n")
        with pytest.raises(SystemExit):
            main(["datalog", win_dl, "--facts", str(facts)])

    def test_run_is_an_alias_for_datalog(self, win_dl, capsys):
        assert main(["run", win_dl]) == 0
        out = capsys.readouterr().out
        assert "win:" in out and "(b)" in out


@pytest.fixture()
def tc_chain_dl(tmp_path):
    path = tmp_path / "tc.dl"
    facts = "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(30))
    path.write_text(
        "tc(X, Y) :- edge(X, Y).\n"
        "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n" + facts
    )
    return str(path)


class TestOneShotBudgets:
    """``repro run`` / ``repro datalog`` under an EvaluationBudget."""

    def test_within_budget_runs_normally(self, tc_chain_dl, capsys):
        code = main(
            ["run", tc_chain_dl, "--semantics", "stratified",
             "--deadline-ms", "60000", "--max-steps", "1000000"]
        )
        assert code == 0
        assert "tc:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, code_prefix",
        [
            (["--max-steps", "3"], "error budget-exceeded BudgetExceeded:"),
            (["--max-facts", "3"], "error budget-exceeded BudgetExceeded:"),
        ],
        ids=["max-steps", "max-facts"],
    )
    def test_budget_trip_is_a_wire_coded_error(
        self, tc_chain_dl, capsys, flags, code_prefix
    ):
        code = main(
            ["run", tc_chain_dl, "--semantics", "stratified", *flags]
        )
        captured = capsys.readouterr()
        # The governed failure surfaces as the protocol's error line on
        # stdout with exit code 1 — never as a traceback.
        assert code == 1
        assert captured.out.startswith(code_prefix)
        assert "Traceback" not in captured.out + captured.err

    def test_deadline_trip_on_divergent_program(self, tmp_path, capsys):
        program = tmp_path / "nat.dl"
        program.write_text("nat(Y) :- nat(X), Y = succ(X).\nnat(0).\n")
        code = main(
            ["datalog", str(program), "--semantics", "stratified",
             "--deadline-ms", "200",
             "--max-rounds", "1000000000", "--max-atoms", "1000000000"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("error ")
        assert (
            "deadline-exceeded" in captured.out
            or "budget-exceeded" in captured.out
        )
        assert "Traceback" not in captured.out + captured.err


class TestAlgebraCommand:
    def test_run(self, win_alg, move_facts, capsys):
        assert main(
            ["algebra", win_alg, "--facts", move_facts, "--dialect", "algebra="]
        ) == 0
        out = capsys.readouterr().out
        # Chain a → b → c: c is a sink, so b wins and a loses.
        assert "WIN = {b}" in out
        assert "total" in out

    def test_undefined_reported(self, tmp_path, win_alg, capsys):
        facts = tmp_path / "cyclic.alg"
        facts.write_text("MOVE = {[a, a]};\n")
        assert main(
            ["algebra", win_alg, "--facts", str(facts), "--dialect", "algebra="]
        ) == 0
        out = capsys.readouterr().out
        assert "undefined members: a" in out
        assert "undefined memberships" in out

    def test_nested_ifp_reads_the_outer_parameter(self, tmp_path, capsys):
        program = tmp_path / "nested.alg"
        program.write_text("relations A;\nS = ifp(X, A u ifp(Y, X));\n")
        facts = tmp_path / "a.alg"
        facts.write_text("A = {a, b};\n")
        assert main(["algebra", str(program), "--facts", str(facts)]) == 0
        assert "S = {a b}" in capsys.readouterr().out.splitlines()


class TestTranslateCommand:
    def test_to_datalog(self, win_alg, capsys):
        assert main(
            ["translate", win_alg, "--to", "datalog", "--dialect", "algebra="]
        ) == 0
        out = capsys.readouterr().out
        assert "s_WIN" in out
        assert ":-" in out

    def test_to_algebra(self, win_dl, capsys):
        assert main(["translate", win_dl, "--to", "algebra"]) == 0
        out = capsys.readouterr().out
        assert "relations move;" in out
        assert "win =" in out


class TestCheckCommand:
    def test_nonstratified_reported(self, win_dl, capsys):
        assert main(["check", win_dl]) == 0
        out = capsys.readouterr().out
        assert "stratified: no" in out
        assert "all rules safe" in out

    def test_stratified_strata_printed(self, tmp_path, capsys):
        program = tmp_path / "strat.dl"
        program.write_text("p(X) :- e(X).\nq(X) :- e(X), not p(X).\n")
        assert main(["check", str(program)]) == 0
        out = capsys.readouterr().out
        assert "stratified: yes (2 strata)" in out

    def test_unsafe_rule_fails(self, tmp_path, capsys):
        program = tmp_path / "unsafe.dl"
        program.write_text("q(X) :- not p(X).\n")
        assert main(["check", str(program)]) == 1
        assert "UNSAFE" in capsys.readouterr().out


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, script):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve"]) == 0
        return capsys.readouterr().out.splitlines()

    def test_register_query_update_stats(self, monkeypatch, capsys, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
            "edge(a, b).\nedge(b, c).\n"
        )
        out = self._serve(
            monkeypatch,
            capsys,
            f"register tc stratified {program}\n"
            "query tc tc\n"
            "+tc edge(c, d)\n"
            "query tc tc\n"
            "-tc edge(a, b)\n"
            "query tc tc\n"
            "stats tc\n"
            "quit\n",
        )
        assert out[0].startswith("ok {")
        assert "row tc(a, c)" in out
        assert "row tc(a, d)" in out          # appears after the insert
        assert "row tc(b, d)" in out          # survives the deletion
        stats_line = next(line for line in out if '"counters"' in line)
        import json

        payload = json.loads(stats_line[len("ok ") :])
        assert payload["mode"] == "incremental"
        assert payload["counters"]["update_batches"] == 2
        assert out[-1] == "ok bye"

    def test_fallback_to_recompute_path(self, monkeypatch, capsys, win_dl):
        import json

        for semantics, mode, recomputes in (
            ("valid", "incremental", 0),
            ("inflationary", "recompute", 1),
        ):
            out = self._serve(
                monkeypatch,
                capsys,
                f"register win {semantics} {win_dl}\n"
                "query win win\n"
                "-win move(a, b)\n"
                "query win win\n"
                "stats win\n",
            )
            assert ("undef win(d)" in out) == (semantics == "valid")
            payload = json.loads(out[-1][len("ok ") :])
            assert payload["mode"] == mode
            assert payload["counters"]["recompute_batches"] == recomputes

    def test_bad_requests_keep_serving(self, monkeypatch, capsys):
        out = self._serve(
            monkeypatch,
            capsys,
            "query missing p\n"
            "register ok stratified p(X) :- e(X). e(a).\n"
            "query ok p\n",
        )
        assert out[0].startswith("error KeyError")
        assert out[-1] == "ok 1 rows"

    def test_serve_with_resource_limit_flags(self, monkeypatch, capsys):
        import io
        import sys as _sys

        script = (
            "register tc stratified tc(X,Y) :- e(X,Y). e(a,b). e(b,c).\n"
            "query tc tc\n"
            "query tc " + "x" * 200 + "\n"
            "query tc tc\n"
            "quit\n"
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(script))
        assert (
            main(
                [
                    "serve",
                    "--deadline-ms",
                    "5000",
                    "--max-request-bytes",
                    "128",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ok {")
        assert "ok 2 rows" in out
        oversized = [line for line in out if "request-too-large" in line]
        assert oversized and oversized[0].startswith(
            "error request-too-large RequestTooLarge:"
        )
        assert out[-1] == "ok bye"

    def test_serve_deadline_rejects_divergent_updates(self, monkeypatch, capsys):
        import io
        import sys as _sys
        import time

        script = (
            "register nat stratified nat(Y) :- nat(X), Y = succ(X). nat(0).\n"
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(script))
        start = time.monotonic()
        assert main(["serve", "--deadline-ms", "200", "--max-rounds", "1000000000", "--max-atoms", "1000000000"]) == 0
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out.splitlines()
        # Registration materializes the view; grounding the divergent
        # program must hit the deadline, not loop forever...
        assert any(
            line.startswith("error deadline-exceeded DeadlineExceeded:")
            or line.startswith("error budget-exceeded")
            for line in out
        )
        # ...and within 2x the configured deadline (plus process slack).
        assert elapsed < 5.0

    def test_metrics_snapshot_flag(self, monkeypatch, capsys):
        import io
        import json

        script = (
            "register tc stratified tc(X,Y) :- e(X,Y). e(a,b).\n"
            "query tc tc\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", "--metrics-snapshot"]) == 0
        out = capsys.readouterr().out.splitlines()
        # After "ok bye" the service dumps one JSON metrics document.
        snapshot = json.loads(out[-1])
        assert snapshot["counters"]["requests_total"] == 2
        assert snapshot["gauges"]["views_registered"] == 1
        assert "tc" in snapshot["gauges"]["time_in_degraded"]

    def test_unix_socket_serving(self, tmp_path):
        import socket
        import threading

        path = str(tmp_path / "cli.sock")
        thread = threading.Thread(
            target=main,
            args=(["serve", "--socket", path, "--max-connections", "1"],),
        )
        thread.start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            for _ in range(200):
                try:
                    client.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    import time

                    time.sleep(0.01)
            with client:
                client.sendall(
                    b"register tc stratified tc(X,Y) :- e(X,Y). e(a,b).\n"
                    b"query tc tc\nquit\n"
                )
                reader = client.makefile("r")
                replies = [reader.readline().strip() for _ in range(4)]
        finally:
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert replies[0].startswith("ok {")
        assert replies[1] == "row tc(a, b)"
        assert replies[2] == "ok 1 rows"
        assert replies[3] == "ok bye"
