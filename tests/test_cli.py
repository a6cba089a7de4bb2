import json
from fractions import Fraction

import pytest

from wdss import cli
from wdss.demo import example_instance
from wdss.model import dump_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


BASE = ["-n", "8", "-k", "3", "-d", "4", "-r", "2", "-T", "2"]


class TestBound:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "bound", *BASE, "--alpha", "1",
                           "--beta", "1")
        assert code == 0
        assert "value: 3" in out

    def test_machine(self, capsys):
        code, doc, _ = run_json(capsys, "bound", *BASE, "--alpha", "1",
                                "--beta", "1/4")
        assert code == 0
        assert doc["value"] == "3/2"
        assert doc["linear_form"] == {"a": 0, "b": 6}
        assert doc["effective_horizon"] == 2

    def test_infeasible_params(self, capsys):
        code, _, err = run(capsys, "bound", "-n", "8", "-k", "4", "-d", "9",
                           "-r", "2", "-T", "2", "--alpha", "1", "--beta", "1")
        assert code == cli.EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "-n", "8")
        assert code == cli.EXIT_USAGE
        assert "error" in err

    def test_bad_fraction(self, capsys):
        code, _, _ = run(capsys, "bound", *BASE, "--alpha", "x/y",
                         "--beta", "1")
        assert code == cli.EXIT_USAGE


class TestMincut:
    def test_from_instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(example_instance()))
        code, doc, _ = run_json(capsys, "mincut", "--instance", str(path))
        assert code == 0
        assert doc["value"] == "3"
        assert not doc["truncated"]

    def test_from_params(self, capsys):
        code, doc, _ = run_json(capsys, "mincut", "-n", "5", "-k", "2",
                                "-d", "3", "-r", "1", "-T", "1",
                                "--alpha", "1", "--beta", "1")
        assert code == 0
        assert doc["value"] == "2"

    def test_adversarial_scope(self, capsys):
        code, doc, _ = run_json(capsys, "mincut", *BASE, "--alpha", "1",
                                "--beta", "1/4", "--scope", "adversarial")
        assert code == 0
        assert doc["value"] == "3/2"

    def test_requires_instance_or_params(self, capsys):
        code, _, err = run(capsys, "mincut")
        assert code == cli.EXIT_INFEASIBLE
        assert "instance" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mincut", "--instance",
                         str(tmp_path / "nope.json"))
        assert code == cli.EXIT_USAGE

    def test_zero_limit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mincut", *BASE, "--alpha", "1",
                             "--beta", "1", "--limit", "0")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "limit must be at least 1" in err
        assert "Traceback" not in err


class TestTightness:
    def test_certifies(self, capsys):
        code, doc, _ = run_json(capsys, "tightness", *BASE, "--alpha", "1",
                                "--beta", "1")
        assert code == 0
        assert doc["c_lb"] == doc["adversarial_cut_capacity"] == \
            doc["witness_collector_max_flow"] == "3"
        assert "mismatch" not in doc

    def test_small_system_infeasible(self, capsys):
        code, _, err = run(capsys, "tightness", "-n", "6", "-k", "3",
                           "-d", "4", "-r", "2", "-T", "2",
                           "--alpha", "1", "--beta", "1")
        assert code == cli.EXIT_INFEASIBLE
        assert "n >= k + 2r" in err


class TestTruncation:
    def test_saturates(self, capsys):
        code, doc, _ = run_json(capsys, "truncation", "-n", "8", "-k", "3",
                                "-d", "4", "-r", "2", "-T", "6",
                                "--alpha", "1", "--beta", "1", "--extra", "1")
        assert code == 0
        assert doc["horizons"] == [5, 6]
        assert doc["all_equal"]

    def test_short_horizon_infeasible(self, capsys):
        code, _, _ = run(capsys, "truncation", *BASE, "--alpha", "1",
                         "--beta", "1")
        assert code == cli.EXIT_INFEASIBLE


class TestTradeoff:
    ARGS = ["-n", "15", "-k", "4", "-d", "9", "-r", "2", "-T", "6"]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "tradeoff", *self.ARGS, "--grid", "5")
        assert code == 0
        assert "tau,alpha,beta" in out
        assert "9/28,1/4,1/14" in out

    def test_machine_endpoints(self, capsys):
        code, doc, _ = run_json(capsys, "tradeoff", *self.ARGS, "--grid", "3")
        assert code == 0
        pts = doc["points"]
        assert pts[0]["tau"] == pts[0]["alpha"] == "9/32"
        assert pts[-1] == {"tau": "9/28", "alpha": "1/4", "beta": "1/14"}

    def test_zero_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "tradeoff", *self.ARGS, "--grid", "0")
        assert code == cli.EXIT_INFEASIBLE


class TestSimulate:
    def test_achieves_bound(self, capsys):
        code, doc, _ = run_json(capsys, "simulate", *BASE, "--alpha", "2",
                                "--beta", "1", "--B", "5", "--trials", "20",
                                "--seed", "0")
        assert code == 0
        assert doc["violations"] == []
        assert doc["min_rate"] >= 0.9

    def test_fractional_alpha_infeasible(self, capsys):
        code, _, _ = run(capsys, "simulate", *BASE, "--alpha", "1/2",
                         "--beta", "1", "--B", "1")
        assert code == cli.EXIT_INFEASIBLE

    def test_instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(example_instance(2, 1)))
        code, doc, _ = run_json(capsys, "simulate", *BASE, "--alpha", "2",
                                "--beta", "1", "--B", "5", "--trials", "5",
                                "--instance", str(path))
        assert code == 0
        assert doc["violations"] == []


class TestFigures:
    def test_figure1_default(self, capsys):
        code, doc, _ = run_json(capsys, "figure1")
        assert code == 0
        caps = {c["name"]: c["capacity"] for c in doc["cuts"]}
        assert caps == {"cut1": "7", "cut2": "4"}
        assert all(c["capacity"] == c["expected"] for c in doc["cuts"])

    def test_figure1_prices(self, capsys):
        code, doc, _ = run_json(capsys, "figure1", "--alpha", "2",
                                "--beta", "1/7")
        assert code == 0
        caps = {c["name"]: c["capacity"] for c in doc["cuts"]}
        assert caps == {"cut1": "1", "cut2": "17/7"}

    def test_figure4_default(self, capsys):
        code, doc, _ = run_json(capsys, "figure4")
        assert code == 0
        assert doc["gaps"] == {"ms": "1/28", "mt": "1/64"}
        assert len(doc["broadcast_curve"]) == 33
        assert doc["endpoints"]["ms_cooperative"]["tau"] == "5/14"

    def test_figure4_human_has_gap_comments(self, capsys):
        code, out, _ = run(capsys, "figure4", "--grid", "3")
        assert code == 0
        assert "# ms gap" in out and "1/28" in out


class TestParser:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == cli.EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == cli.EXIT_USAGE
