"""Command-line interface: output schema, determinism, exit codes."""

import json

import pytest

from coxgrowth.cli import main, run_selftest
from coxgrowth.ratfun import RatFun, expand


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "cartan", "A2")
        assert code == 0 and "rank: 2" in out

    def test_usage_error_bad_type(self, capsys):
        code, _, err = run(capsys, "cartan", "Z9")
        assert code == 2 and "error" in err

    def test_usage_error_bad_subset(self, capsys):
        code, _, err = run(capsys, "series", "--type", "A2",
                           "--J", "5", "--K", "")
        assert code == 2

    def test_usage_error_pmatrix_K_outside_subset(self, capsys):
        code, out, err = run(capsys, "finite", "--type", "A2", "--subset",
                             "1", "--what", "pmatrix", "--K", "2")
        assert code == 2 and out == "" and "not inside" in err

    def test_usage_error_hmatrix_J_outside_subset(self, capsys):
        code, out, err = run(capsys, "finite", "--type", "A2", "--subset",
                             "1", "--what", "hmatrix", "--J", "2")
        assert code == 2 and out == "" and "not inside" in err

    def test_usage_error_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["bogus"])
        assert ei.value.code == 2

    def test_verify_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A1",
                           "--max-length", "10")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_check_success(self, capsys):
        code, out, _ = run(capsys, "check", "--type", "A1", "--degree", "10")
        assert code == 0


class TestJsonOutput:
    def test_series_schema(self, capsys):
        code, out, _ = run(capsys, "series", "--type", "A2", "--J", "1",
                           "--K", "2", "--expand", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"type", "J", "K", "series", "expansion"}
        assert doc["type"] == "A2"
        assert doc["J"] == [1] and doc["K"] == [2]
        assert set(doc["series"]) == {"num", "den"}
        # the serialized series re-expands to the reported expansion
        r = RatFun.from_json(doc["series"])
        assert expand(r, 10) == doc["expansion"]

    def test_empty_subsets(self, capsys):
        code, out, _ = run(capsys, "series", "--type", "A2", "--J", "",
                           "--K", "", "--expand", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["J"] == [] and doc["K"] == []
        assert doc["expansion"][0] == 1

    def test_deterministic(self, capsys):
        args = ["matrix", "--type", "A2", "--format", "json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        json.loads(out1)

    def test_oracle_schema(self, capsys):
        code, out, _ = run(capsys, "oracle", "--type", "A1", "--J", "",
                           "--K", "1", "--max-length", "6",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "bins" in doc and "total" in doc
        assert sum(doc["total"]) == sum(sum(v) for v in doc["bins"].values())


class TestSubcommands:
    def test_fq_single(self, capsys):
        code, out, _ = run(capsys, "fq", "--type", "A2", "--Q", "1")
        assert code == 0
        assert "t^6" in out

    def test_fq_latex(self, capsys):
        code, out, _ = run(capsys, "fq", "--type", "G2", "--format", "latex")
        assert code == 0 and r"\frac" in out

    def test_finite_poincare(self, capsys):
        code, out, _ = run(capsys, "finite", "--type", "A2")
        assert code == 0 and "order: 6" in out

    def test_finite_check(self, capsys):
        code, out, _ = run(capsys, "finite", "--type", "B2",
                           "--what", "check")
        assert code == 0

    def test_finite_pmatrix(self, capsys):
        code, out, _ = run(capsys, "finite", "--type", "A2",
                           "--what", "pmatrix", "--K", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [[], [1]]
        assert len(doc["entries"]) == 2 and len(doc["entries"][0]) == 4

    def test_selftest(self, capsys):
        assert run_selftest(verbose=False)
