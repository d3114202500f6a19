"""Command-line interface: output schema, determinism, exit codes."""

import argparse
import hashlib
import json
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import affine, build_label, cli, cones, get_affine
from coxgrowth.affine import MAX_BFS_ELEMENTS
from coxgrowth.cli import MAX_DEGREE, check_fixture, main, run_selftest
from coxgrowth.cones import MAX_BOX_POINTS
from coxgrowth.finite import MAX_GROUP_ORDER
from coxgrowth.rootsystem import MAX_RANK
from coxgrowth.ratfun import IntPoly, RatFun, expand
from test_series import _run_optimized, _run_python


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

    def test_usage_error_series_Q_outside_K(self, capsys):
        code, out, err = run(capsys, "series", "--type", "A2", "--J", "1",
                             "--K", "1", "--Q", "2")
        assert code == 2 and out == ""
        assert "Q=[2] is not inside K=[1]" in err

    def test_usage_error_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["bogus"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["oracle", "--type", "A2", "--J", "1", "--K", "2",
         "--max-length", "-3"],
        ["check", "--type", "A1", "--degree", "-1"],
        ["verify", "--type", "A1", "--max-length", "-1"],
        ["series", "--type", "A2", "--J", "1", "--K", "2", "--expand", "-2"],
    ], ids=["oracle-max-length", "check-degree", "verify-max-length",
            "series-expand"])
    def test_usage_error_negative_length(self, capsys, argv):
        # argparse rejects the value, so nothing is computed or printed
        with pytest.raises(SystemExit) as ei:
            main(argv)
        out, err = capsys.readouterr()
        assert ei.value.code == 2
        assert out == "" and "must be >= 0" in err

    @pytest.mark.parametrize("argv, order", [
        (["finite", "--type", "E7"], 2903040),
        (["matrix", "--type", "E8"], 696729600),
    ], ids=["finite-E7", "matrix-E8"])
    def test_oversized_table_refused_at_once(self, argv, order):
        # the order is known in closed form, so the refusal comes before
        # the group table's BFS, well inside the timeout
        proc = _run_python(["-m", "coxgrowth.cli", *argv], timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"group order {order}" in proc.stderr
        assert f"bound {MAX_GROUP_ORDER}" in proc.stderr

    def test_closed_stdout_exits_141(self):
        # A4's matrix is 153 KB of JSON, more than a pipe buffer holds, so
        # the writer meets the closed pipe; 141 is what a shell reports
        # for a writer ended by SIGPIPE, and 1 stays a mismatch
        proc = _run_python(["-c", _CLOSED_PIPE_SCRIPT, "matrix", "--type",
                            "A4", "--format", "json"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["141", ""]

    @pytest.mark.parametrize("argv", [
        ["verify", "--type", "G2", "--max-length", "100000"],
        ["oracle", "--type", "A3", "--J", "1", "--K", "2",
         "--max-length", "100000"],
    ], ids=["verify-G2", "oracle-A3"])
    def test_huge_length_refused_before_enumerating(self, argv):
        # the element count comes from Bott's series, so the refusal
        # comes before the enumeration, well inside the timeout
        proc = _run_python(["-m", "coxgrowth.cli", *argv], timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "covers at least" in proc.stderr
        assert f"bound {MAX_BFS_ELEMENTS}" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "--type", "A2", "--degree"],
        ["series", "--type", "A2", "--J", "1", "--K", "2", "--expand"],
    ], ids=["check-degree", "series-expand"])
    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10 ** 8])
    def test_huge_degree_refused_at_once(self, capsys, argv, degree):
        # refused up front with one line, before any table or expansion
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv, str(degree))
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == ""
        assert err == (f"error: {argv[-1]} {degree} is over the degree "
                       f"bound {MAX_DEGREE}\n")

    @pytest.mark.parametrize("label", ["A1000", "B21", "D10000000"])
    def test_huge_rank_refused_at_once(self, capsys, label):
        # building the root system costs about rank^4, so the rank is
        # refused before any of it
        t0 = time.monotonic()
        code, out, err = run(capsys, "cartan", label)
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == ""
        assert err == (f"error: rank {label[1:]} is over the bound "
                       f"{MAX_RANK}\n")

    def test_rank_bound_admits_the_bound(self, capsys):
        code, out, _ = run(capsys, "cartan", f"A{MAX_RANK}", "--format",
                           "json")
        assert code == 0 and json.loads(out)["rank"] == MAX_RANK

    def test_huge_parallelepiped_refused_at_once(self, capsys):
        # A8's 2^8 residue boxes hold 16 * 10^6 points in all, the full
        # one 9^6 * 3^2; refused before any is enumerated, which took
        # minutes
        t0 = time.monotonic()
        code, out, err = run(capsys, "fq", "--type", "A8")
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == ""
        assert err == (f"error: A8: residue boxes of 16000000 points, over "
                       f"the bound {MAX_BOX_POINTS}\n")
        # one small box of A8 is admitted
        code, out, _ = run(capsys, "fq", "--type", "A8", "--Q",
                           "1,2,3,4,5,6,7", "--format", "json")
        assert code == 0
        assert json.loads(out)["f"]["1,2,3,4,5,6,7"]["parallelepiped"] == [
            [0] * 8]

    @pytest.mark.parametrize("argv", [
        ["matrix"], ["series", "--J", "1", "--K", "2"],
        ["verify", "--max-length", "2"], ["check"],
    ], ids=["matrix", "series", "verify", "check"])
    def test_huge_pipeline_refused_before_the_finite_walk(self, argv):
        # A8's finite group (362 880 elements) is under the table bound,
        # but the box of Q = {} (9^6 * 3^2 points) is refused before the
        # group is walked or the finite suite is run
        t0 = time.monotonic()
        proc = _run_python(["-m", "coxgrowth.cli", *argv, "--type", "A8"],
                           timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: A8: residue boxes of 4782969 points, "
                               f"over the bound {MAX_BOX_POINTS}\n")

    def test_box_bound_counts_every_box_scanned(self, capsys, monkeypatch):
        # the 2^3 residue boxes of A3 hold 75 points in all, the box of
        # Q = {2} 4 of them: the bound is on the boxes the command scans
        monkeypatch.setattr(cones, "MAX_BOX_POINTS", 75)
        assert run(capsys, "fq", "--type", "A3")[0] == 0
        monkeypatch.setattr(cones, "MAX_BOX_POINTS", 74)
        code, out, err = run(capsys, "fq", "--type", "A3")
        assert code == 2 and out == ""
        assert err == ("error: A3: residue boxes of 75 points, over the "
                       "bound 74\n")
        assert run(capsys, "fq", "--type", "A3", "--Q", "2")[0] == 0

    def test_subset_check_walks_only_its_parabolic(self, capsys):
        # the flips of the 4 subsets of {1, 2} are walked, not those of
        # all 2^14 subsets of A14's generators, which took seconds
        t0 = time.monotonic()
        code, out, _ = run(capsys, "finite", "--type", "A14", "--subset",
                           "1,2", "--what", "check")
        assert time.monotonic() - t0 < 2
        assert code == 0 and "FAIL" not in out

    def test_subset_check_sizes_its_lists_by_the_subset(self, capsys):
        # the 6-element table of W_{1,2} in A20 reads image lists of 4
        # entries, not of 2^20; those took seconds to build
        t0 = time.monotonic()
        code, out, _ = run(capsys, "finite", "--type", "A20", "--subset",
                           "1,2", "--what", "check")
        assert time.monotonic() - t0 < 2
        assert code == 0
        assert out.splitlines() == [f"PASS {name}" for name in [
            "alternating-sum", "parabolic-quotient", "pKJK-partition",
            "p-alternating-reduction", "h-alternating-reduction",
            "M-factorization", "N-factorization"]]
        rs = build_label("A20")
        tables = [v for k, v in rs._derived.items() if k[0] == "table"]
        assert tables
        for t in tables:
            cut = t.mask.bit_length()
            assert cut <= 2
            for _, group in t._buckets:
                for _, bucket in group:
                    for q_of, r_of, _ in bucket:
                        assert len(q_of) == len(r_of) == 1 << cut
        images = [k[1] for k in rs._derived if k[0] == "images"]
        assert images and all(len(img) <= 2 for img in images)

    def test_long_rank_refused_before_int(self, capsys):
        # int() refuses over 4300 digits with a message of its own; the
        # digit count is checked first
        label = "A" + "9" * 5000
        code, out, err = run(capsys, "cartan", label)
        assert code == 2 and out == ""
        assert err == f"error: rank {label[1:]} is over the bound {MAX_RANK}\n"
        # leading zeros count for neither
        code, out, _ = run(capsys, "cartan", "A" + "0" * 5000 + "2")
        assert code == 0 and "rank: 2" in out
        # a digit that int() cannot read is no rank
        code, out, err = run(capsys, "cartan", "A\u00b2")
        assert code == 2 and out == ""
        assert err == "error: cannot parse type label 'A\u00b2'\n"

    def test_non_integer_generator_id_named(self, capsys):
        code, out, err = run(capsys, "finite", "--type", "A3", "--subset",
                             "1.5")
        assert code == 2 and out == ""
        assert err == "error: generator id '1.5' is not an integer\n"
        code, out, err = run(capsys, "series", "--type", "A3", "--J", "1",
                             "--K", "2,x")
        assert code == 2 and out == ""
        assert err == "error: generator id 'x' is not an integer\n"

    def test_degree_bound_admits_the_bound(self, capsys):
        code, out, _ = run(capsys, "series", "--type", "A2", "--J", "1",
                           "--K", "2", "--expand", str(MAX_DEGREE),
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["expansion"]) == MAX_DEGREE + 1

    @pytest.mark.parametrize("label", ["A1", "G2", "A3"])
    def test_length_refusal_counts_exactly(self, monkeypatch, label):
        # with a small bound, the longest accepted length is the last one
        # whose ball, counted by the enumeration, fits under the bound
        aff = get_affine(build_label(label))
        elements, _ = aff.bfs_enumerate(12)
        bound = len(elements) - 1
        monkeypatch.setattr(affine, "MAX_BFS_ELEMENTS", bound)
        aff.bfs_enumerate(11)
        with pytest.raises(ValueError, match=f"at least {bound + 1} "):
            aff.bfs_enumerate(12)

    def test_verify_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A1",
                           "--max-length", "10")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_check_success(self, capsys):
        code, out, _ = run(capsys, "check", "--type", "A1", "--degree", "10")
        assert code == 0


# Runs `growth ARGV`, reads one line of its stdout, closes the pipe and
# prints the exit code and the stderr of the command.
_CLOSED_PIPE_SCRIPT = textwrap.dedent("""
    import subprocess, sys
    proc = subprocess.Popen([sys.executable, "-m", "coxgrowth.cli",
                             *sys.argv[1:]], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    print(proc.wait())
    print(err)
""")


# Runs `growth` with the arguments given in a child of this small
# interpreter and prints the child's exit code and peak RSS in MB.  A
# child's peak includes that of the process it was started from, so the
# command is not started from the test process itself.
_PEAK_SCRIPT = textwrap.dedent("""
    import os, subprocess, sys
    proc = subprocess.Popen([sys.executable, "-m", "coxgrowth.cli",
                             *sys.argv[1:]], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    scale = 1 if sys.platform == "darwin" else 1024
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * scale / 2**20)
""")


def _peak_rss_mb(*argv):
    """(exit code, peak RSS in MB) of `growth ARGV` in a fresh child."""
    proc = _run_python(["-c", _PEAK_SCRIPT, *argv])
    assert proc.returncode == 0, proc.stderr
    code, peak = proc.stdout.split()
    return int(code), float(peak)


class TestFootprint:
    def test_e6_series_stores_no_elements(self):
        # a table keeps its coset buckets, not its elements: this peaked
        # at 60 MB while every table kept its root permutations
        code, peak = _peak_rss_mb("series", "--type", "E6", "--J", "1",
                                  "--K", "2")
        assert code == 0
        assert peak < 40

    def test_a6_fq_json_is_written_in_pieces(self):
        # 4 MB of JSON, written one f_Q entry at a time: this peaked at
        # 45 MB while json.dumps built the whole document as one string
        code, peak = _peak_rss_mb("fq", "--type", "A6", "--format", "json")
        assert code == 0
        assert peak < 36

    def test_series_builds_no_affine_group(self, capsys):
        code, out, _ = run(capsys, "series", "--type", "D4", "--J", "1",
                           "--K", "2")
        assert code == 0 and out
        rs = build_label("D4")
        assert ("table", rs.full_mask) in rs._derived
        assert "affine" not in rs._derived


# strs with quotes, backslashes, control and non-ASCII characters, ints
# past 2^64 either side, and nested lists and str-keyed dicts, empty ones
# included
_json_strs = st.text(st.one_of(st.characters(),
                               st.sampled_from('"\\/\x00\x1f\x7f\n')))
_json_values = st.recursive(
    st.one_of(_json_strs, st.integers(),
              st.integers(-2 ** 200, 2 ** 200)),
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(_json_strs, inner, max_size=6)),
    max_leaves=40)


class TestJsonOutput:
    @given(_json_values)
    @settings(max_examples=300, deadline=None)
    def test_pieces_match_json_dumps(self, value):
        assert "".join(cli._json_pieces(value)) == json.dumps(
            value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [True, None, 1.5, {1: "a"}],
                             ids=["bool", "None", "float", "int-key"])
    def test_encoder_refuses_what_no_payload_holds(self, value):
        # also inside a flat list and below the streamed levels
        for wrapped in (value, [1, value], {"a": {"b": [[value]]}}):
            with pytest.raises(TypeError):
                "".join(cli._json_pieces(wrapped))

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

    def test_one_parser_per_process(self, capsys, monkeypatch):
        # the first main call builds the parser, the second reuses it
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            args = ["matrix", "--type", "A2", "--format", "json"]
            _, out1, _ = run(capsys, *args)
            _, out2, _ = run(capsys, *args)
        finally:
            cli.build_parser.cache_clear()
        assert built.count("growth") == 1
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
        assert run_selftest()
        assert "FAIL" not in capsys.readouterr().out


# Feeds check_fixture the A2 fixture with its M_S rows (and entries)
# reversed, then requires the row-order check to raise.  Exit codes: 0
# raised, 1 did not raise, 3 asserts were not stripped.
_FIXTURE_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.cli import _load_fixtures, check_fixture
    if __debug__:
        sys.exit(3)
    fx = _load_fixtures()["a2"]
    m = fx["M_S"]
    m["rows"].reverse()
    m["entries"].reverse()
    try:
        check_fixture("a2", fx)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestFixtureChecks:
    def test_closed_form_is_independent_of_the_enumeration(self,
                                                            monkeypatch):
        # a numerator shifted by t moves f_Q, not its closed form
        numerator = cones.reciprocity_numerator

        def shifted(rs, q_mask, points=None):
            num, weights = numerator(rs, q_mask, points)
            return num * IntPoly.t_power(1), weights

        monkeypatch.setattr(cones, "reciprocity_numerator", shifted)
        results = dict(check_fixture("c2", cli._load_fixtures()["c2"]))
        assert results["parallelepipeds-trivial"]
        assert not results["closed-form-f"]

    def test_row_order_check_raises_under_optimize(self):
        out = _run_optimized(_FIXTURE_SCRIPT)
        assert "a2: M_S rows are not the subsets in ascending order" in out


class TestParserOutput:
    """The parser's help and usage text, pinned by the sha256 of what it
    writes with COLUMNS=80: stdout with exit 0 for `-h`, stderr with
    exit 2 for a missing required argument.  Recorded at commit 4a9aca2,
    before the parser was rebuilt; a change that alters these bytes must
    say so and re-record the digest."""

    HELP = [
        ("-h",
         "e7ee5e021de0c276d110f8916adf295378fb1dd4e34eb9c524e8caf197543d94"),
        ("cartan -h",
         "a1c2c03f58adcfb5d9623a57669a00019e6493c3407d2f6498c88904f6e62eb9"),
        ("finite -h",
         "c1fd584416961ece9987e1f3c9c0d68dfe555fe2d5ef50699f39469ea1a86107"),
        ("fq -h",
         "801a03fc91f1052c5cf155764395fc68288198f10fbeb330903c3262db011d34"),
        ("series -h",
         "d142276a7923d1b56381a88be6d139d25413e27c1cb763290030c1ba3a919cd8"),
        ("matrix -h",
         "6ce4a1b8986ed9690aebac7db7042c638f1c71102534c1f7a67269f4eaa882d2"),
        ("oracle -h",
         "d666829ad32526f56d2365432f196d01684b9bb6af177308cad25e50ed4c2ec9"),
        ("verify -h",
         "5f664000d873791ec24003ddc0fc959dca02c36731c851ac7f3cd8c5896c9b47"),
        ("check -h",
         "f3eb4b4cbf93887d2a8417b7f19597d9c481639351e0fc68e1101acccaf9735c"),
        ("selftest -h",
         "4b0b734badb7202447b49ca158f1af3a0d74a25ac9306b31bdd9079d2bf17fd5"),
    ]
    # every subcommand but selftest, which has no required argument
    USAGE = [
        ("",
         "5e75465439ec29efa6fecc26389994263798c2c7fe267e81bce292e6b0fd23f1"),
        ("cartan",
         "dc81fab97a1685add7000d6ac3d82ab74630e248b22fcc81abaa6b837c25d33f"),
        ("finite",
         "b118f3644f638ebb46ace6ca987fa04f9202ee76357d588da22a63fe4ed7a058"),
        ("fq",
         "ee9b73bbd0978be5b9b9e80acad2d00aa76ee1cdeb1ff7fa984237b8cfa4c6e2"),
        ("series",
         "39d6fa54032f81a595878c81b1d247fd98888179d9e749daf8676ef40f3d5150"),
        ("matrix",
         "8fe08902c90cf2a2d4a82574f6d05cf4e6a1c9319f76d26b9af2b05f3f7eda83"),
        ("oracle",
         "5132e93b974dffa3501442790e1c29d76f54af6cb57144ca17997c972eaeeb67"),
        ("verify",
         "26b10dc168022079cddc612dd9cb65257b5c70fcc0927bbdd0b17aee92e6142c"),
        ("check",
         "98ba1fb475437df32e58fedbc00b0e41b48a764e1186ea163b044fc17a967f3b"),
    ]

    @staticmethod
    def _exit(capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.mark.parametrize("command, digest", HELP,
                             ids=[c for c, _ in HELP])
    def test_help_digest(self, capsys, monkeypatch, command, digest):
        code, out, err = self._exit(capsys, monkeypatch, command)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, digest", USAGE,
                             ids=[c or "no-command" for c, _ in USAGE])
    def test_missing_argument_digest(self, capsys, monkeypatch, command,
                                     digest):
        code, out, err = self._exit(capsys, monkeypatch, command)
        assert code == 2 and out == ""
        assert "the following arguments are required" in err
        assert hashlib.sha256(err.encode()).hexdigest() == digest
