import itertools
import os
import sys
import time

import pytest

from hypergirth import parse_bipartite, parse_certificate, parse_hypergraph
from hypergirth.cli import EXIT_CODES, build_parser, main
from hypergirth.errors import Error
from hypergirth.pipeline import INT, OPS, write_text_file

from conftest import subprocess_env


# A 4000-digit order with no prime factor up to 41: Miller-Rabin would test it at length.
ROUGH_Q = str(next(
    q for q in itertools.count(10**3999) if all(q % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_plane(self, tmp_path, capsys):
        out = str(tmp_path / "p2.bgt")
        code, stdout, _ = run(capsys, "gen", "plane", "--q", "2", out)
        assert code == 0
        g = parse_bipartite(open(out).read())
        assert (g.n_left, g.n_right, g.num_incidences) == (7, 7, 21)
        assert "wrote" in stdout

    def test_greedy_prints_report(self, tmp_path, capsys):
        out = str(tmp_path / "g.bgt")
        code, stdout, _ = run(
            capsys, "gen", "greedy", "--left", "10", "--right", "10",
            "--deg", "2", "--girth", "6", "--seed", "1", out,
        )
        assert code == 0
        assert "accepted" in stdout and "degree" in stdout

    def test_greedy_grid_over_budget_exit_4(self, tmp_path, capsys):
        out = str(tmp_path / "g.bgt")
        code, _, stderr = run(
            capsys, "gen", "greedy", "--left", "1000000", "--right", "1000000",
            "--deg", "3", "--girth", "8", "--seed", "1", out,
        )
        assert code == 4
        assert_one_error_line(stderr)
        assert "pairs, budget is" in stderr
        assert not os.path.exists(out)

    def test_bad_order_exit_3(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "plane", "--q", "4", str(tmp_path / "x.bgt"))
        assert code == 3
        assert "prime" in stderr

    @pytest.mark.parametrize("q", ["13", "17"])
    def test_hexagon_point_list_over_budget_exit_4(self, tmp_path, capsys, q):
        # the incidence budget also bounds the PG(6,q) point list H(q) builds from
        start = time.monotonic()
        code, _, stderr = run(capsys, "gen", "hexagon", "--q", q, str(tmp_path / "h.bgt"))
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert_one_error_line(stderr)
        assert f"hexagon q={q} has " in stderr and " incidences, budget is " in stderr
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "kind,q",
        [("plane", "173"), ("quadrangle", "47"), ("plane", ROUGH_Q), ("quadrangle", ROUGH_Q), ("hexagon", ROUGH_Q)],
        ids=["plane-173", "quadrangle-47", "plane-rough", "quadrangle-rough", "hexagon-rough"],
    )
    def test_geometry_over_budget_exit_4(self, tmp_path, capsys, kind, q):
        start = time.monotonic()
        code, _, stderr = run(capsys, "gen", kind, "--q", q, str(tmp_path / "g.bgt"))
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert_one_error_line(stderr)
        assert f"error: {kind} q={q[:40]}" in stderr and " incidences, budget is " in stderr
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("q", ["0", "1", "4", "6"])
    @pytest.mark.parametrize("kind", ["plane", "quadrangle", "hexagon"])
    def test_non_prime_order_exit_3(self, tmp_path, capsys, kind, q):
        code, _, stderr = run(capsys, "gen", kind, "--q", q, str(tmp_path / "g.bgt"))
        assert code == 3
        assert stderr == f"error: {kind} order must be a prime, got {q}\n"
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run(capsys, "gen", "plane", "--q", "2", "")
        assert code == 3
        assert_one_error_line(stderr)
        assert os.listdir(tmp_path) == []

    def test_unencodable_text_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_file(str(tmp_path / "report.txt"), "out\u00e9\n")
        assert os.listdir(tmp_path) == []

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.bgt"), str(tmp_path / "b.bgt")
        run(capsys, "gen", "hexagon", "--q", "2", a)
        run(capsys, "gen", "hexagon", "--q", "2", b)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestTransform:
    @pytest.fixture()
    def hex_files(self, tmp_path, capsys):
        bgt = str(tmp_path / "h2.bgt")
        hgt = str(tmp_path / "h2.hgt")
        assert run(capsys, "gen", "hexagon", "--q", "2", bgt)[0] == 0
        assert run(capsys, "transform", "nbhd", bgt, hgt)[0] == 0
        return bgt, hgt

    def test_nbhd_split_pad(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        h = parse_hypergraph(open(hgt).read())
        assert h.num_edges == 63
        split = str(tmp_path / "s.hgt")
        assert run(capsys, "transform", "split", hgt, split, "--r", "3")[0] == 0
        padded = str(tmp_path / "p.hgt")
        assert run(capsys, "transform", "pad", split, padded, "--to", "100")[0] == 0
        hp = parse_hypergraph(open(padded).read())
        assert hp.num_vertices == 100 and hp.num_edges == 63

    def test_substitute_builtin_template(self, tmp_path, capsys):
        bgt = str(tmp_path / "g.bgt")
        hgt = str(tmp_path / "g.hgt")
        out = str(tmp_path / "out.hgt")
        run(capsys, "gen", "greedy", "--left", "630", "--right", "30",
            "--deg", "21", "--girth", "12", "--seed", "1", bgt)
        run(capsys, "transform", "nbhd", bgt, hgt)
        code, _, _ = run(capsys, "transform", "substitute", hgt, out, "--template", "path7", "--k", "3")
        assert code == 0
        h = parse_hypergraph(open(out).read())
        assert h.num_edges == 270 and all(len(e) == 3 for e in h.edges)

    def test_substitute_template_file(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        tpl = str(tmp_path / "tpl.hgt")
        with open(tpl, "w") as fh:
            fh.write("hgt 1\nvertices 2\nedges 1\ne 0 1\n")
        out = str(tmp_path / "out.hgt")
        assert run(capsys, "transform", "substitute", hgt, out, "--template", tpl, "--k", "1")[0] == 0

    def test_missing_flag_exit_2(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        with pytest.raises(SystemExit) as exc:
            main(["transform", "split", hgt, str(tmp_path / "x.hgt")])
        assert exc.value.code == 2
        assert "the following arguments are required: --r" in capsys.readouterr().err
        assert not (tmp_path / "x.hgt").exists()

    def test_pad_target_over_budget_exit_4(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        out = str(tmp_path / "x.hgt")
        start = time.monotonic()
        code, _, stderr = run(capsys, "transform", "pad", hgt, out, "--to", "9" * 999_999)
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert_one_error_line(stderr)
        assert "transform pad: pad output hypergraph has " + "9" * 40 + "...(999999 digits) vertices, budget is" in stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv,code,message",
        [(["pad", "--to", "9" * 999_999], 4, "error: transform pad: pad output hypergraph has 9999"),
         (["substitute", "--template", "loose-path:x:3", "--k", "1"], 2,
          "error: transform substitute: loose-path:x:3: edges must be an integer, got 'x'"),
         (["substitute", "--template", "loose-path:1", "--k", "1"], 2,
          "error: transform substitute: template spec 'loose-path:1' is not loose-path:<edges>:<r>")],
        ids=["pad-to", "template", "template-spec"],
    )
    def test_flags_read_before_the_input_is_loaded(self, tmp_path, capsys, argv, code, message):
        missing, out = str(tmp_path / "missing.hgt"), str(tmp_path / "x.hgt")
        got, stdout, stderr = run(capsys, "transform", argv[0], missing, out, *argv[1:])
        assert (got, stdout) == (code, "")
        assert_one_error_line(stderr)
        assert stderr.startswith(message)
        assert os.listdir(tmp_path) == []

    def test_pad_down_exit_3(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        code, _, stderr = run(capsys, "transform", "pad", hgt, str(tmp_path / "x.hgt"), "--to", "10")
        assert code == 3 and "cannot pad down" in stderr

    def test_wrong_kind_exit_3(self, hex_files, tmp_path, capsys):
        bgt, _ = hex_files
        code, _, _ = run(capsys, "transform", "split", bgt, str(tmp_path / "x.hgt"), "--r", "2")
        assert code == 3

    def test_flag_the_op_does_not_take_exit_2(self, hex_files, tmp_path, capsys):
        bgt, _ = hex_files
        with pytest.raises(SystemExit) as exc:
            main(["transform", "nbhd", bgt, str(tmp_path / "x.hgt"), "--r", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --r 5" in capsys.readouterr().err
        assert not (tmp_path / "x.hgt").exists()

    def test_bipartite_template_exit_3(self, hex_files, tmp_path, capsys):
        bgt, hgt = hex_files
        code, _, stderr = run(
            capsys, "transform", "substitute", hgt, str(tmp_path / "x.hgt"), "--template", bgt, "--k", "1"
        )
        assert code == 3 and "needs a hypergraph input, got a bipartite" in stderr


class TestOpCommands:
    """Each row of OPS is one subcommand that takes exactly its flags."""

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rendered_command_parses_back(self, name):
        op = OPS[name]
        values = {key: str(2 + i) if kind == INT else "path7" for i, (key, kind) in enumerate(op.args)}
        source = "IN.hgt" if op.needs else None
        _, *argv = op.render(values, source, "OUT").split(" ")
        expected = {"command": op.command.split(" ")[0], "op": name, **values, "out": "OUT"}
        if source is not None:
            expected["input"] = source
        assert vars(build_parser().parse_args(argv)) == expected


class TestGirthCommand:
    def test_hypergraph_with_witness_and_oracle(self, tmp_path, capsys):
        bgt, hgt = str(tmp_path / "h.bgt"), str(tmp_path / "h.hgt")
        run(capsys, "gen", "hexagon", "--q", "2", bgt)
        run(capsys, "transform", "nbhd", bgt, hgt)
        code, stdout, _ = run(capsys, "girth", hgt, "--oracle-max", "6")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "girth 6"
        assert lines[1].startswith("witness-vertices ")
        assert lines[2].startswith("witness-edges ")
        assert "oracle-check ok max-len 6" in stdout

    def test_oracle_max_far_above_the_vertex_count(self, tmp_path, capsys):
        bgt, hgt = str(tmp_path / "h.bgt"), str(tmp_path / "h.hgt")
        run(capsys, "gen", "hexagon", "--q", "2", bgt)
        run(capsys, "transform", "nbhd", bgt, hgt)
        before = sys.getrecursionlimit()
        t0 = time.monotonic()
        code, stdout, _ = run(capsys, "girth", hgt, "--oracle-max", "3000000000")
        assert time.monotonic() - t0 < 1.0
        assert code == 0
        assert stdout.splitlines()[-1] == "oracle-check ok max-len 3000000000"
        assert sys.getrecursionlimit() == before

    def test_bipartite_input(self, tmp_path, capsys):
        bgt = str(tmp_path / "p.bgt")
        run(capsys, "gen", "plane", "--q", "2", bgt)
        code, stdout, _ = run(capsys, "girth", bgt, "--oracle-max", "6")
        assert code == 0
        assert stdout.splitlines()[0] == "girth 6"
        assert "witness l" in stdout or "witness " in stdout

    def test_oracle_input_built_only_for_the_oracle(self, tmp_path, capsys, monkeypatch):
        bgt = str(tmp_path / "p.bgt")
        run(capsys, "gen", "plane", "--q", "2", bgt)
        _, expected, _ = run(capsys, "girth", bgt, "--oracle-max", "6")
        assert expected.splitlines()[-1] == "oracle-check ok max-len 6"

        def refuse(g):
            raise AssertionError("the oracle input was built without --oracle-max")

        monkeypatch.setattr("hypergirth.cli._as_pair_hypergraph", refuse)
        assert run(capsys, "girth", bgt) == (0, "\n".join(expected.splitlines()[:-1]) + "\n", "")

    def test_matching_inf(self, tmp_path, capsys):
        path = str(tmp_path / "m.hgt")
        with open(path, "w") as fh:
            fh.write("hgt 1\nvertices 4\nedges 2\ne 0 1\ne 2 3\n")
        code, stdout, _ = run(capsys, "girth", path, "--oracle-max", "10")
        assert code == 0
        assert stdout.splitlines()[0] == "girth inf"

    def test_oracle_mismatch_exit_5(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "m.hgt")
        with open(path, "w") as fh:
            fh.write("hgt 1\nvertices 4\nedges 2\ne 0 1 2\ne 1 2 3\n")
        import hypergirth.girth as girth_mod
        from hypergirth.girth import GirthReport

        # `girth` reads the loaded value's girth_report, whose import reads the engine at call time
        monkeypatch.setattr(girth_mod, "girth_hypergraph", lambda h: GirthReport(4))
        code, stdout, stderr = run(capsys, "girth", path, "--oracle-max", "8")
        assert code == 5
        assert "oracle" in stderr
        assert stdout == ""  # the oracle runs before anything is printed

    def test_oracle_max_too_small_exit_3_prints_nothing(self, tmp_path, capsys):
        bgt = str(tmp_path / "p.bgt")
        run(capsys, "gen", "plane", "--q", "2", bgt)
        code, stdout, stderr = run(capsys, "girth", bgt, "--oracle-max", "0")
        assert (code, stdout) == (3, "")
        assert_one_error_line(stderr)

    def test_oracle_budget_env_exit_4(self, tmp_path, capsys, monkeypatch):
        bgt, hgt = str(tmp_path / "h.bgt"), str(tmp_path / "h.hgt")
        run(capsys, "gen", "hexagon", "--q", "2", bgt)
        run(capsys, "transform", "nbhd", bgt, hgt)
        monkeypatch.setattr("hypergirth.girth.ORACLE_INCIDENCE_BUDGET", 10)
        code, stdout, stderr = run(capsys, "girth", hgt, "--oracle-max", "4")
        assert code == 4 and "189 incidences exceed budget 10" in stderr
        assert stdout == ""

    def test_format_error_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.hgt")
        with open(path, "w") as fh:
            fh.write("hgt 1\nvertices 2\nedges 1\ne 1 0\n")
        code, _, stderr = run(capsys, "girth", path)
        assert code == 2 and "line 4" in stderr

    def test_unknown_magic_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("nope\n")
        code, _, _ = run(capsys, "girth", path)
        assert code == 2


class TestPlanCommand:
    def test_girth6(self, tmp_path, capsys):
        cert = str(tmp_path / "c.txt")
        code, stdout, _ = run(
            capsys, "plan", "--girth", "6", "--p", "5", "--r", "3",
            "--N", "3967295312526", "--cert", cert,
        )
        assert code == 0
        assert "planned-m 2" in stdout and "planned-n 1" in stdout
        assert "vertices 3967295312526" in stdout
        assert "edge-bound 5^22" in stdout
        assert "theorem-exponent" in stdout
        assert parse_certificate(open(cert).read()).valid

    def test_girth8(self, tmp_path, capsys):
        cert = str(tmp_path / "c8.txt")
        v32 = (1 + 32) * (1 + 32**3 + 32**6 + 32**9)
        code, stdout, _ = run(
            capsys, "plan", "--girth", "8", "--r", "3", "--N", str(v32), "--cert", cert,
        )
        assert code == 0
        assert "planned-m 5" in stdout
        assert "edge-bound 2^55" in stdout

    def test_below_seed_exit_3_prints_seed(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "plan", "--girth", "6", "--p", "5", "--r", "3",
            "--N", "1000", "--cert", str(tmp_path / "c.txt"),
        )
        assert code == 3
        assert "3967295312526" in stderr

    def test_seed_count_past_the_digit_budget_exit_4(self, tmp_path, capsys):
        start = time.monotonic()
        code, stdout, stderr = run(
            capsys, "plan", "--girth", "6", "--p", "2", "--r", str(2**4000), "--N", "10",
            "--cert", str(tmp_path / "c.txt"),
        )
        assert time.monotonic() - start < 1.0
        assert (code, stdout) == (4, "")
        assert_one_error_line(stderr)
        assert stderr.startswith("error: substrate vertex count v(q): ")
        assert os.listdir(tmp_path) == []

    def test_p_at_the_primality_bound_exit_4(self, tmp_path, capsys):
        p = "3317044064679887385961981"  # passes all 13 Miller-Rabin bases
        code, _, stderr = run(
            capsys, "plan", "--girth", "6", "--p", p, "--r", "3", "--N", "1" + "0" * 40,
            "--cert", str(tmp_path / "c.txt"),
        )
        assert code == 4
        assert_one_error_line(stderr)
        assert p in stderr

    def test_mersenne_61_p_is_decided_quickly(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "hypergirth", "plan", "--girth", "6", "--p", str(2**61 - 1),
             "--r", "3", "--N", "1" + "0" * 40, "--cert", str(tmp_path / "c.txt")],
            capture_output=True, text=True, env=subprocess_env(), timeout=10,
        )
        assert proc.returncode == 3, proc.stderr
        assert "below the seed" in proc.stderr

    @pytest.mark.parametrize(
        "argv,message",
        [(["--girth", "8", "--p", "3"], "error: plan girth=8 has base 2, got p = 3"),
         (["--girth", "6"], "error: plan girth=6 needs p")],
        ids=["girth8-p3", "girth6-without-p"],
    )
    def test_base_refused_exit_3(self, tmp_path, capsys, argv, message):
        code, stdout, stderr = run(capsys, "plan", *argv, "--r", "3", "--N", "3967295312526",
                                   "--cert", str(tmp_path / "c.txt"))
        assert (code, stdout, stderr) == (3, "", message + "\n")
        assert os.listdir(tmp_path) == []

    def test_bad_n_string(self, tmp_path, capsys):
        for n_value in ("12x", "3967295312526\n"):
            code, stdout, stderr = run(capsys, "plan", "--girth", "6", "--p", "5", "--r", "3", "--N", n_value,
                                       "--cert", str(tmp_path / "c.txt"))
            assert (code, stdout) == (2, ""), n_value
            assert_one_error_line(stderr)
            assert f"error: plan: N must be an integer, got {n_value!r}" in stderr
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [["--girth", "6", "--p", "5", "--N", str(10**30)], ["--girth", "6", "--p", "2", "--N", str(10**300)],
         ["--girth", "8", "--N", str(10**40)], ["--girth", "8", "--N", str(10**300 + 7)]],
    )
    def test_printed_values_are_the_certificates(self, tmp_path, capsys, argv):
        cert = str(tmp_path / "c.txt")
        code, stdout, _ = run(capsys, "plan", *argv, "--r", "3", "--cert", cert)
        assert code == 0
        printed = dict(line.split(" ", 1) for line in stdout.splitlines())
        values = dict(parse_certificate(open(cert).read()).values)
        assert printed["order"] == values[f"order_{printed['planned-n']}"]
        assert printed["vertices"] == values["vertices"]
        assert printed["edge-bound"] == values["edge_bound"]


class TestIntegerFlags:
    """Integer flags accept exactly the decimals that recipes and --N accept,
    and refuse the rest as recipes do: one `error:` line and exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen", "plane", "--q", "1_1", "OUT"], "error: gen plane: q must be an integer, got '1_1'"),
            (["gen", "plane", "--q", "+3", "OUT"], "error: gen plane: q must be an integer, got '+3'"),
            (["gen", "plane", "--q", "03", "OUT"], "error: gen plane: q must be an integer, got '03'"),
            (["gen", "greedy", "--left", "10", "--right", "10", "--deg", "2", "--girth", "6", "--seed", "-1", "OUT"],
             "error: gen greedy: seed must be an integer, got '-1'"),
            (["transform", "split", "IN", "OUT", "--r", "02"],
             "error: transform split: r must be an integer, got '02'"),
            (["plan", "--girth", "6", "--p", "05", "--r", "3", "--N", "3967295312526", "--cert", "OUT"],
             "error: plan: p must be an integer, got '05'"),
            (["plan", "--girth", "06", "--p", "5", "--r", "3", "--N", "3967295312526", "--cert", "OUT"],
             "hypergirth plan: error: argument --girth: invalid choice: '06' (choose from '6', '8')"),
            (["plan", "--girth", "6", "--p", "5", "--r", "3", "--N", "03967295312526", "--cert", "OUT"],
             "error: plan: N must be an integer, got '03967295312526'"),
            (["girth", "IN", "--oracle-max", " 6"], "error: girth: oracle-max must be an integer, got ' 6'"),
        ],
        ids=["underscore", "plus", "leading-zero", "negative", "transform", "plan-p", "plan-girth", "plan-N",
             "girth"],
    )
    def test_non_canonical_exit_2(self, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / a) if a in ("IN", "OUT") else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a --girth outside its choices, after a usage line
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        if message.startswith("error: "):
            assert_one_error_line(captured.err)
        assert captured.err.splitlines()[-1] == message
        assert os.listdir(tmp_path) == []  # refused before IN is loaded or OUT written

    # A refused token is shown by its first 40 characters, wherever it is read.
    @pytest.mark.parametrize(
        "recipe,message",
        [(None, "error: gen plane: q must be an integer"),
         ("stage gen plane q=LONG\n", "error: stage 1: q must be an integer"),
         ("stage gen plane q=2\ncertify girth=6 p=5 r=3 N=LONG\n", "error: certify: N must be an integer")],
        ids=["flag", "stage", "certify"],
    )
    def test_long_token_is_cut_in_the_message(self, tmp_path, capsys, recipe, message):
        long = "1" * 10**6 + "x"
        if recipe is None:
            argv = ["gen", "plane", "--q", long, str(tmp_path / "OUT")]
        else:
            (tmp_path / "r.rcp").write_text("rcp 1\ntarget 3\n" + recipe.replace("LONG", long))
            argv = ["pipeline", str(tmp_path / "r.rcp"), "--out-dir", str(tmp_path / "out")]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr == f"{message}, got '{'1' * 40}'\n"
        assert len(stderr.encode()) < 200
        assert os.listdir(tmp_path) == ([] if recipe is None else ["r.rcp"])

    @pytest.mark.parametrize(
        "argv",
        [["gen", "plane", "--q", "HUGE", "OUT"],
         ["plan", "--girth", "6", "--p", "HUGE", "--r", "3", "--N", "1000", "--cert", "OUT"],
         ["plan", "--girth", "6", "--p", "5", "--r", "3", "--N", "HUGE", "--cert", "OUT"]],
        ids=["gen", "plan", "plan-N"],
    )
    def test_over_digit_budget_exit_4(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "OUT" else "1" * (10**6 + 1) if a == "HUGE" else a for a in argv]
        code, _, stderr = run(capsys, *argv)
        assert code == 4
        assert_one_error_line(stderr)
        assert "integer has 1000001 digits, budget is 1000000" in stderr
        assert os.listdir(tmp_path) == []


class TestPipelineCommand:
    def test_recipe_with_certify(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text(
            "rcp 1\n"
            "target 6\n"
            "stage gen hexagon q=2\n"
            "stage nbhd\n"
            "stage split r=2\n"
            "stage pad to=100\n"
            "certify girth=6 p=5 r=3 N=3967295312526\n"
        )
        out_dir = str(tmp_path / "out")
        code, stdout, _ = run(capsys, "pipeline", str(recipe), "--out-dir", out_dir)
        assert code == 0
        assert "certificate certificate.txt VALID" in stdout
        report = open(os.path.join(out_dir, "report.txt")).read()
        assert "stage 4 girth 6" in report
        assert "certificate certificate.txt VALID" in report
        final = parse_hypergraph(open(os.path.join(out_dir, "stage_04_pad.hgt")).read())
        assert final.num_vertices == 100 and final.num_edges == 63

    def test_fail_fast_names_bipartite_stage(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text(
            "rcp 1\ntarget 8\nstage gen hexagon q=2\nstage nbhd\n"
        )
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "o"))
        assert code == 5
        assert "stage 1" in stderr and "girth 12" in stderr and "floor 16" in stderr

    def test_fail_fast_names_hypergraph_stage(self, tmp_path, capsys):
        # a girth-6 template drags the substituted stage below the target
        cycle6 = tmp_path / "c6.hgt"
        cycle6.write_text(
            "hgt 1\nvertices 6\nedges 6\ne 0 1\ne 0 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
        )
        recipe = tmp_path / "r.rcp"
        recipe.write_text(
            "rcp 1\n"
            "target 8\n"
            "stage gen greedy left=96 right=12 deg=8 girth=16 seed=1001\n"
            "stage nbhd\n"
            f"stage substitute template={cycle6} k=1\n"
        )
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "o"))
        assert code == 5
        assert "stage 3" in stderr and "girth 6" in stderr and "floor 8" in stderr

    def test_recipe_parse_error_exit_2(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text("rcp 1\ntarget 6\nstage warp q=2\n")
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "o"))
        assert code == 2 and "line 3" in stderr

    def test_report_deterministic(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text("rcp 1\ntarget 2\nstage gen plane q=3\nstage nbhd\n")
        d1, d2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        run(capsys, "pipeline", str(recipe), "--out-dir", d1)
        run(capsys, "pipeline", str(recipe), "--out-dir", d1)  # second run, same dir
        run(capsys, "pipeline", str(recipe), "--out-dir", d2)
        r1 = open(os.path.join(d1, "report.txt"), "rb").read()
        assert r1 == open(os.path.join(d1, "report.txt"), "rb").read()
        assert open(os.path.join(d1, "stage_02_nbhd.hgt"), "rb").read() == open(
            os.path.join(d2, "stage_02_nbhd.hgt"), "rb").read()


class TestVertexBudget:
    """Sizes read from files, recipes and template specs are refused with
    exit 4 before anything that grows with them is allocated."""

    @pytest.mark.parametrize(
        "name,text,fragment",
        [
            ("v.hgt", "hgt 1\nvertices " + "9" * 5000 + "\nedges 0\n", "line 2: vertices 9999"),
            ("e.hgt", "hgt 1\nvertices 3\nedges " + "9" * 5000 + "\n", "line 3: edges 9999"),
            ("id.bgt", "bgt 1\nleft 2\nright 2\na 0 " + "1" * 5000 + "\n", "line 4: right id 1111"),
            ("lr.bgt", "bgt 1\nleft 4000000\nright 4000000\n", "bipartite graph has 8000000 vertices"),
        ],
        ids=["hgt-vertices", "hgt-edges", "bgt-id", "bgt-sides"],
    )
    def test_report_refuses_oversized_file(self, tmp_path, capsys, name, text, fragment):
        path = tmp_path / name
        path.write_text(text)
        start = time.monotonic()
        code, _, stderr = run(capsys, "report", str(path))
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert_one_error_line(stderr)
        assert fragment in stderr

    @pytest.mark.parametrize(
        "stage,fragment",
        [
            ("pad to=" + "1" * 30, "hypergraph has " + "1" * 30 + " vertices"),
            ("pad to=" + "9" * 999_999, "hypergraph has " + "9" * 40 + "...(999999 digits) vertices"),
            ("substitute template=loose-path:" + "1" * 30 + ":3 k=1", "loose path has 2222"),
        ],
        ids=["pad", "pad-long", "loose-path"],
    )
    def test_pipeline_refuses_oversized_stage(self, tmp_path, capsys, stage, fragment):
        recipe = tmp_path / "r.rcp"
        recipe.write_text(f"rcp 1\ntarget 3\nstage gen plane q=2\nstage nbhd\nstage {stage}\n")
        start = time.monotonic()
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "o"))
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert_one_error_line(stderr)
        assert fragment in stderr
        assert not (tmp_path / "o").exists()  # refused before any stage ran


def assert_one_error_line(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert "Traceback" not in stderr


class TestPipelineInputErrors:
    """Malformed recipes end with one `error:` line and exit 2 or 3."""

    STAGES = "rcp 1\ntarget 6\nstage gen plane q=2\nstage nbhd\n"

    def run_recipe(self, tmp_path, capsys, text):
        recipe = tmp_path / "r.rcp"
        recipe.write_text(text)
        out_dir = tmp_path / "out"
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(out_dir))
        assert_one_error_line(stderr)
        return code, stderr, out_dir

    @pytest.mark.parametrize(
        "line,message",
        [
            ("certify girth=6 r=3 N=3967295312526", "certify girth=6 needs p"),
            ("certify girth=7 r=3 N=3967295312526", "girth must be 6 or 8, got 7"),
            ("certify girth=8 p=3 r=3 N=1161119713493025", "certify girth=8 has base 2, got p = 3"),
        ],
        ids=["girth6-without-p", "girth7", "girth8-p3"],
    )
    def test_certify_line_checked_before_any_stage(self, tmp_path, capsys, line, message):
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, self.STAGES + line + "\n")
        assert code == 3 and message in stderr
        assert not out_dir.exists()  # failed before any stage or planning ran

    def test_certify_missing_and_non_integer_keys(self, tmp_path, capsys):
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, self.STAGES + "certify p=5 N=7\n")
        assert code == 3 and "missing ['girth', 'r']" in stderr
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, self.STAGES + "certify girth=6 p=5 r=x N=7\n")
        assert code == 2 and "certify: r must be an integer, got 'x'" in stderr
        assert not out_dir.exists()

    def test_certify_n_not_canonical_exit_2(self, tmp_path, capsys):
        line = "certify girth=6 p=5 r=3 N=03967295312526\n"
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, self.STAGES + line)
        assert code == 2 and "certify: N must be an integer, got '03967295312526'" in stderr
        assert not out_dir.exists()

    def test_certify_n_over_digit_budget_exit_4(self, tmp_path, capsys):
        line = "certify girth=6 p=5 r=3 N=" + "1" * (10**6 + 1) + "\n"
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, self.STAGES + line)
        assert code == 4 and "integer has 1000001 digits, budget is 1000000" in stderr
        assert not out_dir.exists()

    def test_target_not_an_integer_exit_2(self, tmp_path, capsys):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget x\nstage gen plane q=2\n")
        assert code == 2 and "line 2" in stderr and "'x'" in stderr

    # A value that is not a canonical decimal is a format error (exit 2); a
    # value the op refuses is a precondition failure (exit 3).
    @pytest.mark.parametrize(
        "stages,code,message",
        [
            ("stage gen plane q=abc\n", 2, "stage 1: q must be an integer, got 'abc'"),
            ("stage gen greedy left=9 right=9 deg=2 girth=6 seed=s\n", 2, "stage 1: seed must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage substitute template=path7 k=abc\n", 2,
             "stage 3: k must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=two\n", 2, "stage 3: r must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage pad to=1e3\n", 2, "stage 3: to must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage substitute template=loose-path:x:3 k=1\n", 2,
             "stage 3: loose-path:x:3: edges must be an integer, got 'x'"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=0\n", 3, "split size must be >= 2, got 0"),
            ("stage gen plane q=+2\n", 2, "stage 1: q must be an integer, got '+2'"),
            ("stage gen plane q=03\n", 2, "stage 1: q must be an integer, got '03'"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=03\n", 2, "stage 3: r must be an integer, got '03'"),
        ],
        ids=["gen-q", "gen-seed", "substitute-k", "split-r", "pad-to", "template-edges", "split-r-zero",
             "gen-q-plus-sign", "gen-q-leading-zero", "split-r-leading-zero"],
    )
    def test_bad_stage_value_exit_3(self, tmp_path, capsys, stages, code, message):
        got, stderr, out_dir = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget 2\n" + stages)
        assert got == code and message in stderr
        if code == 2:
            assert not out_dir.exists()  # read before any stage runs

    @pytest.mark.parametrize(
        "stages,code,message",
        [
            ("stage gen plane q=2\nstage nbhd bogus=1\n", 3,
             "stage 2: nbhd takes [], missing [], unknown ['bogus']"),
            ("stage gen plane q=2 seed=1\n", 3, "stage 1: gen plane takes ['q'], missing [], unknown ['seed']"),
            ("stage gen plane q=2\nstage split r=2\n", 3,
             "stage 2: split needs a hypergraph input, got a bipartite"),
            ("stage gen plane q=2\nstage nbhd\nstage pad to=x\n", 2, "stage 3: to must be an integer, got 'x'"),
            ("stage gen plane q=2\nstage nbhd\nstage substitute template=loose-path:1:2:3 k=1\n", 2,
             "stage 3: template spec 'loose-path:1:2:3' is not loose-path:<edges>:<r>"),
        ],
        ids=["unknown-key", "unknown-gen-key", "input-kind", "late-value", "template-spec"],
    )
    def test_stages_checked_before_any_stage_runs(self, tmp_path, capsys, stages, code, message):
        got, stderr, out_dir = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget 2\n" + stages)
        assert got == code and message in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "template,message",
        [("missing.hgt", "stage 3: [Errno 2] No such file or directory"),
         ("h.bgt", "stage 3: template {tmp}/h.bgt needs a hypergraph input, got a bipartite")],
        ids=["missing-file", "bipartite-file"],
    )
    def test_template_resolved_before_any_stage_runs(self, tmp_path, capsys, template, message):
        assert run(capsys, "gen", "plane", "--q", "2", str(tmp_path / "h.bgt"))[0] == 0
        code, stderr, out_dir = self.run_recipe(
            tmp_path, capsys, self.STAGES + f"stage substitute template={tmp_path / template} k=1\n"
        )
        assert code == 3 and message.format(tmp=tmp_path) in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["+6", "06"])
    def test_target_not_canonical_exit_2(self, tmp_path, capsys, value):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, f"rcp 1\ntarget {value}\nstage gen plane q=2\n")
        assert code == 2 and f"line 2: target girth must be an integer, got '{value}'" in stderr

    def test_non_ascii_out_dir_exit_3(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text(self.STAGES)
        code, _, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "out\u00e9"))
        assert code == 3 and "output directory must be ASCII" in stderr
        assert_one_error_line(stderr)
        assert os.listdir(tmp_path) == ["r.rcp"]

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, self.STAGES + "stage split r=2 r=3\n")
        assert code == 2 and "line 5: key 'r' given twice" in stderr

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ("rcp 1\ntarget 6\ntarget 6\nstage gen plane q=2\n", 2, "line 3: expected a single `target <girth>` line"),
            ("rcp 1\ntarget 6 7\nstage gen plane q=2\n", 2, "line 2: expected a single `target <girth>` line"),
            ("rcp 1\ntarget 1\nstage gen plane q=2\n", 2, "line 2: target girth must be >= 2"),
            ("rcp 1\ntarget 6\nstage\n", 2, "line 3: `stage` needs an operation"),
            (STAGES + "certify girth=6 p=5 r=3 N=7\ncertify girth=6 p=5 r=3 N=7\n", 2,
             "line 6: only one `certify` line allowed"),
            ("", 2, "line 1: empty recipe"),
            ("# only a comment\n\n", 2, "line 1: empty recipe"),
            ("rcp 1\nstage gen plane q=2\n", 2, "line 1: recipe declares no target girth"),
            ("rcp 1\ntarget 6\n", 2, "line 1: recipe has no stages"),
            ("rcp 1\ntarget 6\nstage nbhd\n", 3, "stage 1: nbhd needs a previous stage output"),
        ],
        ids=["target-twice", "target-two-values", "target-below-2", "stage-without-op", "certify-twice",
             "empty", "comment-only", "no-target", "no-stages", "transform-first"],
    )
    def test_recipe_error_exact_message(self, tmp_path, capsys, text, code, message):
        got, stderr, out_dir = self.run_recipe(tmp_path, capsys, text)
        assert (got, stderr) == (code, f"error: {message}\n")
        assert not out_dir.exists()


class TestNonAsciiInput:
    """A byte outside ASCII is a format error at its line, not a traceback."""

    HGT = b"hgt 1\nvertices 2\nedges 0\n\xff"
    BGT = b"bgt 1\nleft \xc3\xa9\nright 1\n"

    @pytest.mark.parametrize(
        "files,argv,where",
        [
            ({"bad.hgt": HGT}, ["girth", "bad.hgt"], "line 4"),
            ({"bad.hgt": HGT}, ["report", "bad.hgt"], "line 4"),
            ({"bad.bgt": BGT}, ["transform", "nbhd", "bad.bgt", "out.hgt"], "line 2"),
            ({"host.hgt": b"hgt 1\nvertices 2\nedges 1\ne 0 1\n", "bad.hgt": HGT},
             ["transform", "substitute", "host.hgt", "out.hgt", "--template", "bad.hgt", "--k", "1"],
             "transform substitute: line 4"),
            ({"r.rcp": "rcp 1\ntarget 2\nstage gen plane q=\u0663\n".encode("utf-8")},
             ["pipeline", "r.rcp", "--out-dir", "out"], "line 3"),
        ],
        ids=["girth", "report", "transform-input", "template", "recipe"],
    )
    def test_exit_2_naming_the_line(self, tmp_path, capsys, files, argv, where):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        names = set(files) | {"out.hgt", "out"}
        code, _, stderr = run(capsys, *[str(tmp_path / a) if a in names else a for a in argv])
        assert_one_error_line(stderr)
        assert code == 2 and f"error: {where}: non-ASCII byte" in stderr


class TestPipelineReportClaims:
    @pytest.mark.filterwarnings("ignore:every edge is smaller than r=5")
    def test_recorded_commands_reproduce_artifacts(self, tmp_path, capsys):
        import hashlib
        import subprocess
        import sys

        recipe = tmp_path / "r.rcp"
        recipe.write_text(
            "rcp 1\ntarget 6\nstage gen hexagon q=2\nstage nbhd\nstage split r=2\n"
            "stage split r=5\n"  # no edge survives
        )
        out_dir = tmp_path / "out"
        assert run(capsys, "pipeline", str(recipe), "--out-dir", str(out_dir))[0] == 0
        report = (out_dir / "report.txt").read_text()
        commands = [
            line.split(" ", 3)[3]
            for line in report.splitlines()
            if line.split(" ")[2:3] == ["command"]
        ]
        assert len(commands) == 4
        assert "stage 4 uniformity vacuous" in report
        before = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()
        }
        for command in commands:
            prog, *argv = command.split(" ")
            assert prog == "hypergirth"
            proc = subprocess.run(
                [sys.executable, "-m", "hypergirth", *argv],
                capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
        after = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()
        }
        for name, digest in before.items():
            if name.endswith((".bgt", ".hgt")):
                assert after[name] == digest
        # each stage's `check` command prints the stage's summary and girth lines
        stages: dict[str, list[str]] = {}
        for line in report.splitlines()[3:-1]:
            _, index, key, value = line.split(" ", 3)
            stages.setdefault(index, []).append(f"{key} {value}")
        for lines in stages.values():
            prog, *argv = lines[2].split(" ", 1)[1].split(" ")
            assert prog == "hypergirth" and argv[0] == "report"
            proc = subprocess.run(
                [sys.executable, "-m", "hypergirth", *argv],
                capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines() == lines[4:-2]


class TestReportCommand:
    def test_hypergraph_report(self, tmp_path, capsys):
        path = str(tmp_path / "m.hgt")
        with open(path, "w") as fh:
            fh.write("hgt 1\nvertices 5\nedges 2\ne 0 1 2\ne 2 3 4\n")
        code, stdout, _ = run(capsys, "report", path)
        assert code == 0
        assert "kind hypergraph" in stdout
        assert "uniformity 3" in stdout
        assert "girth inf" in stdout

    def test_bipartite_report(self, tmp_path, capsys):
        bgt = str(tmp_path / "q.bgt")
        run(capsys, "gen", "quadrangle", "--q", "2", bgt)
        code, stdout, _ = run(capsys, "report", bgt)
        assert code == 0
        assert "kind bipartite" in stdout
        assert "left-degree 3" in stdout
        assert "girth 8" in stdout

    def test_vacuous_uniformity(self, tmp_path, capsys):
        path = str(tmp_path / "e.hgt")
        with open(path, "w") as fh:
            fh.write("hgt 1\nvertices 3\nedges 0\n")
        code, stdout, _ = run(capsys, "report", path)
        assert code == 0 and "uniformity vacuous" in stdout


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = str(tmp_path / "p.bgt")
    proc = subprocess.run(
        [sys.executable, "-m", "hypergirth", "gen", "plane", "--q", "2", out],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(out)


# An integer past CPython's 4300-digit str() limit, and an odd one.
BIG = "1" + "0" * 4999
BIG_ODD = "1" * 5001


class TestIntegersPastTheStrLimit:
    """Messages show such an integer through short_decimal; stdout records
    it exactly.  No command ends in a traceback."""

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        bgt, hgt = str(tmp_path / "p3.bgt"), str(tmp_path / "p3.hgt")
        assert run(capsys, "gen", "plane", "--q", "3", bgt)[0] == 0
        assert run(capsys, "transform", "nbhd", bgt, hgt)[0] == 0
        return {"IN": hgt, "OUT": str(tmp_path / "out"), "CERT": str(tmp_path / "c.txt")}

    @pytest.mark.parametrize(
        "argv,recipe,code,stdout_has",
        [
            (["plan", "--girth", "6", "--p", BIG, "--r", "3", "--N", "100", "--cert", "CERT"], None, 3, None),
            (None, f"certify girth=6 p={BIG} r=3 N=100", 3, None),
            (None, f"certify girth={BIG} r=3 N=100", 3, None),
            (["plan", "--girth", "8", "--p", BIG, "--r", "3", "--N", "100", "--cert", "CERT"], None, 3, None),
            (["gen", "greedy", "--left", BIG, "--right", "1", "--deg", "1", "--girth", "4", "--seed", "1", "OUT"],
             None, 4, None),
            (["gen", "greedy", "--left", "1", "--right", "1", "--deg", "1", "--girth", BIG_ODD, "--seed", "1",
              "OUT"], None, 3, None),
            (["gen", "greedy", "--left", "3", "--right", "3", "--deg", BIG, "--girth", "4", "--seed", BIG, "OUT"],
             None, 0, f"greedy left 3 right 3 deg {BIG} girth 4 seed {BIG}\n"),
            (["transform", "substitute", "--template", "path7", "--k", BIG, "IN", "OUT"], None, 3, None),
            (["transform", "split", "--r", BIG, "IN", "OUT"], None, 0, "wrote "),
            (None, f"stage split r={BIG}", 0, "report "),
            (["girth", "IN", "--oracle-max", BIG], None, 0, f"oracle-check ok max-len {BIG}\n"),
            (None, f"target {BIG}", 5, None),
        ],
        ids=["plan-p", "certify-p", "certify-girth", "plan-8-p", "greedy-left", "greedy-girth", "greedy-deg-seed",
             "substitute-k", "split-r", "stage-split-r", "oracle-max", "target"],
    )
    def test_no_traceback(self, tmp_path, capsys, files, argv, recipe, code, stdout_has):
        if recipe is not None:
            path = tmp_path / "r.rcp"
            head = "rcp 1\n" if recipe.startswith("target") else "rcp 1\ntarget 3\n"
            path.write_text(head + "stage gen plane q=3\nstage nbhd\n" + recipe + "\n")
            argv = ["pipeline", str(path), "--out-dir", str(tmp_path / "run")]
        got, stdout, stderr = run(capsys, *[files.get(a, a) for a in argv])
        assert got == code
        assert len(stderr.splitlines()) <= 1 and len(stderr.encode()) < 200, stderr[:200]
        assert "Traceback" not in stderr
        assert stderr.startswith("error: ") if code else not stderr or stderr.startswith("warning: ")
        if stdout_has is not None:
            assert stdout_has in stdout


# One token of 100 000 characters, in letters or in digits, at each place
# a caller's string can reach a message: a recipe line (after `rcp 1`), a
# file's text, or a command's flags.
LONG, DIGITS = "x" * 100_000, "1" * 100_000
LONG_RECIPES = {
    "stage-key": f"target 3\nstage gen plane q=2 {LONG}=1",
    "stage-value-digits": f"target 3\nstage gen plane q={DIGITS}",
    "stage-value-letters": f"target 3\nstage gen plane q={LONG}",
    "certify-key": f"target 3\nstage gen plane q=2\ncertify girth=6 p=5 r=3 N=7 {LONG}=1",
    "certify-value": f"target 3\nstage gen plane q=2\ncertify girth=6 p=5 r={LONG} N=7",
    "directive": f"target 3\n{LONG}",
    "op": f"target 3\nstage {LONG}",
    "gen-kind": f"target 3\nstage gen {LONG}",
    "bare-token": f"target 3\nstage gen plane {LONG}",
    "target-letters": f"target {LONG}\nstage gen plane q=2",
    "target-and-greedy-seed": f"target {DIGITS}\nstage gen greedy left=4 right=4 deg=2 girth=4 seed={DIGITS}",
    "loose-path-template": f"target 3\nstage gen plane q=2\nstage nbhd\n"
                           f"stage substitute template=loose-path:{DIGITS}:3 k=1",
}
LONG_FILES = {
    "magic": ("r.rcp", f"{LONG}\ntarget 3\nstage gen plane q=2\n"),
    "hgt-body-token": ("in.hgt", f"hgt 1\nvertices 3\nedges 1\ne 0 {LONG}\n"),
    "hgt-vertex-count": ("in.hgt", f"hgt 1\nvertices {DIGITS}\nedges 0\n"),
    "bgt-header-line": ("in.bgt", f"bgt 1\n{LONG}\nright 1\n"),
    "certificate-header-value": ("c.txt", f"cert 1\ngirth {LONG}\np 5\nm 2\nn 1\nr 3\nstatus VALID\n"),
}
LONG_FLAGS = {
    "flag-q": ["gen", "plane", "--q", DIGITS, "out.bgt"],
    "flag-template": ["transform", "substitute", "--template", f"loose-path:{LONG}", "--k", "1", "in.hgt", "out.hgt"],
    "flag-p": ["plan", "--girth", "6", "--p", DIGITS, "--r", "3", "--N", "7", "--cert", "c.txt"],
}


@pytest.mark.parametrize("case", [*LONG_RECIPES, *LONG_FILES, *LONG_FLAGS])
def test_a_long_token_gives_one_short_line(tmp_path, capsys, monkeypatch, case):
    """Whatever the token is and wherever it sits, the command ends with one
    `error:` line of under 1 KB and an exit code from 2 to 5."""
    monkeypatch.chdir(tmp_path)
    name, text = LONG_FILES.get(case, ("r.rcp", f"rcp 1\n{LONG_RECIPES.get(case)}\n"))
    if case in LONG_FLAGS:
        name, text = "in.hgt", "hgt 1\nvertices 3\nedges 1\ne 0 1 2\n"
    (tmp_path / name).write_text(text)
    if name == "c.txt" and case in LONG_FILES:
        # No command reads a certificate: the parser's error is shown as main() shows one.
        with pytest.raises(Error) as exc:
            parse_certificate(text)
        code, stderr = next(c for cls, c in EXIT_CODES.items() if isinstance(exc.value, cls)), f"error: {exc.value}\n"
    else:
        argv = LONG_FLAGS.get(case) or (["pipeline", name, "--out-dir", "run"] if name == "r.rcp" else ["report", name])
        code, _, stderr = run(capsys, *argv)
    assert 2 <= code <= 5
    assert_one_error_line(stderr)
    assert len(stderr.encode()) < 1024, stderr[:200]


class TestEmptySplitWarning:
    WARNING = "warning: every edge is smaller than r=9; output has no edges\n"

    def test_transform_split(self, tmp_path, capsys):
        bgt, hgt, out = (str(tmp_path / name) for name in ("p3.bgt", "p3.hgt", "s.hgt"))
        assert run(capsys, "gen", "plane", "--q", "3", bgt)[0] == 0
        assert run(capsys, "transform", "nbhd", bgt, hgt)[0] == 0
        assert run(capsys, "transform", "split", "--r", "9", hgt, out) == (
            0, f"wrote {out} (13 vertices, 0 edges)\n", self.WARNING
        )

    def test_recipe_stage(self, tmp_path, capsys):
        recipe = tmp_path / "r.rcp"
        recipe.write_text("rcp 1\ntarget 3\nstage gen plane q=3\nstage nbhd\nstage split r=9\n")
        code, stdout, stderr = run(capsys, "pipeline", str(recipe), "--out-dir", str(tmp_path / "out"))
        assert (code, stderr) == (0, self.WARNING)
        assert "stage 3 split r=9: kind hypergraph girth inf edges 0" in stdout


class TestFailedWrite:
    """A write into a missing directory exits 3 with one line naming the
    target, not its temp file, and prints nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "plane", "--q", "3", "OUT"],
            ["plan", "--girth", "6", "--p", "5", "--r", "3", "--N", "3967295312526", "--cert", "OUT"],
        ],
        ids=["gen", "plan"],
    )
    def test_names_the_target(self, tmp_path, capsys, argv):
        target = str(tmp_path / "nodir" / "out.txt")
        code, stdout, stderr = run(capsys, *[target if a == "OUT" else a for a in argv])
        assert (code, stdout) == (3, "")
        assert_one_error_line(stderr)
        assert stderr.rstrip().endswith(f"No such file or directory: {target!r}") and ".tmp" not in stderr
        assert os.listdir(tmp_path) == []
