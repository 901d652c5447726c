import os

import pytest

from hypergirth import parse_bipartite, parse_certificate, parse_hypergraph
from hypergirth.cli import main

from conftest import subprocess_env


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

    def test_bad_order_exit_3(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "plane", "--q", "4", str(tmp_path / "x.bgt"))
        assert code == 3
        assert "prime" in stderr

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

    def test_missing_flag_exit_3(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        code, _, stderr = run(capsys, "transform", "split", hgt, str(tmp_path / "x.hgt"))
        assert code == 3 and "--r" in stderr

    def test_pad_down_exit_3(self, hex_files, tmp_path, capsys):
        _, hgt = hex_files
        code, _, stderr = run(capsys, "transform", "pad", hgt, str(tmp_path / "x.hgt"), "--to", "10")
        assert code == 3 and "cannot pad down" in stderr

    def test_wrong_kind_exit_3(self, hex_files, tmp_path, capsys):
        bgt, _ = hex_files
        code, _, _ = run(capsys, "transform", "split", bgt, str(tmp_path / "x.hgt"), "--r", "2")
        assert code == 3

    def test_flag_the_op_does_not_take_exit_3(self, hex_files, tmp_path, capsys):
        bgt, _ = hex_files
        code, _, stderr = run(capsys, "transform", "nbhd", bgt, str(tmp_path / "x.hgt"), "--r", "5")
        assert code == 3 and "unknown ['--r']" in stderr

    def test_bipartite_template_exit_3(self, hex_files, tmp_path, capsys):
        bgt, hgt = hex_files
        code, _, stderr = run(
            capsys, "transform", "substitute", hgt, str(tmp_path / "x.hgt"), "--template", bgt, "--k", "1"
        )
        assert code == 3 and "needs a hypergraph input, got a bipartite" in stderr


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

    def test_bipartite_input(self, tmp_path, capsys):
        bgt = str(tmp_path / "p.bgt")
        run(capsys, "gen", "plane", "--q", "2", bgt)
        code, stdout, _ = run(capsys, "girth", bgt, "--oracle-max", "6")
        assert code == 0
        assert stdout.splitlines()[0] == "girth 6"
        assert "witness l" in stdout or "witness " in stdout

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
        import hypergirth.cli as cli_mod
        from hypergirth.girth import GirthReport

        monkeypatch.setattr(cli_mod, "girth_hypergraph", lambda h: GirthReport(4))
        code, _, stderr = run(capsys, "girth", path, "--oracle-max", "8")
        assert code == 5
        assert "oracle" in stderr

    def test_oracle_budget_env_exit_4(self, tmp_path, capsys, monkeypatch):
        bgt, hgt = str(tmp_path / "h.bgt"), str(tmp_path / "h.hgt")
        run(capsys, "gen", "hexagon", "--q", "2", bgt)
        run(capsys, "transform", "nbhd", bgt, hgt)
        monkeypatch.setenv("HYPERGIRTH_ORACLE_BUDGET", "10")
        code, _, stderr = run(capsys, "girth", hgt, "--oracle-max", "4")
        assert code == 4 and "budget" in stderr

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

    def test_bad_n_string(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "plan", "--girth", "6", "--p", "5", "--r", "3",
            "--N", "12x", "--cert", str(tmp_path / "c.txt"),
        )
        assert code == 3


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
        code, stderr, _ = self.run_recipe(tmp_path, capsys, self.STAGES + "certify p=5 N=7\n")
        assert code == 3 and "missing ['girth', 'r']" in stderr
        code, stderr, _ = self.run_recipe(tmp_path, capsys, self.STAGES + "certify girth=6 p=5 r=x N=7\n")
        assert code == 3 and "certify: r must be an integer, got 'x'" in stderr

    def test_target_not_an_integer_exit_2(self, tmp_path, capsys):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget x\nstage gen plane q=2\n")
        assert code == 2 and "line 2" in stderr and "'x'" in stderr

    @pytest.mark.parametrize(
        "stages,message",
        [
            ("stage gen plane q=abc\n", "stage 1: q must be an integer, got 'abc'"),
            ("stage gen greedy left=9 right=9 deg=2 girth=6 seed=s\n", "stage 1: seed must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage substitute template=path7 k=abc\n",
             "stage 3: k must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=two\n", "stage 3: r must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage pad to=1e3\n", "stage 3: to must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage substitute template=loose-path:x:3 k=1\n",
             "loose-path:x:3: edges must be an integer"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=0\n", "split size must be >= 2, got 0"),
            ("stage gen plane q=+2\n", "stage 1: q must be an integer, got '+2'"),
            ("stage gen plane q=2\nstage nbhd\nstage split r=03\n", "stage 3: r must be an integer, got '03'"),
        ],
        ids=["gen-q", "gen-seed", "substitute-k", "split-r", "pad-to", "template-edges", "split-r-zero",
             "gen-q-plus-sign", "split-r-leading-zero"],
    )
    def test_bad_stage_value_exit_3(self, tmp_path, capsys, stages, message):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget 2\n" + stages)
        assert code == 3 and message in stderr

    @pytest.mark.parametrize(
        "stages,message",
        [
            ("stage gen plane q=2\nstage nbhd bogus=1\n", "stage 2: nbhd takes [], missing [], unknown ['bogus']"),
            ("stage gen plane q=2 seed=1\n", "stage 1: gen plane takes ['q'], missing [], unknown ['seed']"),
            ("stage gen plane q=2\nstage split r=2\n", "stage 2: split needs a hypergraph input, got a bipartite"),
            ("stage gen plane q=2\nstage nbhd\nstage pad to=x\n", "stage 3: to must be an integer"),
        ],
        ids=["unknown-key", "unknown-gen-key", "input-kind", "late-value"],
    )
    def test_stages_checked_before_any_stage_runs(self, tmp_path, capsys, stages, message):
        code, stderr, out_dir = self.run_recipe(tmp_path, capsys, "rcp 1\ntarget 2\n" + stages)
        assert code == 3 and message in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["+6", "06"])
    def test_target_not_canonical_exit_2(self, tmp_path, capsys, value):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, f"rcp 1\ntarget {value}\nstage gen plane q=2\n")
        assert code == 2 and f"line 2: target girth must be an integer, got '{value}'" in stderr

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        code, stderr, _ = self.run_recipe(tmp_path, capsys, self.STAGES + "stage split r=2 r=3\n")
        assert code == 2 and "line 5: key 'r' given twice" in stderr


class TestNonAsciiInput:
    """A byte outside ASCII is a format error at its line, not a traceback."""

    HGT = b"hgt 1\nvertices 2\nedges 0\n\xff"
    BGT = b"bgt 1\nleft \xc3\xa9\nright 1\n"

    @pytest.mark.parametrize(
        "files,argv,line",
        [
            ({"bad.hgt": HGT}, ["girth", "bad.hgt"], 4),
            ({"bad.hgt": HGT}, ["report", "bad.hgt"], 4),
            ({"bad.bgt": BGT}, ["transform", "nbhd", "bad.bgt", "out.hgt"], 2),
            ({"host.hgt": b"hgt 1\nvertices 2\nedges 1\ne 0 1\n", "bad.hgt": HGT},
             ["transform", "substitute", "host.hgt", "out.hgt", "--template", "bad.hgt", "--k", "1"], 4),
            ({"r.rcp": "rcp 1\ntarget 2\nstage gen plane q=\u0663\n".encode("utf-8")},
             ["pipeline", "r.rcp", "--out-dir", "out"], 3),
        ],
        ids=["girth", "report", "transform-input", "template", "recipe"],
    )
    def test_exit_2_naming_the_line(self, tmp_path, capsys, files, argv, line):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        names = set(files) | {"out.hgt", "out"}
        code, _, stderr = run(capsys, *[str(tmp_path / a) if a in names else a for a in argv])
        assert_one_error_line(stderr)
        assert code == 2 and f"error: line {line}: non-ASCII byte" in stderr


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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(out)
