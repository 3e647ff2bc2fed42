import json
from pathlib import Path

import pytest

from sortnetsat import cli
from sortnetsat.cli import main
from sortnetsat.networks import Network
from sortnetsat.solving import SOLVER_ENV_VAR, default_config


def test_prefixes_listing(capsys):
    assert main(["prefixes", "5", "--variant", "H"]) == 0
    out = capsys.readouterr().out
    assert "(0,0,0,0,0)" in out
    assert "count: 22" in out


def test_prefixes_count_only(capsys):
    for variant in ("Tprime", "T'"):
        assert main(["prefixes", "11", "--variant", variant, "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "403"


def test_encode_writes_dimacs_and_map(tmp_path, capsys):
    cnf = tmp_path / "i.cnf"
    vmap = tmp_path / "i.map"
    assert main(["encode", "2", "1", "1", "-o", str(cnf), "--map", str(vmap)]) == 0
    text = cnf.read_text()
    assert text.startswith("p cnf ")
    assert vmap.read_text().startswith("g 1 1 2 -> 1")


def test_encode_to_stdout(capsys):
    assert main(["encode", "2", "1", "1"]) == 0
    assert capsys.readouterr().out.startswith("p cnf ")


def test_encode_file_and_stdout_give_the_same_bytes(tmp_path, capsys):
    args = ["encode", "6", "4", "10", "--prefix", "(0,0,12)"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    cnf = tmp_path / "i.cnf"
    assert main(args + ["-o", str(cnf)]) == 0
    assert cnf.read_bytes() == printed.encode()


def test_solve_builtin_and_verify_and_render(tmp_path, capsys):
    out = tmp_path / "net.json"
    rc = main(["solve", "4", "3", "5", "-o", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "status: SAT" in printed
    net = Network.from_json(out.read_text())
    assert net.size <= 5

    assert main(["verify", str(out)]) == 0
    assert "is a sorting network" in capsys.readouterr().out

    svg = tmp_path / "net.svg"
    assert main(["render", str(out), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_verify_rejects_non_sorter(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "layers": [[[1, 2]]]}))
    assert main(["verify", str(bad)]) == 1
    assert "does NOT sort" in capsys.readouterr().out


def test_optimize_cli_builtin(tmp_path, capsys):
    rc = main([
        "optimize", "4", "--mode", "size", "--depth", "3",
        "--catalog", str(tmp_path / "cat.jsonl"),
        "--save-witness", str(tmp_path / "w.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min_size_given_depth(3) = 5 [proven]" in out
    assert (tmp_path / "w.json").exists()


def test_solve_with_prefix(tmp_path, capsys):
    out = tmp_path / "net.json"
    rc = main([
        "solve", "5", "5", "9", "--prefix", "(0,1212)", "-o", str(out),
    ])
    assert rc == 0
    assert "status: SAT" in capsys.readouterr().out
    from sortnetsat.encoding import prefix_network
    from sortnetsat.words import parse_sentence

    net = Network.from_json(out.read_text())
    fixed = prefix_network(parse_sentence("(0,1212)"), 5)
    assert net.layers[:2] == fixed.layers  # the prefix really was pinned


def test_solve_reports_an_answer_implied_by_another_record(tmp_path, capsys):
    catalog = ["--catalog", str(tmp_path / "cat.jsonl")]
    solver = default_config().name
    assert main(["solve", "4", "3", "4", *catalog]) == 0
    assert f"status: UNSAT ({solver}, " in capsys.readouterr().out
    assert main(["solve", "4", "2", "3", *catalog]) == 0
    assert capsys.readouterr().out == f"status: UNSAT ({solver}, implied by d=3 s=4)\n"


def test_solve_reports_an_answer_read_back_from_its_own_record(tmp_path, capsys):
    path = tmp_path / "cat.jsonl"
    catalog = ["--catalog", str(path)]
    assert main(["solve", "4", "3", "4", *catalog]) == 0
    capsys.readouterr()
    assert main(["solve", "4", "3", "4", *catalog]) == 0
    assert capsys.readouterr().out == f"status: UNSAT ({default_config().name}, from catalog)\n"
    assert len(path.read_text().splitlines()) == 1


def test_optimize_pareto_prints_its_witnesses(tmp_path, capsys):
    saved = tmp_path / "w.json"
    rc = main(["optimize", "4", "--mode", "pareto", "--save-witness", str(saved)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frontier (d=3, s=5)" in out
    assert "witness[0]: size=5 depth=3\n" in out
    assert Network.from_json(saved.read_text()).trimmed().size == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "4", "1", "2", "--prefix", "(1212)"], "start layer 2 needs d >= 2"),
        (["encode", "4", "3", "5", "--prefix", "(1x2)"], "malformed word '1x2'"),
        (["encode", "4", "3", "5", "--prefix", "(21,21)"], "word '21' is not canonical; write '12'"),
        (["prefixes", "0"], "n must be positive, got 0"),
        (["prefixes", "5", "--variant", "X"], "unknown prefix variant 'X' (H, T, T', G)"),
        (["prefixes", "5", "--variant", "X", "--count-only"],
         "unknown prefix variant 'X' (H, T, T', G)"),
        (["optimize", "1", "--mode", "pareto"], "optimize needs n >= 2, got 1"),
        (["optimize", "5", "--mode", "size"], "optimize --mode size needs --depth"),
        (["optimize", "5", "--mode", "depth"], "optimize --mode depth needs --size"),
        (["optimize", "4", "--mode", "depth", "--size", "0"], "need s >= 1, got s=0"),
        (["optimize", "4", "--mode", "size", "--depth", "0"], "--depth must be at least 1, got 0"),
        (["optimize", "4", "--mode", "size", "--depth", "3", "--jobs", "0"],
         "--jobs must be at least 1, got 0"),
        (["solve", "4", "3", "5", "--timeout", "0"],
         "--timeout must be positive and finite, got 0"),
        (["solve", "4", "3", "5", "--timeout", "nan"],
         "--timeout must be positive and finite, got nan"),
        (["solve", "4", "3", "5", "--timeout", "inf"],
         "--timeout must be positive and finite, got inf"),
        (["optimize", "4", "--mode", "pareto", "--timeout", "nan"],
         "--timeout must be positive and finite, got nan"),
        (["optimize", "4", "--mode", "pareto", "--timeout", "inf"],
         "--timeout must be positive and finite, got inf"),
        (["verify", "missing.json"], "cannot read missing.json: "),
        (["render", "missing.json", "-o", "net.svg"], "cannot read missing.json: "),
        (["verify", "text.json"], "text.json: not a network file: Expecting value"),
        (["verify", "no-layers.json"], "no-layers.json: network file lacks the field 'layers'"),
        (["render", "no-layers.json", "-o", "net.svg"],
         "no-layers.json: network file lacks the field 'layers'"),
        (["verify", "out-of-range.json"],
         "out-of-range.json: not a network file: comparator (1, 5) out of range for n=3"),
        (["solve", "4", "3", "5", "-o", "nodir/w.json"],
         "cannot write nodir/w.json: no directory nodir"),
        (["encode", "4", "3", "5", "-o", "nodir/i.cnf"],
         "cannot write nodir/i.cnf: no directory nodir"),
        (["encode", "4", "3", "5", "--map", "nodir/i.map"],
         "cannot write nodir/i.map: no directory nodir"),
        (["optimize", "4", "--mode", "pareto", "--save-witness", "nodir/w.json"],
         "cannot write nodir/w.json: no directory nodir"),
        (["render", "net.json", "-o", "nodir/net.svg"],
         "cannot write nodir/net.svg: no directory nodir"),
        (["render", "net.json", "-o", "."], "cannot write .: it is a directory"),
        (["solve", "4", "3", "5", "--catalog", "."], "cannot write .: it is a directory"),
        (["solve", "4", "3", "5", "--catalog", "nodir/c.jsonl"],
         "cannot write nodir/c.jsonl: no directory nodir"),
        (["optimize", "4", "--mode", "size", "--depth", "3", "--catalog", "."],
         "cannot write .: it is a directory"),
        (["optimize", "4", "--mode", "size", "--depth", "3", "--catalog", "nodir/c.jsonl"],
         "cannot write nodir/c.jsonl: no directory nodir"),
        (["encode", "4", "3", "5", "--all-inputs"], "unrecognized arguments: --all-inputs"),
        (["solve", "4", "3", "5", "--solver", "x"], "unrecognized arguments: --solver x"),
        (["solve", "4", "3", "5", "--backend", "builtin"],
         "unrecognized arguments: --backend builtin"),
        (["optimize", "4", "--mode", "pareto", "--backend", "builtin"],
         "unrecognized arguments: --backend builtin"),
        (["SORTNETSAT_SOLVER=nosuchsolver", "solve", "3", "3", "3"],
         "SORTNETSAT_SOLVER='nosuchsolver' names no program that can be found"),
        (["SORTNETSAT_SOLVER= ", "solve", "3", "3", "3"],
         "SORTNETSAT_SOLVER=' ' names no program that can be found"),
        (['SORTNETSAT_SOLVER="kissat {cnf}', "solve", "3", "3", "3"],
         """SORTNETSAT_SOLVER='"kissat {cnf}': No closing quotation"""),
        (["SORTNETSAT_SOLVER=nosuchsolver", "optimize", "4", "--mode", "pareto"],
         "SORTNETSAT_SOLVER='nosuchsolver' names no program that can be found"),
        (["SORTNETSAT_SOLVER= ", "optimize", "4", "--mode", "pareto"],
         "SORTNETSAT_SOLVER=' ' names no program that can be found"),
    ],
    ids=["prefix-too-deep", "malformed-prefix", "non-canonical-prefix", "no-channels",
         "unknown-variant", "unknown-variant-count",
         "one-channel-optimize", "size-mode-without-depth",
         "depth-mode-without-size", "size-zero", "depth-zero", "no-jobs",
         "no-timeout", "nan-timeout", "infinite-timeout", "optimize-nan-timeout",
         "optimize-infinite-timeout", "verify-missing-file", "render-missing-file", "verify-non-json",
         "verify-no-layers", "render-no-layers", "verify-comparator-out-of-range",
         "solve-output-dir", "encode-output-dir", "encode-map-dir", "optimize-witness-dir",
         "render-output-dir", "render-output-is-a-directory", "solve-catalog-is-a-directory",
         "solve-catalog-dir", "optimize-catalog-is-a-directory", "optimize-catalog-dir",
         "encode-all-inputs",
         "solve-solver-flag", "solve-backend-flag", "optimize-backend-flag",
         "solve-missing-solver", "solve-blank-solver", "solve-solver-unbalanced-quote",
         "optimize-missing-solver", "optimize-blank-solver"],
)
def test_input_errors_are_reported_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                        argv, message):
    var, _, value = argv[0].partition("=")
    if var == SOLVER_ENV_VAR:  # a leading NAME=VALUE word sets it, as in a shell
        monkeypatch.setenv(var, value)
        argv = argv[1:]
    monkeypatch.chdir(tmp_path)
    Path("text.json").write_text("not json\n")
    Path("no-layers.json").write_text(json.dumps({"n": 3}))
    Path("out-of-range.json").write_text(json.dumps({"n": 3, "layers": [[[1, 5]]]}))
    Path("net.json").write_text(Network.make(2, [[(1, 2)]]).to_json())

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    if message.startswith(("cannot write", "--timeout", SOLVER_ENV_VAR)):
        # an output path, the timeout and the solver (which default_config
        # checks) are checked before anything is built or solved
        for name in ("build_instance", "default_config", "run_task", "optimize", "render_svg"):
            if not (name == "default_config" and message.startswith(SOLVER_ENV_VAR)):
                monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"sortnetsat: error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["solve", "3", "3", "3"],
     ["optimize", "3", "--mode", "size", "--depth", "3"],
     ["optimize", "4", "--mode", "size", "--depth", "3", "--jobs", "2"]],
    ids=["solve", "optimize", "optimize-in-a-worker"],
)
def test_a_solver_that_is_not_one_ends_in_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # ``true`` runs and exits 0, but prints no status line
    monkeypatch.setenv(SOLVER_ENV_VAR, "true")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == ("sortnetsat: error: no 's' status line in solver output "
                   "(exit code 0, stderr: '')\n")


@pytest.mark.parametrize("argv", [["solve", "4", "3", "5"],
                                  ["optimize", "4", "--mode", "size", "--depth", "3"]],
                         ids=["solve", "optimize"])
def test_a_bundled_solver_that_does_not_compile_ends_in_one_error_line(
    uncompilable_source, monkeypatch, capsys, argv
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli, "run_task", unreachable)
    monkeypatch.setattr(cli, "optimize", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("sortnetsat: error: solver build failed: ")
    # one line, which carries the compiler's first error
    assert err.count("\n") == 1
    assert "error" in err.removeprefix("sortnetsat: error: solver build failed: ")


def test_solver_build_without_a_compiler_ends_in_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(cli.csolver, "compiler", lambda: None)
    with pytest.raises(SystemExit) as exc:
        main(["solver-build"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "sortnetsat: error: no C compiler found; set SORTNETSAT_SOLVER instead\n")
