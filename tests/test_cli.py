import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctsat.cli import _integrator_config, build_parser, main
from ctsat.cnf import parse_dimacs
from ctsat.netlist import LINE_WIDTH

REPO = Path(__file__).resolve().parent.parent


def test_gen_barthel(tmp_path, capsys):
    out = tmp_path / "easy.cnf"
    assert main(["gen", "barthel", "--seed", "3", "--n", "12", "--ratio", "7",
                 "--out", str(out)]) == 0
    problem = parse_dimacs(out.read_text())
    assert problem.num_vars == 12 and problem.num_clauses == 84
    sidecar = json.loads((tmp_path / "easy.json").read_text())
    assert sidecar["seed"] == 3


def test_gen_xorsat(tmp_path):
    out = tmp_path / "hard.cnf"
    assert main(["gen", "xorsat", "--seed", "5", "--n", "10", "--out", str(out)]) == 0
    problem = parse_dimacs(out.read_text())
    assert problem.num_clauses == 40


def test_solve_and_plotdata(tmp_path, capsys):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "10", "--ratio", "7",
          "--out", str(cnf)])
    out_dir = tmp_path / "runs"
    code = main(["solve", "--seed", "2", "--out-dir", str(out_dir),
                 "--in", str(cnf), "--solver", "mem", "--t-ev", "60",
                 "--name", "demo"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "solved" in captured
    run_json = out_dir / "demo.json"
    assert run_json.exists()

    csv_out = tmp_path / "plot.csv"
    assert main(["plotdata", "--run", str(run_json), "--select", "contrd,v:1",
                 "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("t,series,value")


def test_solve_analog_with_aux_mode(tmp_path, capsys):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "10", "--ratio", "7",
          "--out", str(cnf)])
    code = main(["solve", "--seed", "2", "--out-dir", str(tmp_path / "r"),
                 "--in", str(cnf), "--solver", "analog", "--aux-mode", "K2",
                 "--t-ev", "120"])
    assert code == 0


def test_netlist_command(tmp_path):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "6", "--ratio", "4.3",
          "--out", str(cnf)])
    out = tmp_path / "deck.cir"
    assert main(["netlist", "--in", str(cnf), "--solver", "mem",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.rstrip().endswith(".end")
    assert all(len(line) <= LINE_WIDTH for line in text.splitlines())

    sub_out = tmp_path / "sub.cir"
    assert main(["netlist", "--in", str(cnf), "--solver", "mem",
                 "--out", str(sub_out), "--subckt", "nodea",
                 "--inputs", "1", "--outputs", "2"]) == 0
    assert ".subckt nodea v1 v2 contrd" in sub_out.read_text()


def test_netlist_random_ic(tmp_path):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "6", "--ratio", "4.3",
          "--out", str(cnf)])
    out = tmp_path / "deck.cir"
    main(["netlist", "--in", str(cnf), "--solver", "analog", "--out", str(out),
          "--random-ic"])
    assert "{flat(1)}" in out.read_text()


def test_oracle_command(tmp_path, capsys):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "xorsat", "--seed", "1", "--n", "10", "--out", str(cnf)])
    assert main(["oracle", "--in", str(cnf)]) == 0
    assert "SATISFIABLE" in capsys.readouterr().out
    # unsatisfiable case returns exit code 1
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 3 8\n" + "\n".join(
        f"{s1 * 1} {s2 * 2} {s3 * 3} 0"
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)) + "\n")
    assert main(["oracle", "--in", str(unsat), "--method", "exhaustive"]) == 1


def test_bench_command(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code = main(["bench", "--seed", "7", "--out-dir", str(out_dir),
                 "--families", "B7", "--sizes", "10", "--instances", "2",
                 "--solvers", "mem", "--t-ev", "60"])
    assert code == 0
    assert (out_dir / "summary.md").exists()
    assert "| 10 | mem |" in capsys.readouterr().out


def test_bench_lists_are_comma_lists(tmp_path, monkeypatch):
    # --families "X, B7" failed with unknown family ' B7', while --sizes
    # "10, 20" worked: every bench list strips its items and drops empty ones
    plans = []

    def run_experiment(plan, out_dir):  # records the plan, runs nothing
        plans.append(plan)
        return argparse.Namespace(to_markdown=lambda: ""), []

    monkeypatch.setattr("ctsat.cli.run_experiment", run_experiment)
    for families, solvers in (("X,B7", "mem,analog"), (" X , B7", " mem, , analog ")):
        assert main(["bench", "--out-dir", str(tmp_path), "--families", families,
                     "--solvers", solvers]) == 0
    assert plans[0].families == ("X", "B7")
    assert plans[0] == plans[1]


def test_network_command(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    main(["gen", "barthel", "--seed", "3", "--n", "8", "--ratio", "7",
          "--out", str(cnf)])
    net = {
        "t_ev": 60.0,
        "nodes": [
            {"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": 1},
            {"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": 2},
        ],
        "edges": [
            {"from": "node:0:2", "to": "node:1:1"},
            {"from": "node:1:2", "to": "node:0:1"},
        ],
    }
    (tmp_path / "net.json").write_text(json.dumps(net))
    code = main(["network", "--out-dir", str(tmp_path / "netout"),
                 "--config", str(tmp_path / "net.json")])
    assert code == 0
    assert (tmp_path / "netout" / "node0.json").exists()
    assert "node 0" in capsys.readouterr().out


def test_config_file_overrides(tmp_path, capsys):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "8", "--ratio", "7",
          "--out", str(cnf)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_ev": 30.0, "error_tol": 1e-5}))
    code = main(["solve", "--seed", "2", "--out-dir", str(tmp_path / "r"),
                 "--config", str(cfg), "--in", str(cnf)])
    assert code == 0
    payload = json.loads((tmp_path / "r" / "run.json").read_text())
    assert payload["config"]["t_ev"] == 30.0
    assert payload["config"]["error_tol"] == 1e-5


def test_unknown_config_key_rejected(tmp_path):
    cnf = tmp_path / "inst.cnf"
    main(["gen", "barthel", "--seed", "1", "--n", "8", "--ratio", "7",
          "--out", str(cnf)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(SystemExit):
        main(["solve", "--config", str(cfg), "--in", str(cnf)])


@pytest.mark.parametrize("config, flags", [
    (None, ["--t-ev", "nan"]),
    ('{"t_ev": Infinity}', []),        # json.loads accepts NaN and Infinity
    ('{"sample_interval": NaN}', []),
])
def test_non_finite_config_rejected(tmp_path, config, flags):
    # either used to hang the run in the sample-grid loop, so only the
    # config is built here
    args = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args = ["--config", str(tmp_path / "cfg.json")]
    args = build_parser().parse_args(["solve", *args, "--in", "inst.cnf", *flags])
    with pytest.raises(ValueError, match="must be finite"):
        _integrator_config(args)


def test_non_finite_mem_parameter_rejected(tmp_path, capsys):
    # a NaN alpha used to start a run that aborted at t=0 as a timeout; the
    # library's ValueError is a usage error of the subcommand
    cnf = tmp_path / "inst.cnf"
    assert main(["gen", "xorsat", "--n", "10", "--out", str(cnf)]) == 0
    out_dir = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--out-dir", str(out_dir), "--in", str(cnf), "--alpha", "nan"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ctsat solve ")
    assert "alpha must be finite" in err
    assert not out_dir.exists()


def test_solver_flags_reach_the_record(tmp_path):
    cnf = tmp_path / "inst.cnf"
    assert main(["gen", "xorsat", "--n", "10", "--out", str(cnf)]) == 0
    assert main(["solve", "--out-dir", str(tmp_path / "r"), "--in", str(cnf), "--t-ev", "2",
                 "--alpha", "2", "--no-clamp-v"]) == 0
    options = json.loads((tmp_path / "r" / "run.json").read_text())["options"]
    assert options == {"mem": {"clamp_v": False, "alpha": 2.0, "beta": 20.0, "gamma": 0.25,
                               "delta": 0.05, "epsilon": 0.001, "zeta": 0.01}}


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--solver", "analog", "--alpha", "0"], "--alpha"),
    (["solve", "--solver", "analog", "--no-clamp-v"], "--no-clamp-v"),
    (["netlist", "--solver", "mem", "--aux-mode", "K", "--out", "d.cir"], "--aux-mode"),
    (["netlist", "--no-one-eighth", "--out", "d.cir"], "--no-one-eighth"),
], ids=["solve-alpha", "solve-no-clamp-v", "netlist-aux-mode", "netlist-no-one-eighth"])
def test_other_solvers_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    # each was accepted and ignored: the run and the deck used the
    # defaults, and the record did not show the flag
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "xorsat", "--n", "10", "--out", "x.cnf"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--in", "x.cnf"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"does not read {flag}" in err
    # the usage line is the subcommand's, not the top-level parser's
    assert err.startswith(f"usage: ctsat {argv[0]} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cnf", "x.json"]


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_config_file_without_an_object_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # a config file holding [1] ended in a TypeError traceback from dict.update
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("[1]")
    extra = ["--in", "x.cnf"] if command == "solve" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", "cfg.json", *extra])
    assert exit_info.value.code == 2
    assert ("argument --config: cfg.json must hold a JSON object, got [1]"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["solve", "bench", "network"])
@pytest.mark.parametrize("name, text, message", [
    ("missing.json", None, "cannot read missing.json: No such file or directory"),
    ("cfg.json", "{", "cfg.json is not JSON: Expecting property name"),
], ids=["missing", "not-json"])
def test_unreadable_config_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command,
                                                 name, text, message):
    # a missing file ended in a FileNotFoundError traceback; a file that is
    # not JSON gave "invalid _config_file value" (solve, bench) or a
    # JSONDecodeError traceback (network)
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / name).write_text(text)
    extra = ["--in", "x.cnf"] if command == "solve" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", name, *extra])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ctsat {command} ")
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else [name])


def test_config_files_are_utf8_whatever_the_locale(tmp_path, monkeypatch, capsys):
    # a Latin-1 locale for every read that names no encoding: the key
    # caf\u00e9 read as 'caf\u00c3\u00a9'
    monkeypatch.setattr(io, "text_encoding", lambda encoding, stacklevel=2: encoding or "latin-1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"caf\u00e9": 1}', encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["bench", "--config", "cfg.json"])
    assert "unknown config keys in cfg.json: ['caf\u00e9']" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit):
        main(["bench", "--config", "cfg.json"])
    assert "cfg.json is not JSON: 'utf-8' codec" in capsys.readouterr().err


MALFORMED_CNF = "p cnf 3 1\n1 x 3 0\n"


@pytest.mark.parametrize("command", ["solve", "netlist", "oracle"])
@pytest.mark.parametrize("name, text, message", [
    ("nope.cnf", None, "cannot read nope.cnf: No such file or directory"),
    ("bad.cnf", MALFORMED_CNF, "bad.cnf: line 2: non-integer token in clause: '1 x 3 0'"),
    ("big.cnf", "p cnf 99999999999999999999 1\n99999999999999999998 2 3 0\n",
     "big.cnf: line 1: header sizes must fit in int64: 'p cnf 99999999999999999999 1'"),
], ids=["missing", "malformed", "beyond-int64"])
def test_unreadable_cnf_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command,
                                              name, text, message):
    # a missing file ended in a FileNotFoundError traceback, a malformed one
    # in a DimacsError traceback
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / name).write_text(text)
    extra = ["--out", "d.cir"] if command == "netlist" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--in", name, *extra])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ctsat {command} ")
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else [name])


def test_network_drive_that_feeds_no_input_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the unwired drive's transitions became stops of the node's run, which
    # then differed from the same node without the drive
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "xorsat", "--n", "10", "--out", "x.cnf"]) == 0
    (tmp_path / "net.json").write_text(json.dumps({
        "t_ev": 5.0, "nodes": [{"cnf": "x.cnf"}],
        "drives": [{"kind": "square", "period": 0.37}]}))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["network", "--config", "net.json", "--out-dir", "out"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ctsat network ")
    assert "error: drive 0 feeds no input" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "x.cnf", "x.json"]


def test_malformed_node_cnf_is_named(tmp_path, monkeypatch, capsys):
    # the usage error named only the line: "line 2: non-integer token ..."
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cnf").write_text(MALFORMED_CNF)
    (tmp_path / "net.json").write_text(json.dumps({"nodes": [{"cnf": "bad.cnf"}]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["network", "--config", "net.json"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ctsat network ")
    assert "error: bad.cnf: line 2: non-integer token in clause" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cnf", "net.json"]


@pytest.mark.parametrize("family", ["barthel", "xorsat"])
def test_gen_out_without_cnf_suffix_is_a_usage_error(tmp_path, monkeypatch, capsys, family):
    # --out inst.dimacs printed "wrote inst.dimacs" but wrote inst.cnf and inst.json
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", family, "--n", "10", "--out", "inst.dimacs"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ctsat gen {family} ")
    assert "argument --out: inst.dimacs does not end in .cnf" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--inputs", "1"], "--inputs needs --subckt"),
    (["--inputs", "1", "--outputs", "2", "--no-contrd-pin"],
     "--inputs, --outputs, --no-contrd-pin needs --subckt"),
    (["--subckt", "S", "--inputs", "1,a"],
     "argument --inputs: not a comma list of integers: '1,a'"),
    # int() reads 1_0 as 10 and +1 as 1; an index is ASCII -?[0-9]+, as in DIMACS
    (["--subckt", "S", "--inputs", "1_0"],
     "argument --inputs: not a comma list of integers: '1_0'"),
    (["--subckt", "S", "--inputs", "1", "--outputs", "+2"],
     "argument --outputs: not a comma list of integers: '+2'"),
    (["--subckt", "S", "--inputs", "\u0661"],
     "argument --inputs: not a comma list of integers: '\u0661'"),
], ids=["inputs", "all-pins", "bad-index", "underscore", "plus", "non-ascii"])
def test_pin_flags_are_checked(tmp_path, monkeypatch, capsys, flags, message):
    # pin flags without --subckt were ignored (exit 0, a plain deck), and a
    # bad index ended in a ValueError traceback from int('a')
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "xorsat", "--n", "10", "--out", "x.cnf"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["netlist", "--in", "x.cnf", "--out", "d.cir", *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ctsat netlist ")
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cnf", "x.json"]


NETLIST = ["netlist", "--in", "x.cnf", "--out", "d.cir"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "xorsat", "--n", "2", "--out", "y.cnf"], "3-regular 3-XORSAT generator needs N >= 4"),
    (["gen", "barthel", "--n", "10", "--ratio", "-1", "--out", "y.cnf"],
     "clause ratio must be positive"),
    (["bench", "--families", "Z"], "unknown family 'Z' (expected one of ('B4.3', 'B7', 'X'))"),
    (["bench", "--sizes", "a"], "argument --sizes: not a comma list of integers: 'a'"),
    (["bench", "--sizes", "1_0"], "argument --sizes: not a comma list of integers: '1_0'"),
    (["bench", "--instances", "0"], "instances_per_cell and workers must be at least 1"),
    (["solve", "--in", "x.cnf", "--t-ev", "-1"],
     "error_tol, t_ev and sample_interval must be positive"),
    (["solve", "--in", "x.cnf", "--sample-interval", "nan"],
     "sample_interval must be finite, got nan"),
    ([*NETLIST, "--subckt", "S", "--inputs", "1", "--outputs", "1"],
     "subcircuit pin 1 is given twice among the inputs and outputs"),
    ([*NETLIST, "--subckt", "S", "--inputs", "99"], "subcircuit pin 99 is out of range 1..10"),
    ([*NETLIST, "--subckt", "a b"], "subcircuit name must be a SPICE identifier, got 'a b'"),
    ([*NETLIST, "--subckt", "", "--inputs", "1"],
     "subcircuit name must be a SPICE identifier, got ''"),
    (["plotdata", "--run", "nope.json", "--select", "contrd"],
     "cannot read nope.json: No such file or directory"),
    (["plotdata", "--run", "r/run.json", "--select", "zz:1"], "selection 'zz:1' matches no series"),
    (["network", "--config", "net.json"], "cannot read a.cnf: No such file or directory"),
    # each wrote a deck: a .tran to -5 s, a short across every capacitor
    ([*NETLIST, "--t-ev", "-5"], "t_ev must be positive, got -5.0"),
    ([*NETLIST, "--shunt", "0"], "shunt_resistance must be positive, got 0.0"),
    # wrote a CSV of the header alone and exited 0
    (["plotdata", "--run", "r/run.json", "--select", ""], "selection '' names no series"),
], ids=["gen-xorsat-n", "gen-barthel-ratio", "bench-families", "bench-sizes",
        "bench-sizes-underscore", "bench-instances",
        "solve-t-ev", "solve-sample-interval", "netlist-overlap", "netlist-range", "netlist-name",
        "netlist-empty-name", "plotdata-run", "plotdata-select", "network-node-cnf",
        "netlist-t-ev", "netlist-shunt", "plotdata-empty-select"])
def test_rejected_values_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # each of these ended in a traceback; "--subckt ''" read as no --subckt
    # and reported "--inputs needs --subckt"
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "xorsat", "--n", "10", "--out", "x.cnf"]) == 0
    assert main(["solve", "--in", "x.cnf", "--t-ev", "1", "--out-dir", "r"]) == 0
    (tmp_path / "net.json").write_text(json.dumps({"nodes": [{"cnf": "a.cnf"}]}))
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    command = " ".join(argv[:2] if argv[0] == "gen" else argv[:1])
    assert err.startswith(f"usage: ctsat {command} ")
    assert err.endswith(f"ctsat {command}: error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == files


def test_unwritable_output_is_not_reported_as_unreadable(tmp_path, monkeypatch, capsys):
    # an unwritable output ended in an OSError traceback; it is one error
    # line with exit status 1, no usage line, and never "cannot read"
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "xorsat", "--n", "10", "--out", "x.cnf"]) == 0
    assert main(["solve", "--in", "x.cnf", "--t-ev", "1", "--out-dir", "r"]) == 0
    capsys.readouterr()
    for argv, message in [
        (["netlist", "--in", "x.cnf", "--out", "missing/d.cir"],
         "cannot write missing/d.cir: No such file or directory"),
        (["plotdata", "--run", "r/run.json", "--select", "contrd", "--out", "missing/p.csv"],
         "cannot write missing/p.csv: No such file or directory"),
        (["solve", "--in", "x.cnf", "--t-ev", "1", "--out-dir", "x.cnf"],
         "cannot write x.cnf: File exists"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == f"ctsat {argv[0]}: error: {message}\n"
    assert not (tmp_path / "missing").exists()


# which of the flags that several subcommands share each one declares;
# network's --config is its network description
SHARED = ("--seed", "--out-dir", "--config")
DECLARED = {
    "gen barthel": {"--seed"},
    "gen xorsat": {"--seed"},
    "solve": {"--seed", "--out-dir", "--config"},
    "netlist": {"--seed"},
    "oracle": set(),
    "network": {"--out-dir", "--config"},
    "bench": {"--seed", "--out-dir", "--config"},
    "plotdata": set(),
}


def leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every parser without subcommands."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield " ".join(path), parser
    for action in actions:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def test_flags_declared_only_where_read():
    parser = build_parser()
    assert [a.option_strings for a in parser._actions if a.option_strings] == [["-h", "--help"]]
    declared = {path: {option for a in leaf._actions for option in a.option_strings
                       if option in SHARED}
                for path, leaf in leaf_parsers(parser)}
    assert declared == DECLARED


# the arguments of one subcommand of each that leaves a shared flag unread
# (gen barthel reads as gen xorsat does)
ARGS = {
    "gen xorsat": ["--n", "10", "--out", "x.cnf"],
    "netlist": ["--in", "x.cnf", "--out", "d.cir"],
    "oracle": ["--in", "x.cnf"],
    "network": ["--config", "net.json"],
    "plotdata": ["--run", "run.json", "--select", "contra"],
}
VALUES = {"--seed": "5", "--out-dir": "out", "--config": "cfg.json"}


@pytest.mark.parametrize("flag, name", [
    (flag, name) for name in ARGS for flag in SHARED if flag not in DECLARED[name]
], ids=lambda value: value.lstrip("-").split()[0])
def test_flag_rejected_where_unread(tmp_path, monkeypatch, capsys, flag, name):
    # as global flags, --config was ignored by netlist (which wrote .tran 0
    # 300.0 with {"t_ev": 7.0} in the file), --seed by oracle, network and
    # plotdata, and --out-dir by gen, netlist, oracle and plotdata
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"t_ev": 7.0}))
    command = [*name.split(), *ARGS[name]]
    for argv, message in (([*command, flag, VALUES[flag]], f"unrecognized arguments: {flag}"),
                          ([flag, VALUES[flag], *command], "invalid choice")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_global_form_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "1", "gen", "xorsat", "--n", "10", "--out", "x.cnf"])
    assert exit_info.value.code == 2
    assert "invalid choice: '1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point(tmp_path):
    cnf = tmp_path / "inst.cnf"
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "ctsat", "gen", "barthel", "--seed", "1",
         "--n", "6", "--ratio", "4.3", "--out", str(cnf)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert cnf.exists()
