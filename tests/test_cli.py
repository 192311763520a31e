import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphpir.cli import build_parser, main, parse_theta
from graphpir.core import FileId
from graphpir.graphs import parse_graph
from graphpir.verify import PRIVACY_MODES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_theta():
    assert parse_theta("3") == FileId(3, 1)
    assert parse_theta("2.3") == FileId(2, 3)
    with pytest.raises(Exception):
        parse_theta("x.y")


def test_run_dumps_transcript(capsys):
    code, out, _ = run_cli(capsys, "run", "--graph", "path:3", "--theta", "1",
                           "--seed", "7")
    assert code == 0
    assert out.startswith("theta 1.1")
    assert "rate 2/3" in out
    assert "plan:" in out


def test_run_is_deterministic_for_fixed_seed(capsys):
    a = run_cli(capsys, "run", "--graph", "complete:4", "--seed", "3")
    b = run_cli(capsys, "run", "--graph", "complete:4", "--seed", "3")
    c = run_cli(capsys, "run", "--graph", "complete:4", "--seed", "4")
    assert a == b
    assert a != c


def test_run_multigraph_theta_copy(capsys):
    code, out, _ = run_cli(capsys, "run", "--graph", "path:3^2",
                           "--theta", "2.2")
    assert code == 0
    assert out.startswith("theta 2.2")
    assert "rate 4/9" in out


def test_verify_md_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "path:4",
                           "--privacy", "exact")
    assert code == 0
    assert "| reliability | pass |" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "star:4",
                           "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["scheme"] == "star"
    assert d["passed"] is True
    assert {c["check"] for c in d["checks"]} == {
        "reliability", "privacy-exact", "srp", "rate"
    }


def test_verify_statistical_mode(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--graph", "path:3^2",
        "--privacy", "statistical", "--samples", "10000", "--tol", "0.02",
    )
    assert code == 0
    assert "privacy-statistical" in out


def test_verify_auto_scheme_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "star:5^2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["scheme"] == "lift:star"


def test_bounds_md_and_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--graph", "path:6")
    assert code == 0
    assert "tightness: tight (lower 1/3, upper 1/3)" in out
    code, out, _ = run_cli(capsys, "bounds", "--graph", "path:6",
                           "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "value", "precision", "source", "applicable"]
    assert ["lower", "1/3", "exact", "path scheme", "yes"] in rows


@pytest.mark.parametrize("fmt", ["md", "json", "csv"])
def test_bounds_builds_one_report(capsys, monkeypatch, fmt):
    # the tightness line is read off the printed entries, so one bounds
    # call makes one report, and prints what the two reports printed
    import graphpir.bounds as bounds
    import graphpir.cli as cli

    real, calls = bounds.bound_report, []

    def counted(g):
        calls.append(g)
        return real(g)

    g = parse_graph("path:4^3")
    entries = real(g)
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        cli._print_bounds(fmt, g, entries, bounds.tightness_check(g))
    monkeypatch.setattr(bounds, "bound_report", counted)
    monkeypatch.setattr(cli, "bound_report", counted)
    code, out, _ = run_cli(capsys, "bounds", "--graph", "path:4^3", "--format", fmt)
    assert code == 0 and out == expected.getvalue()
    assert calls == [g]


def test_bounds_md_says_unknown_without_an_exact_pair(capsys):
    # two disjoint edges beside two isolated vertices: an exact upper
    # bound applies, but no exact lower one does
    graph = '{"n":6,"edges":[[1,2],[3,4]]}'
    code, out, _ = run_cli(capsys, "bounds", "--graph", graph)
    assert code == 0
    assert out.splitlines()[-1] == "tightness: unknown"
    code, out, _ = run_cli(capsys, "bounds", "--graph", graph, "--format", "json")
    assert json.loads(out)["tightness"] == {"status": "unknown", "lower": "", "upper": ""}


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--graph", "complete:3",
                           "--format", "json")
    d = json.loads(out)
    assert d["tightness"]["status"] == "tight"
    assert any(e["source"] == "complete-graph scheme" for e in d["entries"])


def test_table_command(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "tableIII")
    assert code == 0
    assert "theta=(2,3)" in out


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "path",
                           "--n-max", "4", "--r-max", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["graph", "scheme", "rate", "best_lower", "best_upper", "tight"]
    assert len(rows) == 1 + 3 * 2
    by_graph = {r[0]: r for r in rows[1:]}
    assert by_graph["path:4"][1:3] == ["path", "1/2"]
    assert by_graph["path:4^2"][1:] == ["lift:path", "1/3", "1/3", "1/3", "yes"]


SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", ["path", "cycle", "star", "complete"])
def test_sweep_matches_reference(capsys, family, seed):
    code, out, _ = run_cli(capsys, "sweep", "--family", family,
                           "--n-min", "3", "--n-max", "8", "--r-min", "1",
                           "--r-max", "3", "--seed", str(seed))
    assert code == 0
    assert out.encode() == (SWEEP_REFERENCE / ("sweep-%s.csv" % family)).read_bytes()


def test_sweep_caps(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "path", "--n-max", "9")
    assert code == 2
    assert "capped" in err
    code, _, err = run_cli(capsys, "sweep", "--family", "path", "--r-max", "5")
    assert code == 2


def test_sweep_bad_range_writes_nothing(capsys):
    # --n-min 2 is below the cycle's smallest member
    code, out, err = run_cli(capsys, "sweep", "--family", "cycle", "--n-min", "2")
    assert code == 2
    assert out == ""
    assert err == "error: cycle needs N >= 3\n"


@pytest.mark.parametrize("bounds,err", [
    (("--n-min", "3", "--n-max", "2"), "error: empty sweep range: N from 3 to 2\n"),
    (("--r-min", "2", "--r-max", "1"), "error: empty sweep range: r from 2 to 1\n"),
])
def test_sweep_refuses_an_empty_range(capsys, bounds, err):
    code, out, got = run_cli(capsys, "sweep", "--family", "path", *bounds)
    assert (code, out, got) == (2, "", err)


def test_sweep_starts_at_the_family_smallest_member(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cycle", "--n-max", "4")
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["graph", "cycle:3", "cycle:4"]
    code, out, _ = run_cli(capsys, "sweep", "--family", "star", "--n-max", "3")
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["graph", "star:2", "star:3"]


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "nonsense")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "run", "--graph", "path:4", "--theta", "bad")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--graph", "path:4", "--theta", "9")
    assert code == 2


def test_verification_failure_exits_1(capsys, monkeypatch):
    import graphpir.cli as cli
    from graphpir.mutants import compose_stars_theta_ordered
    import graphpir.verify as ver

    real = ver.verify_scheme

    def patched(scheme, g, **kw):
        return real(compose_stars_theta_ordered, g, **kw)

    monkeypatch.setattr(cli, "verify_scheme", patched)
    code, out, _ = run_cli(
        capsys, "verify", "--graph", "complete_bipartite:2,2",
        "--privacy", "exact",
    )
    assert code == 1
    assert "FAIL" in out


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("GRAPHPIR_SEED", "123")
    a = run_cli(capsys, "run", "--graph", "path:4")
    b = run_cli(capsys, "run", "--graph", "path:4", "--seed", "123")
    assert a == b


def test_bad_seed_env_is_a_usage_error_where_it_is_read(capsys, monkeypatch):
    monkeypatch.setenv("GRAPHPIR_SEED", "abc")
    for argv in (("run", "--graph", "path:3"), ("sweep", "--n-max", "3")):
        assert run_cli(capsys, *argv) == (
            2, "", "error: GRAPHPIR_SEED must be an integer, got 'abc'\n")
    # --seed wins over the variable, and no other subcommand reads it
    assert run_cli(capsys, "run", "--graph", "path:3", "--seed", "0")[0] == 0
    for argv in (("bounds", "--graph", "path:3"), ("table", "--name", "tableI"),
                 ("verify", "--graph", "path:3", "--seeds", "1")):
        assert run_cli(capsys, *argv)[0] == 0


def test_verifier_refusal_exits_3(capsys, monkeypatch):
    import graphpir.cli as cli
    from graphpir.core import TranscriptError

    def refuse(scheme, g, **kw):
        raise TranscriptError("pattern tie groups too large to canonicalize")

    monkeypatch.setattr(cli, "verify_scheme", refuse)
    code, out, err = run_cli(capsys, "verify", "--graph", "path:4")
    assert code == 3
    assert out == ""
    assert err == "error: cannot verify: pattern tie groups too large to canonicalize\n"


def test_exact_budget_refusal_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "complete:5",
                           "--privacy", "exact", "--seeds", "1")
    assert code == 3
    assert err.startswith("error: cannot verify: randomness space exceeds")


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_without_seeds_exits_2(capsys, seeds):
    # no transcript is built, so no check may pass
    code, out, err = run_cli(capsys, "verify", "--graph", "complete:4",
                             "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert err == "error: need at least one seed\n"


def test_verify_with_more_seeds_than_a_range_holds_exits_2(capsys):
    # refused before any build: a range this long has no len()
    code, out, err = run_cli(capsys, "verify", "--graph", "complete:3",
                             "--seeds", "100000000000000000000")
    assert code == 2
    assert out == ""
    assert err == ("error: --seeds must be at most %d, got 100000000000000000000\n"
                   % sys.maxsize)


@pytest.mark.parametrize("fmt", ("md", "json"))
def test_bounds_print_exact_values_past_the_int_digit_cap(capsys, fmt):
    # path:3^15000's exact bounds have 9033 digits, more than Python's
    # default cap of 4300 on int-to-str conversion, which is restored
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "bounds", "--graph", "path:3^15000", "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    values = ([e["value"] for e in json.loads(out)["entries"]] if fmt == "json"
              else re.findall(r"^\| (?:lower|upper) \| (\S+) \|", out, re.M))
    assert sorted(len(v) for v in values) == [3, 7] + [9033] * 6
    assert "1/22500" in values  # path:3's rate 2/3 over r


@pytest.mark.parametrize("graph", [
    "path:3^" + "9" * 40,
    '{"n": 3, "edges": [[1, 2]], "multiplicity": %s}' % ("9" * 40),
])
def test_bounds_refuses_a_huge_multiplicity_at_once(capsys, graph):
    # the exact bounds compute 2^r, so a multiplicity past the limit is
    # refused before any bound is computed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--graph", graph)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: multiplicity above the limit of 65536\n"


def test_bounds_at_the_largest_multiplicity(capsys):
    code, out, err = run_cli(capsys, "bounds", "--graph", "path:3^65536")
    assert (code, err) == (0, "")
    assert "| 1/98304 |" in out  # path:3's rate 2/3 over r


@pytest.mark.parametrize("argv", [
    ("run", "--graph", "path:2^40"),
    ("verify", "--graph", "path:2^24"),
])
def test_a_lift_too_large_to_build_exits_2(capsys, argv):
    # refused before any stage or block plan is built, which would take
    # memory growing with 2^r
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: lift too large to build: file length 2^")
    assert err.count("\n") == 1


def test_a_large_lift_still_runs(capsys):
    code, out, err = run_cli(capsys, "run", "--graph", "star:2^12")
    assert (code, err) == (0, "")
    assert out.endswith("rate 2048/4095\n")


def test_privacy_choices_are_the_verifier_modes():
    for mode in PRIVACY_MODES:
        args = build_parser().parse_args(
            ["verify", "--graph", "path:3", "--privacy", mode])
        assert args.privacy == mode


def test_no_scheme_for_family_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--graph", "cycle:5")
    assert code == 2
    assert out == ""
    assert err == "error: no scheme for family cycle\n"
    code, out, _ = run_cli(capsys, "bounds", "--graph", "cycle:5")
    assert code == 0
    assert "tightness:" in out


@pytest.mark.parametrize("edges,scheme", [
    ([[1, 2], [2, 3], [3, 4]], "path"),
    ([[1, 4], [2, 4], [3, 4]], "star"),
])
def test_auto_binds_a_path_or_star_beside_an_isolated_vertex(capsys, edges, scheme):
    graph = json.dumps({"n": 5, "edges": edges})
    code, out, err = run_cli(capsys, "verify", "--graph", graph, "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["scheme"] == scheme and report["passed"]
    assert run_cli(capsys, "verify", "--graph", graph, "--scheme", scheme,
                   "--format", "json") == (0, out, "")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Every `graphpir ...` line in the README's code blocks as an argv,
    with each loop variable expanded to every value of its loop."""
    readme = README.read_text()
    commands = []
    # Fences alternate open/close, so the code blocks are the odd pieces.
    for block in re.split(r"^```.*$", readme, flags=re.M)[1::2]:
        loop = {}
        for line in block.replace("\\\n", " ").splitlines():
            m = re.match(r"\s*for (\w+) in (.*); do$", line)
            if m:
                loop = {"$" + m.group(1): m.group(2).split()}
            if not line.lstrip().startswith("graphpir "):
                continue
            words = shlex.split(line, comments=True)[1:]
            if "||" in words:
                words = words[: words.index("||")]
            variables = [w for w in words if w in loop]
            for value in loop[variables[0]] if variables else [None]:
                commands.append([value if w in loop else w for w in words])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "run", "verify", "bounds", "table", "sweep"
    }
    assert ["table", "--name", "tableIV"] in commands
    assert ["verify", "--graph", "complete:3^2", "--seeds", "5"] in commands
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: graphpir %s"
                        % " ".join(argv))
        if hasattr(args, "graph"):
            parse_graph(args.graph)


def test_readme_quickstart_runs(capsys):
    # the library example, as printed: it prints the rate and asserts
    # that the report passed
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert capsys.readouterr().out == "1/2\n"


def test_statistical_verify_builds_each_draw_point_once(capsys):
    # 10^4 samples per desired file over 3 draw points: the scheme runs
    # once per point, not once per sample
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--graph", "complete_bipartite:2,3",
                             "--privacy", "statistical", "--samples", "10000")
    assert code == 0, err
    assert "privacy-statistical" in out
    assert time.perf_counter() - start < 3.0


def test_closed_stdout_exits_quietly_with_141():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphpir.cli", "verify", "--graph", "path:4",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader leaves before the first byte
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_python_m_graphpir_matches_the_console_entry_point():
    # the console script `graphpir` is `sys.exit(graphpir.cli:main())`
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["bounds", "--graph", "path:4"]
    entry = "import sys; from graphpir.cli import main; sys.exit(main())"
    module = subprocess.run([sys.executable, "-m", "graphpir", *argv],
                            capture_output=True, env=env, timeout=60)
    script = subprocess.run([sys.executable, "-c", entry, *argv],
                            capture_output=True, env=env, timeout=60)
    assert module.returncode == script.returncode == 0
    assert module.stdout == script.stdout
    assert module.stderr == script.stderr == b""
    assert b"tightness: tight" in module.stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "1"])
def test_meaningless_tolerance_exits_2(capsys, tol):
    # nan passed every scheme, -1 failed an honest one, 1 could never fail
    code, out, err = run_cli(capsys, "verify", "--graph", "complete_bipartite:2,3",
                             "--privacy", "statistical", "--samples", "10000",
                             "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance must be in [0, 1)")
    assert err.count("\n") == 1


def test_zero_tolerance_is_accepted(capsys):
    code, out, err = run_cli(capsys, "verify", "--graph", "complete_bipartite:2,3",
                             "--privacy", "statistical", "--samples", "10000",
                             "--tol", "0")
    assert code == 0, err
    assert "tolerance 0," in out


@pytest.mark.parametrize("command,graph,expected", [
    ("bounds", '{"n":3,"edges":[]}', 0),
    ("bounds", '{"n":3,"edges":5}', 2),
    ("bounds", '{"n":3,"edges":[[1,"a"]]}', 2),
    ("bounds", '{"n":3,"edges":[[1,2]],"flags":5}', 2),
    ("verify", '{"n":3,"edges":[[1,2.5]]}', 2),
])
def test_malformed_json_graphs_are_usage_errors(capsys, command, graph, expected):
    code, out, err = run_cli(capsys, command, "--graph", graph)
    assert code == expected
    if expected:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert "| no (graph has no edges) |" in out


def test_bounds_on_edgeless_graph_lists_no_applicable_entry(capsys):
    code, out, err = run_cli(capsys, "bounds", "--graph", '{"n":3,"edges":[]}',
                             "--format", "json")
    assert code == 0 and err == ""
    entries = json.loads(out)["entries"]
    assert entries and not any(e["applicable"] for e in entries)
    asym = [e for e in entries if e["source"] == "asymptotic capacity"]
    assert [e["reason"] for e in asym] == ["graph has no edges"]
