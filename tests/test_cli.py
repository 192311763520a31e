import csv
import io
import json
import re
import shlex
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


def test_sweep_caps(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "path", "--n-max", "9")
    assert code == 2
    assert "capped" in err
    code, _, err = run_cli(capsys, "sweep", "--family", "path", "--r-max", "5")
    assert code == 2


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
    code, _, err = run_cli(capsys, "verify", "--graph", "complete:4",
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


def readme_commands() -> list[list[str]]:
    """Every `graphpir ...` line in the README's code blocks as an argv,
    with each loop variable expanded to every value of its loop."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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


def test_statistical_verify_builds_each_draw_point_once(capsys):
    # 10^4 samples per desired file over 3 draw points: the scheme runs
    # once per point, not once per sample
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--graph", "complete_bipartite:2,3",
                             "--privacy", "statistical", "--samples", "10000")
    assert code == 0, err
    assert "privacy-statistical" in out
    assert time.perf_counter() - start < 3.0
