import hashlib

import pytest
from click.testing import CliRunner

from kripkit import (apply_sse, model_m1, model_sse_fixpoint, parse,
                     parse_model, serialize_model)
from kripkit.cli import main


@pytest.fixture()
def m1_file(tmp_path):
    path = tmp_path / "m1.km"
    path.write_text(serialize_model(model_m1(), 0) + "\n")
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_check_true(m1_file):
    res = run("check", "--model", m1_file, "--world", "w0",
              "--formula", "D{a,b,c}(p&q&r)")
    assert res.output.strip() == "true"
    assert res.exit_code == 0


def test_check_false(m1_file):
    res = run("check", "--model", m1_file, "--world", "w0",
              "--formula", "K_a q")
    assert res.output.strip() == "false"
    assert res.exit_code == 1


def test_check_bad_world_is_usage_error(m1_file):
    res = run("check", "--model", m1_file, "--world", "w9", "--formula", "p")
    assert res.exit_code == 2
    assert "dangling-world" in res.output


def test_check_bad_formula_is_usage_error(m1_file):
    res = run("check", "--model", m1_file, "--world", "w0", "--formula", "p &")
    assert res.exit_code == 2
    assert "syntax-error" in res.output


def test_transform_sse_emits_expected_model(m1_file):
    res = run("transform", "--model", m1_file, "--op", "sse",
              "--agents", "a,b,c", "--topic", "p")
    assert res.exit_code == 0
    got, point = parse_model(res.output)
    assert got == apply_sse(model_m1(), frozenset("abc"), parse("p"))
    assert point == 0  # the point survives the transform


def test_transform_eee_and_read_agree(m1_file):
    eee = run("transform", "--model", m1_file, "--op", "eee")
    read = run("transform", "--model", m1_file, "--op", "read",
               "--alpha", "a:a,b,c;b:a,b,c;c:a,b,c")
    assert eee.exit_code == read.exit_code == 0
    assert eee.output == read.output


def test_transform_out_file(m1_file, tmp_path):
    out = tmp_path / "result.km"
    res = run("transform", "--model", m1_file, "--op", "see",
              "--agents", "a,b", "--out", str(out))
    assert res.exit_code == 0
    model, _ = parse_model(out.read_text())
    assert model.relation("c") == frozenset((w, w) for w in range(4))


def test_transform_missing_flags(m1_file):
    assert run("transform", "--model", m1_file, "--op", "see").exit_code == 2
    assert run("transform", "--model", m1_file, "--op", "sse",
               "--agents", "a").exit_code == 2
    assert run("transform", "--model", m1_file, "--op", "read").exit_code == 2
    res = run("transform", "--model", m1_file, "--op", "read",
              "--alpha", "a:b")  # a must read itself
    assert res.exit_code == 2
    assert "alpha-not-reflexive" in res.output


def test_translate_plain():
    res = run("translate", "--formula", "[see a](~p)")
    assert res.exit_code == 0
    assert res.output.strip() == "~p"


def test_translate_trace():
    res = run("translate", "--formula", "[sse a,b|p] D{c} q", "--trace")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) > 2
    assert lines[0].startswith("0: [sse-dist]")
    final = lines[-1]
    assert "D{a,b,c} q" in final
    # the trace ends with the static result, re-parseable
    parse(final)


README_EXAMPLE = ("[sse a | p] [sse b | q] [sse a,b | p & q] "
                  "D{a,b} (p -> [see a] K_b q)")


def test_translate_trace_of_readme_example_is_pinned():
    # every line of the flat trace, in order, as the distinct steps expand
    res = run("translate", "--formula", README_EXAMPLE, "--trace")
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 9344  # 9,343 steps and the result
    assert hashlib.sha256(res.output.encode()).hexdigest() == \
        "f2e7c7b090e63ead760e26b8dcea3ebc7da1842ef9f4bd186eb9db9e86725291"


def test_translate_deeply_nested_formula_is_usage_error():
    res = run("translate", "--formula", "~" * 3000 + "p")
    assert res.exit_code == 2
    assert "syntax-error: formula nested too deeply" in res.output


def test_validity_valid():
    res = run("validity", "--formula", "[eee]p <-> p",
              "--max-worlds", "2", "--agents", "a", "--atoms", "p")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "valid up to bound"
    assert "checked 68 models" in res.output


def test_validity_constants_need_no_atoms():
    res = run("validity", "--formula", "K_a true", "--max-worlds", "2",
              "--agents", "a", "--atoms", "")
    assert res.exit_code == 0
    assert "checked 18 models" in res.output


def test_validity_countermodel():
    res = run("validity", "--formula", "p -> K_a p",
              "--max-worlds", "2", "--agents", "a", "--atoms", "p")
    assert res.exit_code == 1
    assert res.output.splitlines()[0] == "countermodel found"
    # the emitted model re-parses and the point is the failing world
    body = res.output.split("countermodel found\n", 1)[1]
    model_text = "\n".join(body.splitlines()[1:])
    m, point = parse_model(model_text)
    assert point is not None


def test_validity_sampled_deterministic():
    args = ("validity", "--formula", "D{a,b} p -> K_a p",
            "--max-worlds", "3", "--agents", "a,b", "--atoms", "p",
            "--sample", "300", "--seed", "7")
    assert run(*args).output == run(*args).output


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_validity_sample_below_one_is_usage_error(sample):
    res = run("validity", "--formula", "p", "--max-worlds", "1",
              "--agents", "a", "--atoms", "p", "--sample", sample)
    assert res.exit_code == 2
    assert "bounds-too-large" in res.output


@pytest.mark.parametrize("agents, atoms", [("a,a", "p"), ("a", "p,q,p")])
def test_validity_duplicate_roster_entry_is_usage_error(agents, atoms):
    res = run("validity", "--formula", "K_a p", "--max-worlds", "2",
              "--agents", agents, "--atoms", atoms)
    assert res.exit_code == 2
    assert "duplicate-roster-entry" in res.output


def test_check_duplicate_roster_entry_is_usage_error(tmp_path):
    path = tmp_path / "dup.km"
    path.write_text("worlds: w0 w1\nagents: a a\natoms: p\n"
                    "rel a: w0-w1\nval p: w1\n")
    res = run("check", "--model", str(path), "--world", "w0",
              "--formula", "K_a p")
    assert res.exit_code == 2
    assert "duplicate-roster-entry" in res.output


def test_transform_alpha_entry_without_colon_is_usage_error(m1_file):
    res = run("transform", "--model", m1_file, "--op", "read",
              "--alpha", "a:a;b")
    assert res.exit_code == 2
    assert "bad --alpha entry 'b'" in res.output


def test_demo_paper():
    res = run("demo", "paper")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert run("demo", "nope").exit_code == 2


def test_dot_stable_and_merged(m1_file):
    a = run("dot", "--model", m1_file)
    b = run("dot", "--model", m1_file)
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.splitlines()[0] == "digraph model {"
    # m1's relations are symmetric: every edge merges into dir=none
    for line in a.output.splitlines():
        if "->" in line and "label" in line:
            assert "dir=none" in line
    assert '"w0" [label="w0\\np,q,r", peripheries=2];' in a.output


def test_dot_directed_edges_not_merged(tmp_path):
    path = tmp_path / "directed.km"
    path.write_text(serialize_model(model_sse_fixpoint()) + "\n")
    res = run("dot", "--model", str(path))
    assert res.exit_code == 0
    assert '"w0" -> "w2" [label="a,b"];' in res.output
    assert '"w0" -> "w1" [label="b"];' in res.output
    assert "dir=none" not in res.output
    # an edge only from the later world to the earlier one
    path.write_text("worlds: w0 w1\nagents: a\natoms: p\n"
                    "rel a: w1-w0\nval p: w1\n")
    res = run("dot", "--model", str(path))
    assert res.exit_code == 0
    assert '"w1" -> "w0" [label="a"];' in res.output
    assert "dir=none" not in res.output


def test_missing_model_file_is_usage_error():
    res = run("check", "--model", "/nonexistent.km", "--world", "w0",
              "--formula", "p")
    assert res.exit_code == 2
