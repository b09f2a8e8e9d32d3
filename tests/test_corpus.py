import os
import pathlib
import subprocess
import sys

import kripkit
from kripkit import (claims, export, model_checks, model_cube, model_m1,
                     model_m2, model_m3, model_sse_fixpoint, parse,
                     parse_model, run_claims, satisfies, truth_set,
                     truth_set_checks, validate_model)

import oracle_eval as O


def test_models_validate_and_have_expected_shape():
    for m, n, nag, nat in [(model_m1(), 4, 3, 3), (model_m2(), 4, 3, 3),
                           (model_m3(), 5, 2, 2), (model_cube(), 8, 3, 3),
                           (model_sse_fixpoint(), 3, 2, 1)]:
        validate_model(m)
        assert (m.n, len(m.agents), len(m.atoms)) == (n, nag, nat)


def test_ids_unique_across_record_kinds():
    ids = [c.id for c in claims()] + [t.id for t in truth_set_checks()] + \
          [m.id for m in model_checks()]
    assert len(ids) == len(set(ids))


def test_run_claims_all_pass():
    report = run_claims()
    assert len(report.results) == 33 + 14 + 25
    failed = [r for r in report.results if not r.passed]
    assert not failed, failed
    assert report.ok
    assert report.n_passed == len(report.results)


def test_every_point_claim_confirmed_by_oracle():
    for c in claims():
        M = O.to_dict(c.pointed_model.model)
        w = c.pointed_model.model.worlds[c.pointed_model.world]
        assert O.sat(M, w, c.formula) == c.expected, c.id


def test_truth_set_checks_confirmed_by_oracle():
    for t in truth_set_checks():
        assert O.truth_set(O.to_dict(t.model), t.formula) == t.expected, t.id


def test_model_checks_expectations_match_oracle_transforms():
    # spot-check hand-encoded expected models against the naive transforms
    by_id = {m.id: m for m in model_checks()}
    m1 = O.to_dict(model_m1())
    assert O.t_eee(m1)["R"] == O.to_dict(by_id["model.eee.m1"].expected)["R"]
    assert O.t_see(m1, frozenset("ab"))["R"] == \
        O.to_dict(by_id["model.see.m1"].expected)["R"]
    pq = parse("p & q")
    assert O.t_sse(m1, frozenset("ab"), pq)["R"] == \
        O.to_dict(by_id["model.sse.m1.pq"].expected)["R"]
    cube = O.to_dict(model_cube())
    chi_or = parse("(K_a m_a | K_a ~m_a) | (K_b m_b | K_b ~m_b)"
                   " | (K_c m_c | K_c ~m_c)")
    assert O.t_sse(cube, frozenset("abc"), chi_or)["R"] == \
        O.to_dict(by_id["cube.chain.step1"].expected)["R"]


def test_fixpoint_model_is_a_true_fixpoint():
    fix = model_sse_fixpoint()
    M = O.to_dict(fix)
    assert O.t_sse(M, frozenset("ab"), parse("p"))["R"] == M["R"]


def test_sources_are_informative():
    for c in claims():
        assert c.source and "demo suite" in c.source


def test_export_round_trips():
    for c in claims():
        e = export(c)
        m2, p2 = parse_model(e["model"])
        assert m2 == c.pointed_model.model
        assert p2 == c.pointed_model.world
        assert e["world"] == m2.worlds[p2]
        f2 = parse(e["formula"])
        assert f2 == c.formula
        assert satisfies(m2, p2, f2) == e["expected"] == c.expected


def test_report_rows_carry_display_fields():
    for r in run_claims().results:
        assert r.kind in ("satisfies", "truth-set", "model-equality")
        assert r.expected and r.got
        assert isinstance(r.passed, bool)


# a fresh interpreter: the corpus is not loaded by importing the package or
# the CLI, and its names then load it
_LAZY = """
import sys
import kripkit
import kripkit.cli
print("kripkit.corpus" in sys.modules)
from kripkit import model_m1, run_claims
print(run_claims is sys.modules["kripkit.corpus"].run_claims)
names = dir(kripkit)
print(all(n in names and hasattr(kripkit, n) for n in kripkit.__all__))
try:
    kripkit.no_such_name
except AttributeError as e:
    print(e)
"""


def test_import_leaves_the_corpus_unloaded():
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(kripkit.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", _LAZY], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "False", "True", "True",
        "module 'kripkit' has no attribute 'no_such_name'"]
