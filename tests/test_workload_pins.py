"""The benchmark's workloads, run once and pinned by digest.

Each test generates a workload's inputs with kbench's own generator (read
only), checks that they are the inputs it was pinned on, runs the ops as
the benchmark does and compares one sha256 over their results. A change that
keeps "the same results" (verdicts, first countermodels, translations and
their traces) keeps these digests.
"""
import hashlib
import sys
from collections import Counter
from pathlib import Path

from kripkit import check_validity, engine, parse, print_formula, truth_mask
from kripkit.translate import translate_traced

import oracle_eval as O

_KBENCH = str(Path(__file__).resolve().parent.parent / "kbench")
if _KBENCH not in sys.path:
    sys.path.insert(0, _KBENCH)

import workloads  # noqa: E402


def _ops(name, seed, fingerprint):
    w = workloads.WORKLOADS[name]
    ops = w.generate(seed)
    assert workloads.fingerprint(t for op in ops for t in w.texts(op)) == \
        fingerprint
    return ops


def _verdict(v):
    world = None if v.valid else v.countermodel.world
    return v.valid, v.index, world, v.checked


def test_refute_verdicts_are_pinned():
    ops = _ops("refute", 103, "786bdfe65627afb50e0c871696eb5fb7"
                              "f36044f2a6c1d8ee5accdca60599f529")
    assert len(ops) == 6606
    h = hashlib.sha256()
    for text, bounds, _ in ops:
        phi = parse(text)
        v = check_validity(phi, bounds)
        if not v.valid:
            cm = v.countermodel
            assert not O.sat(O.to_dict(cm.model), cm.model.worlds[cm.world],
                             phi), text
        h.update(repr(_verdict(v)).encode())
    assert h.hexdigest() == (
        "241701b9ca980eed3a5849ccbc4a2795"
        "6d6a7f0f39b232c78acca3494d9f6e83")


def test_axiom_sweep_verdicts_are_pinned():
    ops = _ops("axiom-sweep", 101, "eee663b8b3ddf38537f8b0ce79dc7b34"
                                   "23bf87a569ea58855d539c43ab35d272")[:150]
    assert len(ops) == 10 * workloads.AxiomSweep.round_len
    h = hashlib.sha256()
    for text in ops:
        v = check_validity(parse(text), workloads.AXIOM_BOUNDS)
        h.update(repr(_verdict(v)).encode())
    assert h.hexdigest() == (
        "a3b13130bf92f994075edef73a88e371"
        "2ef4f38ce251d227b9f2e4bdb3dcfd37")


def _plan_kinds(prog, nat, text):
    """The kinds of prog's plan steps, once the plan's invariants hold: a
    plan keeps a step only if the root or a later step reads its register,
    or if it is an sse step (each one checks definition-mismatch), and a
    see step only to build the frame an sse step reads. A step reads only
    registers set once per scan (below nat + 3) or written by an earlier
    step, as the scan's one register list for all its blocks needs."""
    steps, root = engine._plan(prog)
    read = {root if root >= 0 else ~root}
    sse_read = set()
    for k, o, x, y, w, z in reversed(steps):
        assert o in read or k == engine.K_SSE, text
        assert k != engine.K_SEE or o in sse_read, text
        read.update((x, y, w))
        if k == engine.K_SSE:
            sse_read.add(x)
    written = set(range(nat + 3))
    for k, o, x, y, w, z in steps:
        assert {x, y, w} <= written, text
        written.add(o)
    assert (root if root >= 0 else ~root) in written, text
    return [k for k, *_ in steps]


def test_axiom_sweep_plans_hold_only_steps_that_are_read():
    # the plans hold _plan_kinds's invariants, and the count of steps of
    # each kind is pinned
    ops = _ops("axiom-sweep", 101, "eee663b8b3ddf38537f8b0ce79dc7b34"
                                   "23bf87a569ea58855d539c43ab35d272")[:3000]
    assert len(ops) == 3000
    bounds = workloads.AXIOM_BOUNDS
    kinds = Counter()
    for text in ops:
        prog = engine.restrict_program(engine.compile_program(
            parse(text), bounds.agents, bounds.atoms))
        kinds.update(_plan_kinds(prog, len(bounds.atoms), text))
    # 2.476 steps per op; every see step builds a frame under an sse
    assert sum(kinds.values()) == 7429
    assert kinds == {engine.K_AND: 475, engine.K_ANDN: 1547,
                     engine.K_OR: 594, engine.K_D: 2142, engine.K_DN: 598,
                     engine.K_MEET: 869, engine.K_SEE: 88,
                     engine.K_SSE: 1116}


def test_refute_plans_hold_only_steps_that_are_read():
    # every refute op planned as check_validity plans it: the program
    # restricted to the agents it reads for an exhaustive op, the full one
    # for a sampled op. The plans hold _plan_kinds's invariants, and the
    # count of steps of each kind is pinned
    ops = _ops("refute", 103, "786bdfe65627afb50e0c871696eb5fb7"
                              "f36044f2a6c1d8ee5accdca60599f529")
    assert len(ops) == 6606
    kinds = Counter()
    for text, bounds, _ in ops:
        prog = engine.compile_program(parse(text), bounds.agents,
                                      bounds.atoms)
        if bounds.sample is None:
            prog = engine.restrict_program(prog)
        kinds.update(_plan_kinds(prog, len(bounds.atoms), text))
    # 4.855 steps per op, none of them a see step
    assert sum(kinds.values()) == 32072
    assert kinds == {engine.K_AND: 1954, engine.K_ANDN: 7977,
                     engine.K_OR: 6080, engine.K_D: 4388, engine.K_DN: 8472,
                     engine.K_MEET: 2789, engine.K_SSE: 412}


def test_every_benchmark_text_round_trips():
    # the formula text of every op of the three pinned workloads is printed
    # back as it was read, so a parse keeps each of them whole
    texts = list(_ops("axiom-sweep", 101,
                      "eee663b8b3ddf38537f8b0ce79dc7b34"
                      "23bf87a569ea58855d539c43ab35d272"))
    texts += [op[0] for op in _ops("refute", 103,
                                   "786bdfe65627afb50e0c871696eb5fb7"
                                   "f36044f2a6c1d8ee5accdca60599f529")]
    texts += [op[0] for op in _ops("translate-check", 61,
                                   "c17752a0c96d002324fa68a71ea1887c"
                                   "56caa4b4c065c36911a4230d883425a9")]
    assert len(texts) == 3000 + 6606 + 2040
    for text in texts:
        assert print_formula(parse(text)) == text


def test_translate_check_results_are_pinned():
    ops = _ops("translate-check", 61, "c17752a0c96d002324fa68a71ea1887c"
                                       "56caa4b4c065c36911a4230d883425a9")[:200]
    h = hashlib.sha256()
    for text, models in ops:
        phi = parse(text)
        out, trace = translate_traced(phi, agents=workloads.PAIR_AGENTS)
        h.update(f"{print_formula(out)}\n{len(trace)}\n".encode())
        seen = set()
        for step in trace:
            if id(step) not in seen:
                seen.add(id(step))
                h.update(repr((step.clause, print_formula(step.formula),
                               print_formula(step.result))).encode())
        h.update(repr([(truth_mask(m, phi), truth_mask(m, out))
                       for m in models]).encode())
    assert h.hexdigest() == (
        "511ee66d59eb6648647dd9488ea40f53"
        "a72a7997ac5b771f36ca290183c6ae56")


def test_every_translate_check_translation_is_pinned():
    # all 2,040 ops: the output's text, the flat trace's length and the
    # clauses of the distinct steps in the order the flat trace first meets
    # them
    ops = _ops("translate-check", 61, "c17752a0c96d002324fa68a71ea1887c"
                                      "56caa4b4c065c36911a4230d883425a9")
    assert len(ops) == 2040
    h = hashlib.sha256()
    for text, _ in ops:
        out, trace = translate_traced(parse(text),
                                      agents=workloads.PAIR_AGENTS)
        clauses = {}
        for step in trace:
            clauses.setdefault(id(step), step.clause)
        h.update(f"{print_formula(out)}\n{len(trace)}\n"
                 f"{' '.join(clauses.values())}\n".encode())
    assert h.hexdigest() == (
        "68abfcaed9137829639474d308a711e5"
        "18a8841a4f42d801169cc0b56c6e325b")
