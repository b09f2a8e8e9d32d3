"""kripkit: finite multi-agent Kripke models with distributed knowledge and
three flavours of communicative update, plus translation to the static
fragment and bounded countermodel search.

The bundled claim corpus (run_claims and its models) loads on first use, so
importing the package does not build it."""

import importlib

from .engine import Program, backend_name, compile_program, run_one, run_range
from .formula import (And, Atom, Bot, D, Dhat, Eee, Formula, Iff, Implies, K,
                      Not, Or, See, Sse, Top, agents_of, atoms_of, c_greater,
                      complexity, desugar, ndc, nsc, parse, print_formula)
from .kripke_core import (KripkitError, Model, PointedModel,
                          distributed_relation, image, parse_model,
                          relation_properties, serialize_model,
                          validate_model)
from .semantics import satisfies, truth_mask, truth_set
from .transforms import (apply_eee, apply_reading_event, apply_see, apply_sse,
                         full_ignorance_relation, knowing_only_relation)
from .translate import TraceStep, TranslationTrace, translate, translate_traced
from .validity import (SCHEMAS, SearchBounds, Verdict, axiom_instances,
                       check_equivalence, check_validity, decode_model,
                       enumerate_models, formula_pool, model_index)

__version__ = "0.1.0"

__all__ = [
    "KripkitError", "Model", "PointedModel", "parse_model", "serialize_model",
    "validate_model", "distributed_relation", "relation_properties", "image",
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Implies", "Iff",
    "K", "D", "Eee", "See", "Sse", "Dhat", "parse", "print_formula",
    "desugar", "atoms_of", "agents_of", "nsc", "ndc", "complexity",
    "c_greater", "satisfies", "truth_set", "truth_mask", "apply_eee",
    "apply_see", "apply_sse", "apply_reading_event",
    "full_ignorance_relation", "knowing_only_relation", "translate",
    "translate_traced", "TranslationTrace", "TraceStep", "Program",
    "compile_program", "run_range", "run_one", "backend_name", "SCHEMAS",
    "SearchBounds", "Verdict", "check_validity", "check_equivalence",
    "decode_model", "model_index", "enumerate_models", "formula_pool",
    "axiom_instances", "Claim", "ClaimReport", "ClaimResult", "ModelCheck",
    "TruthSetCheck", "claims", "model_checks", "truth_set_checks",
    "run_claims", "export", "model_m1", "model_m2", "model_m3", "model_cube",
    "model_sse_fixpoint", "__version__",
]

_CORPUS = frozenset((
    "Claim", "ClaimReport", "ClaimResult", "ModelCheck", "TruthSetCheck",
    "claims", "export", "model_checks", "model_cube", "model_m1", "model_m2",
    "model_m3", "model_sse_fixpoint", "run_claims", "truth_set_checks"))


def __getattr__(name):
    if name in _CORPUS:
        return getattr(importlib.import_module(".corpus", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _CORPUS)
