"""Solver for epistemic logic programs.

Parses programs with subjective literals (`&k{...}`), grounds them, and
enumerates their world views by guess-and-check over the subjective
atoms, with a definition-faithful oracle for cross-checking.
"""

from .epistemic import (SolveStats, WorldView, aux_atom, apply_valuation,
                        check_candidate, expand_world_view, k15_transform,
                        oracle_world_views, satisfies, solve, subjective_atoms,
                        translate_guess)
from .grounder import (GroundingError, GroundProgram, SafetyError,
                       ground_program, program_safety_check, safety_check,
                       simplify)
from .optimize import add_consistency_constraints, wfm_propagate
from .stable import (ConsequenceSets, Engine, answer_sets, consequences,
                     projected_answer_sets)
from .syntax import (Atom, AuxAtom, Const, KAtom, LexError, Num, ObjLiteral,
                     ParseError, Program, Rule, SourceError, SubjLiteral, Var,
                     parse_text, print_atom, print_program, print_rule,
                     print_subjective)

__version__ = "0.1.0"

__all__ = [
    "Atom", "AuxAtom", "Const", "ConsequenceSets", "Engine", "GroundProgram",
    "GroundingError", "KAtom", "LexError", "Num", "ObjLiteral",
    "ParseError", "Program", "Rule", "SafetyError", "SolveStats", "SourceError",
    "SubjLiteral", "Var", "WorldView", "add_consistency_constraints",
    "answer_sets", "apply_valuation", "aux_atom", "check_candidate",
    "consequences", "expand_world_view", "ground_program",
    "k15_transform", "oracle_world_views", "parse_text", "print_atom",
    "print_program", "print_rule", "print_subjective", "program_safety_check",
    "projected_answer_sets", "safety_check", "satisfies", "simplify", "solve",
    "subjective_atoms", "translate_guess", "wfm_propagate",
]
