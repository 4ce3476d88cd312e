"""Solver for epistemic logic programs.

Parses programs with subjective literals (`&k{...}`), grounds them, and
enumerates their world views by guess-and-check over the subjective
atoms, with a definition-faithful oracle for cross-checking.
"""

from .epistemic import (SolveStats, WorldView, aux_atom, apply_valuation,
                        expand_world_view, k15_transform, oracle_world_views,
                        satisfies, solve, subjective_atoms, translate_guess)
from .grounder import (GroundingError, GroundProgram, SafetyError,
                       ground_program, program_safety_check, safety_check,
                       simplify)
from .optimize import add_consistency_constraints, wfm_propagate
from .stable import Engine
from .syntax import (Atom, AuxAtom, Const, KAtom, LexError, Num, ObjLiteral,
                     ParseError, Program, Rule, SourceError, SubjLiteral, Var,
                     parse_text, print_atom, print_program, print_rule,
                     print_subjective)

__version__ = "0.1.0"

__all__ = [
    "Atom", "AuxAtom", "Const", "Engine", "GroundProgram", "GroundingError",
    "KAtom", "LexError", "Num", "ObjLiteral", "ParseError", "Program", "Rule",
    "SafetyError", "SolveStats", "SourceError", "SubjLiteral", "Var",
    "WorldView", "add_consistency_constraints", "apply_valuation", "aux_atom",
    "expand_world_view", "ground_program", "k15_transform",
    "oracle_world_views", "parse_text", "print_atom", "print_program",
    "print_rule", "print_subjective", "program_safety_check", "safety_check",
    "satisfies", "simplify", "solve", "subjective_atoms", "translate_guess",
    "wfm_propagate",
]
