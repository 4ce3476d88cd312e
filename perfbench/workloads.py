"""Seeded workload generators.

Every workload is a list of instances.  An instance is program text plus
the semantics it is solved under and a renaming that maps the constants
the seed chose back to canonical names.  The seed only permutes and
relabels: the amount of work (candidate count, ground rule count) is the
same for every seed, and after renaming the world views are the same, so
one pinned reference per instance serves every seed.

Statement order and labels still change how long a solve takes (the
engine's propagation sweeps rules in order), by up to 15% on yale04 under
k15.  So a run does not use one draw: pass k of a run solves draw k of
its seed, and the median over passes is a median over draws.

This module does not import epiworld; the Yale texts are read from the
package's data directory under the source tree.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
YALE_DIR = ROOT / "src" / "epiworld" / "data" / "yale"


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    semantics: str = "g91"
    rename: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# eligibility: independent students whose candidates multiply

ELIGIBILITY_RULES = (
    "eligible(X) :- high(X).",
    "eligible(X) :- minority(X), fair(X).",
    "-eligible(X) :- -fair(X), -high(X).",
    "interview(X) :- not &k{ eligible(X) }, not &k{ -eligible(X) }, student(X).",
)

# Candidates are 2^(disjunction students); the other profiles each fix
# their student's subjective atoms.  Fixing every count, not just the
# disjunction one, also fixes the number of facts and ground rules.
ELIGIBILITY_PROFILES = (("disjunction", 7), ("high", 2), ("fair", 2),
                        ("minority", 2), ("negative", 3))


def _profile_facts(profile: str, s: str) -> list[str]:
    return {
        "high": [f"high({s})."],
        "fair": [f"fair({s})."],
        "minority": [f"minority({s}).", f"fair({s})."],
        "disjunction": [f"fair({s}),high({s})."],
        "negative": [f"-fair({s}).", f"-high({s})."],
    }[profile]


def eligibility_statements(profiles: list[str], names: list[str]) -> list[str]:
    """Rules plus one student per (profile, name) pair."""
    out = list(ELIGIBILITY_RULES)
    for profile, s in zip(profiles, names):
        out.append(f"student({s}).")
        out += _profile_facts(profile, s)
    return out


def canonical_profiles() -> list[str]:
    return [p for p, count in ELIGIBILITY_PROFILES for _ in range(count)]


def eligibility(rng: random.Random, quick: bool) -> list[Instance]:
    profiles = canonical_profiles()
    canon = [f"c{i}" for i in range(1, len(profiles) + 1)]
    # Random labels decide which student name gets which profile.
    names = [f"s{x}" for x in rng.sample(range(10, 100), len(profiles))]
    statements = eligibility_statements(profiles, names)
    rng.shuffle(statements)
    return [Instance(f"eligibility{len(profiles)}", "\n".join(statements) + "\n",
                     rename=dict(zip(names, canon)))]


# ---------------------------------------------------------------------------
# yale: shipped conformant-planning programs, rule order permuted

YALE_G91 = ("yale01", "yale02", "yale03", "yale04", "yale05", "yale_unsat")
# yale05 is left out under k15: one solve takes about 30 s there.
YALE_K15 = ("yale01", "yale02", "yale03", "yale04")


def yale_text(name: str) -> str:
    return (YALE_DIR / f"{name}.lp").read_text(encoding="utf-8")


def shuffled_statements(text: str, rng: random.Random) -> str:
    """Drop comments and permute the statements (one per line)."""
    lines = [ln.strip() for ln in text.splitlines()]
    statements = [ln for ln in lines if ln and not ln.startswith("%")]
    rng.shuffle(statements)
    return "\n".join(statements) + "\n"


def _yale(names: tuple[str, ...], semantics: str, rng: random.Random,
          quick: bool) -> list[Instance]:
    if quick:
        names = names[:1]
    suffix = "" if semantics == "g91" else f"_{semantics}"
    return [Instance(f"{n}{suffix}", shuffled_statements(yale_text(n), rng), semantics)
            for n in names]


def yale(rng: random.Random, quick: bool) -> list[Instance]:
    return _yale(YALE_G91, "g91", rng, quick)


def yale_k15(rng: random.Random, quick: bool) -> list[Instance]:
    return _yale(YALE_K15, "k15", rng, quick)


# ---------------------------------------------------------------------------
# grounding: a 3-variable join over a graph, ground by cross product

GRAPH_NODES = 16
# Out-neighbours of node i are i+d for each d: a ring plus one chord.
GRAPH_STEPS = (1, 3)

GROUNDING_RULES = (
    "p(X,Y,Z) :- e(X,Y), e(Y,Z).",
    "c(X,Z) :- p(X,Y,Z), not e(X,Z).",
    "reach(X) :- c(X,Z).",
    "a :- reach(X), not b.",
    "b :- not a.",
    "done :- reach(X).",
    "ok :- &k{ done }.",
    "pa :- not &k{ pb }, reach(X).",
    "pb :- not &k{ pa }.",
)


def grounding_statements(names: list[str]) -> list[str]:
    n = len(names)
    edges = [f"e({names[i]},{names[(i + d) % n]})." for i in range(n) for d in GRAPH_STEPS]
    return list(GROUNDING_RULES) + edges


def grounding(rng: random.Random, quick: bool) -> list[Instance]:
    canon = [f"v{i}" for i in range(GRAPH_NODES)]
    labels = rng.sample(range(10, 100), GRAPH_NODES)
    names = [f"n{x}" for x in labels]
    statements = grounding_statements(names)
    rng.shuffle(statements)
    return [Instance(f"grounding{GRAPH_NODES}", "\n".join(statements) + "\n",
                     rename=dict(zip(names, canon)))]


WORKLOADS = {
    "eligibility": eligibility,
    "yale": yale,
    "yale-k15": yale_k15,
    "grounding": grounding,
}


def build(workload: str, seed: int, quick: bool = False, draw: int = 0) -> list[Instance]:
    """Instances of draw `draw` of a workload's seed; `quick` keeps only
    the smallest instance."""
    return WORKLOADS[workload](random.Random(f"{seed}:{draw}"), quick)


# ---------------------------------------------------------------------------
# canonical world-view digests

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def canonical(printed: str, rename: dict[str, str]) -> str:
    """Printed atom with seed-chosen constants mapped to canonical names."""
    if not rename:
        return printed
    return _TOKEN.sub(lambda m: rename.get(m.group(0), m.group(0)), printed)


def known_sets(views, print_subjective, rename: dict[str, str]) -> list[list[str]]:
    """Each world view's known subjective atoms, canonical and sorted."""
    return [sorted(canonical(print_subjective(k), rename) for k in v.known())
            for v in views]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()
