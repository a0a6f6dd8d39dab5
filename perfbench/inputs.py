"""Seeded inputs for every workload.

The seed picks event names, place labels and order; it never picks
structural sizes, so the work in one pass stays comparable from seed to
seed while the texts differ.  Golden specifications are used verbatim,
because their outputs are checked byte for byte against
``tests/goldens/*.expected``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"

#: An event identifier: lower-case stem, then the place (its trailing
#: digit run, as the lexer reads it).  Keywords and the internal action
#: ``i`` carry no digits; process names start upper-case.
EVENT = re.compile(r"\b([a-z][A-Za-z0-9_]*?)(\d+)\b")
PROCESS_REF = re.compile(r"\b([A-Z][A-Za-z0-9_]*)\b")
KEYWORDS = {"SPEC", "ENDSPEC", "PROC", "END", "WHERE"}


class Member(NamedTuple):
    """One input specification."""

    name: str
    text: str
    options: Dict[str, bool]
    recursive: bool
    golden: Optional[str] = None  # golden file stem, when used verbatim


def rename(text: str, rng: random.Random) -> str:
    """``text`` with every event stem replaced by a seeded fresh stem
    and the place labels permuted.

    A consistent renaming of events and a permutation of places keep a
    specification conforming (R1-R3 only compare places for equality)
    and keep its structure, hence the work it causes.
    """
    stems: Dict[str, str] = {}
    used = set()
    found_places = sorted({int(match.group(2)) for match in EVENT.finditer(text)})
    permuted = list(found_places)
    rng.shuffle(permuted)
    place_map = dict(zip(found_places, permuted))

    def fresh_stem() -> str:
        while True:
            stem = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
            if stem not in used:
                used.add(stem)
                return stem

    def replace(match: re.Match) -> str:
        stem = match.group(1)
        if stem not in stems:
            stems[stem] = fresh_stem()
        return f"{stems[stem]}{place_map[int(match.group(2))]}"

    return EVENT.sub(replace, text)


def is_recursive(text: str) -> bool:
    """Whether a process of ``text`` can invoke itself, transitively.

    Read from the text so that members are classified by an input
    property, never by which method the checker ran."""
    calls: Dict[str, set] = {}
    for block in re.findall(r"PROC\s+([A-Z]\w*)\s*=(.*?)\bEND\b", text, re.S):
        name, body = block
        calls[name] = {
            ref for ref in PROCESS_REF.findall(body) if ref not in KEYWORDS
        }
    for start in calls:
        seen, frontier = set(), set(calls[start])
        while frontier:
            name = frontier.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                frontier |= calls.get(name, set())
    return False


def goldens() -> List[Member]:
    """Every golden specification with its generator options."""
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    members = []
    for stem in sorted(manifest):
        text = (GOLDEN_DIR / f"{stem}.lotos").read_text()
        members.append(
            Member(f"golden:{stem}", text, dict(manifest[stem]),
                   is_recursive(text), golden=stem)
        )
    return members


def expected_entities(stem: str) -> Dict[int, str]:
    """Place -> entity text of a golden's ``.expected`` file."""
    return split_entities((GOLDEN_DIR / f"{stem}.expected").read_text())


HEADER = re.compile(r"^-- Protocol entity for place (\d+) -+$", re.M)


def split_entities(text: str) -> Dict[int, str]:
    """Place -> entity text of a multi-entity listing (``describe()``
    output or ``repro derive`` stdout), each text stripped."""
    parts = HEADER.split(text)
    return {
        int(parts[index]): parts[index + 1].strip()
        for index in range(1, len(parts) - 1, 2)
    }


def family_member(family: str, args: Tuple) -> str:
    """The unparsed text of one ``repro.workloads`` family member or
    paper example."""
    from repro import workloads
    from repro.lotos.unparse import unparse

    value = getattr(workloads, family)
    if isinstance(value, str):
        return value
    return unparse(value(*args))


def base_texts(plan: List[Tuple[str, Tuple]]) -> List[Tuple[str, str]]:
    """``(label, text)`` of each ``(family, args)`` entry of ``plan``."""
    return [(f"{family}{args}" if args else family, family_member(family, args))
            for family, args in plan]


def renamed(bases: List[Tuple[str, str]], rng: random.Random, options=None) -> List[Member]:
    """One seeded renaming of every base text."""
    members = []
    for label, text in bases:
        text = rename(text, rng)
        members.append(Member(label, text, dict(options or {}), is_recursive(text)))
    return members


def shuffled(members: List, seed: int, salt: str) -> List:
    order = list(members)
    random.Random(f"order:{salt}:{seed}").shuffle(order)
    return order
