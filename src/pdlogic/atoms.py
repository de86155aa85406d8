"""Subject/object pronoun atoms, the propositional letters of every descriptor logic."""

from __future__ import annotations

from .node import Node


class PronounAtom(Node):
    """A subject/object pronoun class such as she/her.

    The set of atoms is open-ended: any pair of nonempty ASCII-letter tokens
    is admissible. Atoms are normalized to lowercase at construction, so
    structural equality coincides with equality of canonical keys.
    """

    __slots__ = ("subject", "object")

    def __post_init__(self):
        for part in (self.subject, self.object):
            if not part or not part.isascii() or not part.isalpha():
                raise ValueError(
                    f"pronoun token must be one or more ASCII letters, got {part!r}"
                )
        object.__setattr__(self, "subject", self.subject.lower())
        object.__setattr__(self, "object", self.object.lower())

    @property
    def key(self) -> str:
        return f"{self.subject}/{self.object}"

    def __str__(self) -> str:
        return self.key


# Distinct key spellings that ``atom`` keeps. The table is cleared when it
# is full, so a process that reads ever new atoms holds at most this many.
# Nothing relies on two atoms of one spelling being one object, only on their
# equality, so threads may share the table without a lock.
ATOM_CAP = 1024

_atoms: dict[str, PronounAtom] = {}


def atom(key: str) -> PronounAtom:
    """The atom of a "subject/object" key.

    Each spelling gets one shared object, so text that repeats a few atoms
    builds each of them once: "she/her" always gives the same object, and
    "She/Her" an equal one. A key that fails validation raises ValueError
    and is not stored.
    """
    found = _atoms.get(key)
    if found is None:
        subject, slash, obj = key.partition("/")
        if not slash:
            raise ValueError(f"atom key must look like subject/object, got {key!r}")
        found = PronounAtom(subject, obj)
        if len(_atoms) >= ATOM_CAP:
            _atoms.clear()
        _atoms[key] = found
    return found
