"""Full conjunctive queries without self-joins (Eq. (3) of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.fds.fd import FD, FDSet, VarSet, varset
from repro.query.hypergraph import Hypergraph


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(x1, ..., xn)``.

    ``attrs`` keeps the order of the variables as written, which matters for
    binding relation columns; the hypergraph view uses the set.
    """

    name: str
    attrs: tuple[str, ...]

    def __init__(self, name: str, attrs: Iterable[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attrs", tuple(attrs))

    @property
    def varset(self) -> VarSet:
        return frozenset(self.attrs)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{self.name}({','.join(self.attrs)})"


class Query:
    """A full conjunctive query plus an optional set of fds.

    ``Query`` is symbolic only; a :class:`repro.engine.Database` supplies the
    data.  All variables appear in the head (the paper drops the head).
    """

    def __init__(self, atoms: Iterable[Atom], fds: FDSet | None = None):
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        if len({atom.name for atom in self.atoms}) != len(self.atoms):
            raise ValueError("self-joins are not supported (Sec. 2)")
        variables: list[str] = []
        for atom in self.atoms:
            for attr in atom.attrs:
                if attr not in variables:
                    variables.append(attr)
        self.fds: FDSet = fds if fds is not None else FDSet((), variables)
        # Variables appearing only in fds (e.g. z in R(x), S(y), xy→z,
        # Fig. 5) are functionally determined and belong to the query head.
        for attr in sorted(self.fds.variables):
            if attr not in variables:
                variables.append(attr)
        self.variables: tuple[str, ...] = tuple(variables)
        self._content_key: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def varset(self) -> VarSet:
        return frozenset(self.variables)

    def content_key(self) -> tuple:
        """A hashable key for what the query *is*: its atoms' names and
        variable sets, its fds and its variable order.  Two queries with
        equal keys have the same lattice presentation (Sec. 3.1), so the
        compile memos (``lattice_from_query``, ``Database.compiled``) key
        on this rather than on the object's identity.  ``fds`` may grow
        after construction (``FDSet.add`` only appends), so the cached
        key is salted with the fd set and its length."""
        fds = self.fds
        cached = self._content_key
        if cached is None or cached[0] is not fds or cached[1] != len(fds):
            key = (
                tuple((atom.name, atom.varset) for atom in self.atoms),
                frozenset(fds),
                self.variables,
            )
            cached = self._content_key = (fds, len(fds), key)
        return cached[2]

    def atom(self, name: str) -> Atom:
        for candidate in self.atoms:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph H_Q = (vars, atoms)."""
        return Hypergraph(
            self.variables, {atom.name: atom.varset for atom in self.atoms}
        )

    def closure_query(self) -> "Query":
        """Q⁺: replace each atom's attribute set with its closure, forget fds
        (Sec. 2, "Closure").  Tight for simple keys."""
        closed_atoms = [
            Atom(atom.name, sorted(self.fds.closure(atom.varset)))
            for atom in self.atoms
        ]
        return Query(closed_atoms, FDSet((), self.variables))

    def guard(self, fd: FD) -> Atom | None:
        """An atom guarding ``fd`` (both sides within its attributes), if any."""
        needed = fd.lhs | fd.rhs
        for atom in self.atoms:
            if needed <= atom.varset:
                return atom
        return None

    def unguarded_fds(self) -> list[FD]:
        return [fd for fd in self.fds if self.guard(fd) is None]

    def with_fds(self, fds: Iterable[FD]) -> "Query":
        return Query(self.atoms, FDSet(list(self.fds) + list(fds), self.variables))

    def cardinalities_log(
        self, sizes: Mapping[str, int]
    ) -> dict[str, float]:
        """n_j = log2 |R_j| for each atom, from a name -> size mapping."""
        import math

        return {
            atom.name: math.log2(sizes[atom.name]) if sizes[atom.name] > 0 else 0.0
            for atom in self.atoms
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        body = ", ".join(map(repr, self.atoms))
        if self.fds:
            body += "; " + ", ".join(map(repr, self.fds))
        return f"Query({body})"


def triangle_query() -> Query:
    """The running triangle query Q(x,y,z) :- R(x,y), S(y,z), T(z,x)."""
    return Query(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    )


def paper_example_query() -> Query:
    """Eq. (1) / Fig. 1: R(x,y), S(y,z), T(z,u) with xz→u and yu→x."""
    atoms = [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "u"))]
    fds = FDSet([FD("xz", "u"), FD("yu", "x")], "xyzu")
    return Query(atoms, fds)
