"""Variable registry for the symbolic formulation.

Maps the paper's variable families to DIMACS numbers via a
:class:`repro.logic.VarPool`:

* ``border(v)``          — vertex ``v`` separates two VSS sections,
* ``occupies(tr, e, t)`` — train ``tr`` occupies segment ``e`` at step ``t``,
* ``done(tr, t)``        — train ``tr`` has reached its final stop by ``t``
  (the paper's ``done`` variable),
* ``gone(tr, t)``        — train ``tr`` has left the network (an encoding
  refinement: absent trains occupy nothing; see DESIGN.md §5),
* ``chain(tr, i, t)``    — auxiliary chain selectors for trains longer than
  one segment,
* ``done_all(t)``        — the paper's ``done^t`` conjunction.

The registry also keeps the primary-variable census that the paper's Table I
"Var." column reports.
"""

from __future__ import annotations

from repro.logic.cnf import VarPool


class VariableRegistry:
    """Typed accessors over a :class:`VarPool` plus variable census."""

    def __init__(self, pool: VarPool | None = None):
        self.pool = pool if pool is not None else VarPool()
        self.num_border = 0
        self.num_occupies = 0
        self.num_done = 0
        self.num_gone = 0
        self.num_chain = 0
        self.num_done_all = 0

    # -- creation (counts the variable once) -------------------------------

    def border(self, vertex: int) -> int:
        name = ("border", vertex)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_border += 1
        return var

    def occupies(self, train: int, segment: int, step: int) -> int:
        name = ("occupies", train, segment, step)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_occupies += 1
        return var

    def done(self, train: int, step: int) -> int:
        name = ("done", train, step)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_done += 1
        return var

    def gone(self, train: int, step: int) -> int:
        name = ("gone", train, step)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_gone += 1
        return var

    def chain(self, train: int, chain_index: int, step: int) -> int:
        name = ("chain", train, chain_index, step)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_chain += 1
        return var

    def done_all(self, step: int) -> int:
        name = ("done_all", step)
        var = self.pool.lookup(name)
        if var is None:
            var = self.pool.var(name)
            self.num_done_all += 1
        return var

    # -- lookup (no creation) ----------------------------------------------

    def lookup_occupies(
        self, train: int, segment: int, step: int
    ) -> int | None:
        return self.pool.lookup(("occupies", train, segment, step))

    def lookup_done(self, train: int, step: int) -> int | None:
        return self.pool.lookup(("done", train, step))

    def lookup_gone(self, train: int, step: int) -> int | None:
        return self.pool.lookup(("gone", train, step))

    def lookup_border(self, vertex: int) -> int | None:
        return self.pool.lookup(("border", vertex))

    # -- census -------------------------------------------------------------

    @property
    def num_primary(self) -> int:
        """border + occupies + done: the paper's problem variables."""
        return self.num_border + self.num_occupies + self.num_done

    @property
    def num_structural(self) -> int:
        """Encoding-internal named variables (chains, gone, done_all)."""
        return self.num_chain + self.num_gone + self.num_done_all

    def census(self) -> dict[str, int]:
        """All counts, for reports."""
        return {
            "border": self.num_border,
            "occupies": self.num_occupies,
            "done": self.num_done,
            "gone": self.num_gone,
            "chain": self.num_chain,
            "done_all": self.num_done_all,
            "aux": self.pool.num_aux,
            "total": self.pool.num_vars,
        }
