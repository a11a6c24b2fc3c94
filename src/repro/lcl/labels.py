"""Label atoms and finite label sets for ne-LCLs.

Labels are plain hashable Python values (strings, ints, tuples of
labels).  Two conventions from the paper are made explicit:

* ``EMPTY`` is the paper's "empty label": the input of problems whose
  nodes receive no meaningful input (e.g. vertex coloring), and the
  filler used when multiple labels are packed into one.
* ``BLANK`` is the epsilon output of the padded problem Pi' (written
  as an empty box in Section 3.3): the forced output of port edges and
  their half-edges.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["EMPTY", "BLANK", "LabelSet"]


class _Sentinel:
    """A named singleton label."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __copy__(self) -> "_Sentinel":
        return self

    def __deepcopy__(self, memo) -> "_Sentinel":
        return self

    def __reduce__(self) -> str:
        # pickles as a reference to the module-level singleton
        return self._name


EMPTY = _Sentinel("EMPTY")
BLANK = _Sentinel("BLANK")


class LabelSet:
    """A named finite label alphabet with membership checking.

    ``closed=False`` creates an open alphabet: membership is not
    enforced.  Open alphabets are used for structured label spaces such
    as the Sigma_list tuples of Section 3.3, which are finite for fixed
    Delta but impractical to enumerate.
    """

    def __init__(self, name: str, values: Iterable[Hashable] = (), closed: bool = True):
        self.name = name
        self.values = frozenset(values)
        self.closed = closed
        if closed and not self.values:
            raise ValueError(f"closed label set {name!r} cannot be empty")

    def __contains__(self, label: Hashable) -> bool:
        if not self.closed:
            return True
        return label in self.values

    def __iter__(self):
        return iter(sorted(self.values, key=repr))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        kind = "closed" if self.closed else "open"
        return f"LabelSet({self.name!r}, {len(self.values)} values, {kind})"

    @classmethod
    def open_set(cls, name: str) -> "LabelSet":
        return cls(name, (), closed=False)
