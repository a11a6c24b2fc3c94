"""The (log, Delta)-gadget family (Definition 2, Theorem 6).

A gadget family packages everything the padding construction of
Section 3 consumes:

* members: for every target size ``n`` a gadget with Theta(n) nodes
  whose pairwise port distances are Theta(d(n)) — here ``d = log``;
* the ne-LCL ``Psi_G`` certifying membership (via the structural
  checker and the error-pointer LCL Psi);
* the distributed prover ``V`` producing either the all-GadOk
  certificate or a locally checkable proof of error in O(d(n)) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gadgets.build import BuiltGadget, build_gadget, gadget_size
from repro.gadgets.checker import check_component
from repro.gadgets.prover import ProverResult, run_prover
from repro.gadgets.scope import GadgetScope
from repro.util.logmath import ceil_log2, floor_log2

__all__ = ["GadgetFamily", "LogGadgetFamily"]


@dataclass
class GadgetFamily:
    """Base interface: the (d, Delta)-gadget family of Definition 2."""

    delta: int
    name: str = "abstract"

    def member(self, n: int) -> BuiltGadget:  # pragma: no cover - interface
        raise NotImplementedError

    def depth_bound(self, n: int) -> int:  # pragma: no cover - interface
        """An upper bound on d(n): the diameter of members of size <= n."""
        raise NotImplementedError

    def check(self, scope: GadgetScope, component: list[int]):
        """Structural violations of one component (empty iff member)."""
        return check_component(scope, component, self.delta)

    def prove(self, scope: GadgetScope, component: list[int], n_hint: int) -> ProverResult:
        """Run the prover V (Definition 2's algorithm)."""
        return run_prover(scope, component, self.delta, n_hint)


class LogGadgetFamily(GadgetFamily):
    """The concrete family of Section 4: d(n) = Theta(log n).

    ``member(n)`` returns the gadget with Delta equal-height sub-gadgets
    whose size is as close to ``n`` as the doubling structure allows
    (between n/2 and 2n for n above the minimum size); its port-to-port
    distances are ``2h`` with ``h = Theta(log n)``.
    """

    def __init__(self, delta: int):
        if delta < 1:
            raise ValueError("delta must be positive")
        super().__init__(delta=delta, name=f"log-gadgets(delta={delta})")

    def min_size(self) -> int:
        return gadget_size(self.delta, 2)

    def height_for(self, n: int) -> int:
        """The equal height giving a member of ~n nodes (at least 2)."""
        if n < 1:
            raise ValueError("n must be positive")
        # gadget size = delta * (2^h - 1) + 1  =>  2^h ~ n / delta
        target = max(n // self.delta + 1, 2)
        return max(floor_log2(target), 2)

    def member(self, n: int) -> BuiltGadget:
        return build_gadget(self.delta, self.height_for(n))

    def member_with_height(self, height: int) -> BuiltGadget:
        return build_gadget(self.delta, height)

    def depth_bound(self, n: int) -> int:
        """Diameter bound of any member with at most ``n`` nodes.

        A member of size <= n has sub-gadget heights <= log2(n); any two
        nodes connect through the center in at most 2(h - 1) + 2 hops.
        """
        return 2 * ceil_log2(max(n, 2)) + 2

    def port_distance(self, height: int) -> int:
        """Exact pairwise distance between (distinct) ports: 2h."""
        return 2 * height
