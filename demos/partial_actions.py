"""Tour of finite partial actions: construction, validation, duals,
equivariant maps.

Run from the repository root after installing the package:

    python3 demos/partial_actions.py
"""

import numpy as np

import parfell as pf


def main() -> None:
    # The swap system: Z/2 exchanges the two points of a doubleton.
    swap = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    report = pf.validate(swap)
    print("swap system valid:", report.ok)
    print("  elements checked:", report.elements_checked,
          "pairs:", report.pairs_checked)

    # A genuinely partial system over Z/4. Declaring only the generator
    # is not enough: its square reaches 2, so eta_2 must carry the pair
    # 0 -> 2, and since 2 is its own inverse eta_2 must be an involution.
    g4 = pf.cyclic_group(4)
    sparse = pf.FinitePartialAction(g4, 3, {1: {0: 1, 1: 2}})
    print("\nZ/4 with only the generator declared:", pf.validate(sparse).ok)
    partial = pf.FinitePartialAction(g4, 3, {1: {0: 1, 1: 2}, 2: {0: 2, 2: 0}})
    print("with the square declared:", pf.validate(partial).ok)
    for t in partial.declared_elements():
        pm = partial.element_map(t)
        print(f"  eta_{t}: {dict(pm.pairs)}")

    # Validation pinpoints broken data. A full 3-cycle cannot generate a
    # Z/2 action: it is not an involution and its square is not inside
    # the identity.
    broken = pf.FinitePartialAction(pf.cyclic_group(2), 3, {1: {0: 1, 1: 2, 2: 0}})
    vr = pf.validate(broken)
    print("\n3-cycle under Z/2 valid:", vr.ok)
    for issue in vr.structural + vr.axiom:
        print("  issue:", issue.kind, "at", issue.element, issue.points)

    # Free groups work the same way; element scans use word balls.
    f2 = pf.FreeGroup(rank=2)
    act = pf.FinitePartialAction(f2, 3, {(1,): {0: 1, 1: 2}, (2,): {0: 0, 2: 1}})
    print("\nfree group system valid:", pf.validate(act, radius=3).ok)
    print("  a.b acts as:", dict(act.element_map((1, 2)).pairs))

    # The action is also its dual system on functions over the points;
    # fibers multiply by pull-multiply-push and the star reverses the arrow.
    x = np.array([1.0 + 2.0j, 3.0])
    y = np.array([3.0, 4.0])
    coeff, at = swap.mul_fiber((x, 1), (y, 1))
    print("\ndual fiber product lands at", at, "with coefficients", coeff)
    print("dual fiber star:", swap.star_fiber((x, 1)))

    # Round trip through JSON keeps every declared pair.
    data = pf.action_to_json(act)
    again = pf.action_from_json(data)
    print("\nJSON round trip equal:", act.same_data(again))

    # Equivariant point maps, the finite form of Kerr and Nowak's
    # approximately equivariant maps. Two copies of the swap fold onto one:
    # rho commutes with the action and pulls U_t back onto V_t exactly.
    double = pf.FinitePartialAction(pf.cyclic_group(2), 4, {1: {0: 1, 1: 0, 2: 3, 3: 2}})
    fold = pf.check_equivariance(
        pf.EquivariantMap(source=double, target=swap, rho=(0, 1, 0, 1)), strict=True)
    print("\ndoubled swap onto swap: ok", fold.ok, "strict_ok", fold.strict_ok)

    # If the second copy does not move, its points land in U_1 from outside
    # V_1: the map still commutes where eta_1 is defined, but is not strict.
    half = pf.FinitePartialAction(pf.cyclic_group(2), 4, {1: {0: 1, 1: 0}})
    loose = pf.check_equivariance(
        pf.EquivariantMap(source=half, target=swap, rho=(0, 1, 0, 1)), strict=True)
    print("half-moving source: ok", loose.ok, "strict_ok", loose.strict_ok)
    for v in loose.violations:
        print("  violation:", v)

    # Sending 3 to 0 breaks the intertwining identity at points 2 and 3.
    bent = pf.check_equivariance(
        pf.EquivariantMap(source=double, target=swap, rho=(0, 1, 0, 0)))
    print("rho = (0, 1, 0, 0): ok", bent.ok, "max defect", bent.max_defect)
    for v in bent.violations:
        print("  violation:", v)


if __name__ == "__main__":
    main()
