"""Prime sets, normal subgroups, and the pi-radical.

Run: python3 demos/02_radicals_and_normal_structure.py
"""

from piradical import (
    PermGroup,
    Permutation,
    PrimeSet,
    class_representatives,
    normal_subgroups,
    pi_radical,
    symmetric_group,
)

P = Permutation.parse


def main() -> None:
    G = symmetric_group(4)
    print("== conjugacy classes of Sym(4) ==")
    for rep, size in class_representatives(G):
        print(f"  {str(rep):>14}  class size {size}")

    print("\n== the full normal-subgroup lattice ==")
    for H in normal_subgroups(G):
        print(f"  order {H.order_int:>2}  generated by {[str(g) for g in H.generators] or ['()']}")

    print("\n== pi-radicals: the largest normal pi-subgroup ==")
    for text in ["2", "3", "2,3", "5", "all-except:2"]:
        pi = PrimeSet.parse(text)
        R = pi_radical(G, pi)
        print(f"  O_{{{text}}}(Sym(4)) has order {R.order_int}")

    D6 = PermGroup.from_generators([P("(1 2 3 4 5 6)"), P("(2 6)(3 5)", 6)])
    print("\n== a dihedral example: both radicals are proper ==")
    print(f"  O_2(D6) order {pi_radical(D6, PrimeSet.of(2)).order_int}  (the central flip)")
    print(f"  O_3(D6) order {pi_radical(D6, PrimeSet.of(3)).order_int}  (the rotation core)")

    S12 = symmetric_group(12)  # order 479001600, far past the class-scan cap
    print("\n== a giant that is not a pi-group: no class scan ==")
    print(f"  O_2(Sym(12)) order {pi_radical(S12, PrimeSet.of(2)).order_int}  (the giant certificate)")


if __name__ == "__main__":
    main()
