"""Permutation arithmetic and stabilizer chains, end to end.

Run: python3 demos/01_permutations_and_chains.py
"""

from piradical import PermGroup, Permutation

P = Permutation.parse


def main() -> None:
    print("== composition is left-to-right ==")
    a, b = P("(1 2)", 3), P("(1 3)", 3)
    print(f"{a} * {b} = {a * b}   (apply {a} first, then {b})")

    x, g = P("(1 2 3)", 5), P("(2 4)(3 5)", 5)
    print(f"conjugation acts on the right: {x} ** {g} = {x ** g}")

    print("\n== a stabilizer chain certifies the order ==")
    G = PermGroup.from_generators([P("(1 2)", 5), P("(1 2 3 4 5)")])
    print(f"<(1 2), (1 2 3 4 5)> has order {G.order} = {G.order_int}")
    print(f"base {G.base}, transversal sizes {G.transversal_sizes}")

    print("\n== membership by sifting ==")
    for cand in ["(1 5)(2 3)", "(1 2 3)", "(1 4 2 5 3)"]:
        print(f"  {cand} in G? {P(cand, 5) in G}")
    A5 = PermGroup.from_generators([P("(1 2 3)", 5), P("(3 4 5)")])
    print(f"  odd permutations stay out: (1 2) in Alt(5)? {P('(1 2)', 5) in A5}")


if __name__ == "__main__":
    main()
