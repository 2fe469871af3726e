"""Testing membership in O_pi(G) by bounded tuples of conjugates.

x lies in O_pi(G) iff every m-tuple of conjugates of x generates a
pi-group — provided m is large enough.  How large m must be depends on pi:
for p-groups (pi a single prime) pairs always suffice; once 2 is in pi,
transpositions force the width up.

Run: python3 demos/04_membership_thresholds.py
"""

from piradical import (
    PrimeSet,
    baer_suzuki_check,
    bs_membership,
    membership_bound,
    minimal_membership_width,
    symmetric_group,
    transposition_pi_sweep,
)


def main() -> None:
    G = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    print("== Sym(5), pi = {2,3}: pairs and triples are not enough ==")
    for m in (2, 3, 4):
        res = bs_membership(G, pi, m)
        status = "holds" if res.holds else f"fails at {res.violating_element}"
        print(f"  width {m}: {status}")
    m_min, per_rep = minimal_membership_width(G, pi)
    print(f"  minimal sufficient width: {m_min} (the paper's bound m(pi) = {membership_bound(pi)})")
    print(f"  per class: {[(str(rep), w) for rep, w in per_rep]}")

    print("\n== the same bound from below, by sweeping transposition subsets ==")
    report = transposition_pi_sweep(5)
    print(
        f"  every {report.r - 2}-subset of the {report.r * (report.r - 1) // 2} "
        f"transpositions of Sym({report.r}) generates a pi-group "
        f"({report.subsets_checked} subsets, counted by partition shape, pi = {report.pi}),"
    )
    print(
        f"  while the star subset {[str(t) for t in report.witness_subset]} "
        f"generates order {report.witness_order} — so width {report.r - 2} "
        f"cannot certify membership and {report.implied_lower_bound} is a lower bound."
    )

    print("\n== single primes: pairs always decide membership in O_p(G) ==")
    for p in (2, 3, 5):
        report = baer_suzuki_check(symmetric_group(5), p)
        print(
            f"  p = {p}: equivalence verified on {len(report.records)} classes "
            f"(radical order {report.radical_order})"
        )


if __name__ == "__main__":
    main()
