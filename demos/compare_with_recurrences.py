"""Cross-check the generic assembler against the hand-coded recurrences.

The solver derives constraint rows mechanically from structure constants;
the recurrence module encodes the same constraints as hand-written scalar
equations.  Agreement of the two solution spaces checks both.

Run:  python3 demos/compare_with_recurrences.py
"""

from fractions import Fraction
from itertools import islice

from gradedlie import catalog
from gradedlie.core import GradingDegree
from gradedlie.recurrences import (RECURRENCES, SECTOR_SYSTEMS,
                                   check_lemma_conclusions, solve_case)
from gradedlie.solver import HomogeneousSolveProblem, solve_degree

WINDOW = 10
INTERIOR = 4


def main():
    p = catalog.get("pgca")
    half = Fraction(1, 2)

    print("sector systems (recurrence tags feeding each Z2 x Z2 shift):")
    for shift, tags in sorted(SECTOR_SYSTEMS.items()):
        print(f"  {shift}: {', '.join(tags)}")
    print()

    print(f"oracle vs generic, window {WINDOW}, interior {INTERIOR}:")
    for shift in sorted(SECTOR_SYSTEMS):
        for gamma in (-1, 0, 1):
            generic = solve_degree(HomogeneousSolveProblem(
                p, half, GradingDegree(*shift, gamma), WINDOW, INTERIOR))
            oracle = solve_case(shift, gamma, WINDOW, INTERIOR)
            match = ("agree" if (generic.interior_dim, generic.classification)
                     == (oracle.interior_dim, oracle.classification)
                     else "DISAGREE")
            print(f"  degree {generic.degree}: generic {generic.classification}"
                  f"/{generic.interior_dim}, oracle {oracle.classification}"
                  f"/{oracle.interior_dim}  -> {match}")
    print()

    print("one recurrence up close: e1 rows at gamma = 1, window 4")
    for row in islice(RECURRENCES["e1"].rows(1, 4), 5):
        terms = " + ".join(f"({v})*u[{fam}{m:+d}]"
                           for (fam, m), v in sorted(row.items()))
        print(f"  0 = {terms}")
    print("  ...")
    print()

    report = check_lemma_conclusions(12)
    status = "all pass" if report.all_passed else "FAILURES"
    print(f"lemma conclusions at window 12: {status} "
          f"({len(report.checks)} checks)")


if __name__ == "__main__":
    main()
