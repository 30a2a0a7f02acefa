"""Tour of the bracket layer: build an algebra, poke it, validate it.

Run:  python3 demos/explore_brackets.py
"""

import json

from gradedlie import catalog
from gradedlie.core import BasisElement, Element, validate_presentation


def show_bracket(p, x, y):
    print(f"  [{x}, {y}] = {p.bracket_basis(x, y)}")


def main():
    p = catalog.get("pgca")
    print(f"algebra: {p.name}")
    print(f"kinds:   {', '.join(f'{k.name}{k.z2}' for k in p.kinds)}")
    print()

    L, H, I, J = (p.kind(n) for n in "LHIJ")
    print("a few brackets:")
    show_bracket(p, BasisElement(L, 2), BasisElement(L, -1))
    show_bracket(p, BasisElement(L, 2), BasisElement(H, -1))
    show_bracket(p, BasisElement(H, 1), BasisElement(I, 2))
    show_bracket(p, BasisElement(H, 1), BasisElement(J, 2))
    show_bracket(p, BasisElement(I, 1), BasisElement(J, 2))
    print()

    x = BasisElement(H, 3)
    print(f"degree of {x}: {x.degree}")
    combo = Element.basis(BasisElement(L, 1)).scale(2) - Element.basis(x)
    print(f"an element: {combo}")
    print()

    report = validate_presentation(p, 4)
    print(f"validation at window 4: {report.describe()}")
    print()

    # now break the algebra on purpose: flip the sign of [L, I]
    data = catalog.to_dict(p)
    for rule in data["brackets"]:
        if rule["left"] == "L" and rule["right"] == "I":
            rule["terms"][0]["coeff"] = {"cm": "-1", "cn": "1"}
    broken = catalog.from_dict(data)
    report = validate_presentation(broken, 3)
    print("after flipping the [L, I] sign:")
    print(f"  {report.describe()}")
    print()

    print("the JSON form of the one-family algebra:")
    print(json.dumps(catalog.to_dict(catalog.get("witt")), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
