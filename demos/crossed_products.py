"""Finite-group crossed products as concrete matrix algebras.

    python3 demos/crossed_products.py
"""

import numpy as np

import parfell as pf


def main() -> None:
    swap = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 1, 1: 0}})
    model = pf.build_model(swap)
    print("swap system model:")
    print("  matrix size    ", model.model_size)
    print("  dimension      ", model.dimension())
    print("  center         ", model.center_dimension())

    # One fixed point only: the algebra is a proper corner, dimension 3.
    fixed = pf.FinitePartialAction(pf.cyclic_group(2), 2, {1: {0: 0}})
    print("fixed-point model dimension:", pf.build_model(fixed).dimension())

    # Sections multiply by the twisted convolution; the matrix model is
    # a faithful *-homomorphism, checked here on a random pair.
    rng = np.random.default_rng(1)

    def random_section():
        terms = {}
        for t in range(swap.group.order):
            vec = np.zeros(swap.n, dtype=complex)
            for z in swap.support(t):
                vec[z] = complex(rng.standard_normal(), rng.standard_normal())
            terms[t] = vec
        return pf.Section.build(swap, terms)

    x, y = random_section(), random_section()
    xy = pf.section_mul(x, y, swap)
    defect = pf.op_norm(model.image(xy) - model.image(x) @ model.image(y))
    print("\nhomomorphism defect on a random pair:", f"{defect:.3e}")

    star_defect = pf.op_norm(
        model.image(pf.section_star(x, swap)) - model.image(x).conj().T
    )
    print("star defect:", f"{star_defect:.3e}")

    # The conditional expectation keeps the identity coefficient. It is
    # positive, faithful, and contractive for the reduced norm.
    xs = pf.section_mul(pf.section_star(x, swap), x, swap)
    diag = pf.expectation(xs)
    print("\nE(x*x) diagonal:", np.round(diag.real, 6))
    print("reduced norm of x:", f"{pf.reduced_norm(model, x):.6f}")

    # Fiber axioms hold with witnesses tracked per trial.
    report = pf.bundle_axiom_report(swap, trials=250, seed=3)
    print("\nbundle axioms ok:", report.ok, "checks:", report.checks)

    # Matrix approximation defects for fiber maps built from the
    # standard representation: exact to machine precision.
    fam = pf.exact_bundle_family(pf.std_covariant_rep(swap), elements=[0, 1])
    samples = [(t, x.coeff(t)) for t in x.elements()]
    mf = pf.mf_defect_report(fam, samples, swap)
    print("mf defects:", {k: f"{v:.2e}" for k, v in sorted(mf.entries.items())})


if __name__ == "__main__":
    main()
