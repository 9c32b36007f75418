"""Residual finiteness certificates for the two-letter shift.

A certificate names a finite quotient, an exact strictly equivariant
map onto it, and a density bound below the requested delta.  Everything
in it can be re-checked from scratch, which verify_certificate does.

    python3 demos/bernoulli_certificates.py
"""

import json

import parfell as pf


def main() -> None:
    Z = pf.FreeGroup(rank=1)

    cert = pf.certify_rfd(Z, delta=0.2)
    print("certificate for the integer shift at delta = 0.2:")
    print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    print("re-verified:", pf.verify_certificate(cert))

    # The search tries quotients in a fixed order, so the rank-two case
    # lands on the smallest cyclic group separating both generators.
    f2 = pf.FreeGroup(rank=2)
    cert2 = pf.certify_rfd(f2, delta=0.3)
    print("\nrank-two certificate quotient order:", cert2.hom.target.order)
    print("images of the generators:", cert2.hom.images)
    print("re-verified:", pf.verify_certificate(cert2))

    # Behind the certificate: window truncation and the quotient model.
    window = pf.BernoulliWindow.build(Z, cert.depth)
    approx = pf.QuotientApprox(window, cert.hom)
    print("\nwindow coordinates:", window.coords)
    print("truncation table:", approx.rho)
    eq = pf.strict_equivariance_report(approx)
    print("strict equivariance:", eq.ok and eq.strict_ok,
          "defect:", eq.max_defect)

    # The uniform weights form an exactly invariant state on cylinder
    # functions over the window.
    tests = [pf.CylinderFunction.constant(1.0)]
    tests.extend(pf.CylinderFunction.coordinate_indicator(k)
                 for k in range(1, cert.depth + 1))
    ma = pf.invariant_measure_approx(approx, tests)
    for row in ma.values:
        print(f"  mu({row['test']}) = {row['value']}")
    print("max invariance defect:", ma.max_defect)


if __name__ == "__main__":
    main()
