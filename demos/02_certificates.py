"""Build, verify, and try to forge a stability certificate.

A certificate is a list of positive definite blocks, one per loss
state, satisfying coupled linear matrix inequalities. Holding such
blocks proves the spectral-radius condition without trusting any
eigenvalue computation: verification is a few multiplications and a
symmetric eigenvalue check, and anyone can rerun it on the serialized
report.

    python3 demos/02_certificates.py
"""

from pathlib import Path

import numpy as np

from peakcov import (
    NotStable,
    build_certificate,
    load_problem,
    search_gains,
    strict_margin_floor,
    verify_certificate,
)

PROBLEMS = Path(__file__).resolve().parent / "problems"


def main():
    sysm, loss, label = load_problem(str(PROBLEMS / "identical_rows.json"))
    print(f"instance: {label}")

    gains, rho = search_gains(sysm, loss)
    print(f"searched gain set: rho(H) = {rho:.6f} (< 1, certifiable)")

    cert = build_certificate(sysm, loss, gains)
    floor = strict_margin_floor(cert.blocks)
    print(f"certificate blocks ({len(cert.blocks)}):")
    for j, block in enumerate(cert.blocks, start=1):
        print(f"  X_{j} =\n{np.array_str(block, precision=6)}")
    print(f"margin {cert.margin:.12f} vs strict floor {floor:.2e}")

    margin = verify_certificate(sysm, loss, gains, cert.blocks)
    print(f"independent re-verification margin: {margin:.12f}")

    forged = [b.copy() for b in cert.blocks]
    forged[0] = -forged[0]
    bad = verify_certificate(sysm, loss, gains, forged)
    print(f"tampered first block -> margin {bad:.6f} (negative, rejected)")

    print("\nnow an instance no gain set can certify:")
    sysm, loss, label = load_problem(str(PROBLEMS / "resonant_rotation.json"))
    gains, rho = search_gains(sysm, loss)
    print(f"  {label}")
    print(f"  best rho(H) found: {rho:.6f}")
    try:
        build_certificate(sysm, loss, gains)
    except NotStable as e:
        print(f"  build_certificate refused: {e}")


if __name__ == "__main__":
    main()
