"""Tour of the warden's view of a dual-rail covert transmission.

A logical qubit rides on two optical modes (one photon across two rails).
The lossy thermal channel leaks a fraction 1-eta of it to the warden, who
also sees thermal background.  This demo shows:

  * the closed-form warden output state matches a brute-force truncated
    Fock-space simulation of the beamsplitter optics;
  * the chi-squared divergence between "sent" and "idle" warden states is
    input-dependent but always below an input-independent ceiling, reached
    by fully coherent pure qubits and halved by the balanced mixture.

Run: python3 demos/warden_state_tour.py
"""

import math

import numpy as np

from covert_bosonic import (
    ChannelParams,
    FockCutoff,
    LogicalQubit,
    chi2_bound,
    chi2_closed,
    willie_state_closed,
    willie_state_numeric,
)

params = ChannelParams(eta=0.9, nbar_b=0.12)
cutoff = FockCutoff(30)
s = 1.0 / math.sqrt(2.0)

qubits = {
    "|0_L> (pole)": LogicalQubit(1.0, 0.0),
    "|+> (equator, pure)": LogicalQubit.pure(s, s),
    "balanced mixture": LogicalQubit(0.5, 0.5, 0.0),
    "partially coherent": LogicalQubit(0.3, 0.7, 0.2 - 0.3j),
}

print(f"channel: transmittance {params.eta}, background {params.nbar_b} photons")
print(f"input-independent chi^2 ceiling: {chi2_bound(params):.6e}")
print()
print(f"{'input':>22} {'|closed - numeric|':>20} {'chi^2':>14} {'chi^2/ceiling':>14}")
for name, qubit in qubits.items():
    closed = willie_state_closed(qubit, params, cutoff).entries
    numeric = willie_state_numeric(qubit, params, cutoff).entries
    err = float(np.max(np.abs(closed - numeric)))
    chi2 = chi2_closed(qubit, params)
    print(f"{name:>22} {err:>20.3e} {chi2:>14.6e} "
          f"{chi2 / chi2_bound(params):>14.4f}")

print()
print("The tri-diagonal structure of the warden state (photon-number")
print("conservation across the two modes) for the |+> input, modes (f, g):")
state = willie_state_closed(LogicalQubit.pure(s, s), params, FockCutoff(3))
d = state.cutoff.dim
for f in range(d):
    for g in range(d):
        diag = state.diag[f, g]
        coh = state.upper[f, g]
        if diag > 1e-4 or abs(coh) > 1e-4:
            line = f"  <{f}{g}|rho|{f}{g}> = {diag:.4f}"
            if abs(coh) > 1e-4:
                line += f"   <{f}{g}|rho|{f + 1}{g - 1}> = {coh:.4f}"
            print(line)
