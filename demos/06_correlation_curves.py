#!/usr/bin/env python3
"""Polarization-correlation curves of the heralded pair.

Conditioned on the fusion coincidence, one analyzer sits at 0 or 45
degrees while the other sweeps.  An entangled pair keeps the sinusoid
at full contrast in both bases; the preset's imperfection model (fusion
overlap plus analyzer-arm walk-off, both at the configured visibility)
pins both curves at 89%, matching a joint equal-amplitude fit.
"""

from eventready import (
    analyzer_probabilities,
    build_preset_config,
    compile_circuit,
    heralded_polarization_dm,
    run,
    run_preset,
)

result = run_preset(
    "polarization-correlation", overrides={"visibility": 0.89}, seed=23, shots=10_000
)
report = result.report

print("herald probability:", report["herald_probability"])
print("fidelity to phi+:  ", report["fidelity_phi_plus"])
print("per-curve visibility (analytic):", report["per_curve_visibility_analytic"])
print("joint visibility  (analytic):   ", report["joint_visibility_analytic"])
print("joint visibility  (sampled):    ", report["joint_visibility_sampled"])

# Compact view of the two analytic fringes.
config = build_preset_config("polarization-correlation", {"visibility": 0.89})
circuit = compile_circuit(config)
reg = circuit.registry
# The coincidence herald: one photon at each detector, none in the polarizer losses.
groups = {"D1": (reg.group("A2"), 1), "D2": (reg.group("B2"), 1)}
read = reg.group("A2") + reg.group("B2") + reg.group("LD1") + reg.group("LD2")
_, rho = heralded_polarization_dm(run(circuit), groups, read, config.kept)
for theta_b in (0.0, 45.0):
    print(f"\n  analyzer B at {theta_b:.0f} deg")
    for theta_a in range(0, 181, 15):
        pp, *_ = analyzer_probabilities(rho, float(theta_a), theta_b)
        print(f"   {theta_a:>3} deg  {'#' * int(round(60 * pp))}")
