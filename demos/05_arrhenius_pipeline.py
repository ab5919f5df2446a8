"""Dataset preprocessing: temperature series to 298 K targets.

Conductivity records arrive as (temperature, log10 sigma) points. A
linear fit of log10 sigma against 1/T supplies the room-temperature
value whenever no measured 298 K point exists; measured points within
0.5 K of 298 K take precedence over the fit.
"""

import os
import tempfile

from molsets import arrhenius_fit, conductivity_at_298K, load_dataset, write_dataset
from molsets.data import ConductivityPoint, generate_synthetic, prepared_records, synthetic_ground_truth

print("=== A two-point fit has a closed form ===")
points = [ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)]
fit = arrhenius_fit(points)
print(f"slope k = {fit.slope_k:.6f} K, intercept b = {fit.intercept_b:.6f}, r^2 = {fit.r_squared}")
print(f"inferred 298 K value: {fit.slope_k / 298.0 + fit.intercept_b:.6f}")

print()
print("=== Through the CSV pipeline ===")
records = generate_synthetic(5, seed=0)
for record in records[:2]:
    temps = [p.temperature_K for p in record.points]
    truth = synthetic_ground_truth(
        record.solvent_smiles, record.weight_fractions, record.salt_smiles, record.molality
    )
    print(
        f"{record.mixture_id}: measured at {temps}, target {record.target_298K:+.4f} "
        f"(documented formula {truth:+.4f})"
    )

with tempfile.TemporaryDirectory() as tmp:
    raw = os.path.join(tmp, "raw.csv")
    prepared = os.path.join(tmp, "prepared.csv")
    write_dataset(records, raw)
    loaded = load_dataset(raw)
    print(f"round trip: {len(loaded)} records from CSV")
    for record in loaded[:2]:
        print(f"  {record.mixture_id}: 298 K target from fit = {conductivity_at_298K(record):+.6f}")
    write_dataset(prepared_records(loaded), prepared)
    with open(prepared) as fh:
        print("prepared file (one 298 K row per mixture):")
        for line in list(fh)[:3]:
            print("  " + line.rstrip())
