"""Generate ground-truth runs for the four benchmark scenarios.

Every run couples a simulated trajectory with per-step sensor statuses:
NORMAL (genuine reading), FAILED (uniform garbage over the sensor's
value space) or LOST (no reading). Scenario scripts control when each
sensor misbehaves; the filters never see the script.

Run:  python demos/02_simulate_scenarios.py   (writes scenario2_run.ndjson to the working directory)
"""

import numpy as np

from modalfuse import (
    DEFAULT_X0,
    ObservationStatus,
    builtin_scenario,
    default_config,
    generate_run,
)

cfg = default_config()
rng = np.random.default_rng(7)

for k in (1, 2, 3, 4):
    spec = builtin_scenario(k)
    run = generate_run(spec, DEFAULT_X0, cfg.truth_transition, cfg.model.modalities, rng)
    counts = {
        s.name: int(np.sum(run.failure_log == s))
        for s in (ObservationStatus.NORMAL, ObservationStatus.FAILED, ObservationStatus.LOST)
    }
    print(f"scenario {k}: {counts}")
    for w in spec.failure_windows:
        print(f"   modality {w.modality} fails on [{w.t_start}, {w.t_end}] with p={w.probability}")
    for w in spec.loss_windows:
        print(f"   modality {w.modality} lost on [{w.t_start}, {w.t_end}]")

# a closer look at scenario 2 around its first failure window
run = generate_run(builtin_scenario(2), DEFAULT_X0, cfg.truth_transition, cfg.model.modalities, rng)
print("\nscenario 2, steps 188-193 (modality 0 fails with p=1.0 from t=190):")
for t in range(188, 194):
    frame = run.frames[t - 1]
    statuses = [ObservationStatus(s).name for s in run.failure_log[t - 1]]
    obs = [f"{o.value:8.3f}" if o.present else "    lost" for o in frame.observations]
    print(f"  t={t}: bearing {obs[0]} ({statuses[0]:6s})  range {obs[1]} ({statuses[1]})")

# runs serialise to newline-delimited JSON for archival and replay
run.save("scenario2_run.ndjson")
print("\nsaved a replayable copy to scenario2_run.ndjson in the working directory")
