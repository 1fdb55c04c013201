"""Seeded workload definitions for the fusedfir benchmark.

A workload is a scenario config for ``fusedfir synth`` plus the
arguments of one ``fusedfir run``.  The program only ever sees the
generated CSVs and manifest.

The estimation and validation replicates of every workload come from the
fixed data seed 318, the acceptance scenario's seed.  The benchmark's
``--seed`` draws a third, held-out ``evaluation`` replicate per condition.
So the seed changes what ``run`` ingests, evaluates and reports, but not
the optimisation it solves: ADMM iteration counts vary by about +-15 %
between noise draws, which would swamp the timing bounds, while with the
solver inputs fixed they repeat exactly from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Group truths of the acceptance scenario (tests/test_acceptance.py):
# 3 channels x 5 taps, channel 3 irrelevant.
ACCEPT_G0 = [1.0, 0.6, 0.3, -0.2, 0.1, -0.5, 0.8, -0.3, 0.4, -0.1, 0, 0, 0, 0, 0]
ACCEPT_G1 = [-0.8, 0.4, -0.6, 0.3, -0.2, 0.9, -0.5, 0.7, -0.4, 0.2, 0, 0, 0, 0, 0]
# Two more well-separated 3 x 5 truths for the four-group fleet.
FLEET_G2 = [0.5, -0.9, 0.2, 0.6, -0.3, 0.3, 0.2, 0.9, -0.6, 0.4, 0, 0, 0, 0, 0]
FLEET_G3 = [-0.4, -0.3, 0.8, -0.7, 0.5, -0.9, -0.6, -0.2, 0.5, 0.3, 0, 0, 0, 0, 0]

ACCEPTANCE_RUN_SEED = 20250810
FIXED_DATA_SEED = 318
NOISE_SIGMA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    taps: int
    channels: int
    group_truths: tuple[tuple[float, ...], ...]
    assignment: tuple[tuple[str, int], ...]
    rows: int  # fully populated regression windows per dataset
    run_args: tuple[str, ...]
    # Criterion-8 FIT separation: own >= 70 %, cross <= own - 20.
    check_fit_separation: bool = False

    def scenario(self, seed: int) -> dict:
        """Config dict for ``fusedfir synth``; ``seed`` is the data seed."""
        return {
            "taps": self.taps,
            "channels": self.channels,
            "group_truths": [list(g) for g in self.group_truths],
            "assignment": dict(self.assignment),
            "noise_sigma": NOISE_SIGMA,
            "irrelevant_channels": [self.channels],
            "samples_per_condition": self.rows + self.taps - 1,
            "seed": seed,
        }

    def cli_args(self, manifest: str, out: str) -> list[str]:
        return [
            "run", "--manifest", manifest, "--taps", str(self.taps),
            "--out", out, *self.run_args,
        ]


_ACCEPT_NAMES = ("BR30", "BR40", "BR50", "WBA20", "WBA30", "WBA40")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="accept-k6",
            taps=5,
            channels=3,
            group_truths=(tuple(ACCEPT_G0), tuple(ACCEPT_G1)),
            assignment=tuple((c, 0 if c.startswith("BR") else 1) for c in _ACCEPT_NAMES),
            rows=400,
            run_args=("--k", "2", "--seed", str(ACCEPTANCE_RUN_SEED)),
            check_fit_separation=True,
        ),
        Workload(
            name="fleet-k48",
            taps=5,
            channels=3,
            group_truths=tuple(
                tuple(g) for g in (ACCEPT_G0, ACCEPT_G1, FLEET_G2, FLEET_G3)
            ),
            assignment=tuple((f"C{k:02d}", k % 4) for k in range(48)),
            rows=400,
            # One lambda2 value keeps a sample near 9 s on 2 cores; with the
            # full 3 x 3 grid one run takes over 40 s.
            run_args=(
                "--auto-k", "--k", "4",
                "--lambda1-factors", "1e-3,1e-2,1e-1",
                "--lambda2-values", "0",
            ),
        ),
    )
}
