"""``model``: the calibrated discrete-event model behind the paper.

Each cycle runs the §5.2 throughput experiment on AWS and on Iota, then
the multi-MDS sweep (Iota on two and four MDS), each as its own timed
round.  Simulated durations are chosen so every round simulates roughly
the same number of events.  Only ``sim`` and ``perf`` do work here; no
other workload touches them.  A round's "events" are simulated events.
"""

from __future__ import annotations

from repro.perf import AWS, IOTA, PipelineConfig
from repro.perf import pipeline

import oracles

#: (testbed, MDS count, simulated seconds): one cycle of rounds.
ROUNDS = ((AWS, 1, 0.7), (IOTA, 1, 0.1), (IOTA, 2, 0.1), (IOTA, 4, 0.1))


class ModelWorkload:
    name = "model"
    cycle = len(ROUNDS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._round = 0

    def setup(self) -> None:
        """Warm the model's code paths: every configuration, briefly."""
        self._round = 0
        self._errors: list = []
        for profile, num_mds, duration in ROUNDS:
            pipeline.run_pipeline(
                PipelineConfig(
                    profile=profile,
                    duration=duration / 3,
                    num_mds=num_mds,
                    seed=self.seed,
                )
            )

    def teardown(self) -> None:
        pass

    def prepare_round(self) -> int:
        return 0

    def run_round(self) -> int:
        profile, num_mds, duration = ROUNDS[self._round % len(ROUNDS)]
        result = pipeline.run_pipeline(
            PipelineConfig(
                profile=profile,
                duration=duration,
                num_mds=num_mds,
                seed=self.seed * 1000 + self._round,
            )
        )
        self._round += 1
        self._errors = oracles.check_model(
            profile.name, num_mds, result.delivered_rate,
            result.shortfall_percent,
        )
        return result.generated

    def check_round(self, log) -> list:
        log.count("model_rounds", 1)
        return self._errors

    def finish(self) -> list:
        return []

    def layer_counters(self) -> dict:
        return {}

    def report(self, log) -> dict:
        return {}
