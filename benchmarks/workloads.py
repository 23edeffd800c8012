"""The benchmark's pinned workloads.

Each workload is a study configuration pinned as text (``configs/``), naming
every key except ``seed``, ``presolve`` and ``output_dir``, so a change of a
default cannot silently change a workload and a removed key fails loudly.
The seed draws the online query parameters; the reference checks are a
fixed set spread over the parameter range, because the largest error over
a few random draws varies between seeds by more than any usable bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def _heat_query(rng):
    return float(rng.uniform(0.5, 9.5))


def _rd_query(rng):
    return (float(rng.uniform(2.0, 4.0)), float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(0.001, 0.005)))


HEAT_CHECKS = (4.0, 0.75, 1.25, 2.75, 4.75, 6.25, 7.75, 9.25)


@dataclass(frozen=True)
class Workload:
    """A pinned study plus how the client exercises it.

    ``loo_overrides`` are config lines appended for the leave-one-out pass;
    empty means the pass runs on the full training set."""

    name: str
    config_file: str
    draw: object
    checks: tuple
    loo_overrides: str = ""
    extra_config: str = ""

    def config_text(self):
        return (CONFIG_DIR / self.config_file).read_text(encoding="utf-8") \
            + self.extra_config

    def loo_config_text(self):
        return self.config_text() + self.loo_overrides

    def config_hash(self):
        text = self.config_text() + "\n--- leave-one-out ---\n" \
            + self.loo_overrides
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {
    # The leave-one-out pass of heat and rd runs on four training values, so
    # every workload measures every operation within the time budget; the
    # full pass is the heat-loo workload.
    "heat": Workload(
        "heat", "heat.cfg", _heat_query, HEAT_CHECKS,
        loo_overrides="train_mu = 0.5,3.5,6.5,9.5\n"),
    "rd": Workload(
        "rd", "rd.cfg", _rd_query,
        ((3.0, 2.5, 0.003), (2.25, 1.5, 0.002), (2.25, 3.5, 0.004),
         (3.75, 1.5, 0.004), (3.75, 3.5, 0.002), (2.1, 3.25, 0.0015),
         (3.5, 2.0, 0.0045), (2.75, 3.75, 0.0025)),
        loo_overrides="train_a = 2.0,4.0\ntrain_b = 1.0,4.0\n"
                      "train_alpha = 0.003\n"),
    "heat-loo": Workload("heat-loo", "heat-loo.cfg", _heat_query, HEAT_CHECKS),
}
