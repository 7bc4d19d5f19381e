"""Global numerical configuration.

``Config`` holds the settings a user may override with ``--config``: the
rank and residual tolerances, the detector's windows and thresholds, and
the grid and sample sizes.  Every report echoes them.

Every threshold has one home.  One that a caller may need to set is a
field here, and each function that uses it takes ``cfg`` and reads the
field (a helper may take the value read as a required ``tol``); no
function carries a tolerance default of its own.
Every other threshold is an UPPER_CASE constant beside the code that
decides with it, and is not an option:

* ``cli``: the ``transform`` verdict gates ``IDENTITY_GATE``,
  ``RECONSTRUCTION_GATE``, ``NORM_SLACK`` and ``PSD_SLACK``, and the
  quoting limit ``ECHO_CHARS``;
* ``toeplitz``: the factorization gates ``UNIT_RESIDUAL_GATE`` and
  ``R_ROOT_MARGIN``, and Wilson's stop test ``NEWTON_STOP`` and step
  cap ``NEWTON_MAX_STEPS`` (its verdicts are exact and take no
  threshold);
* ``transforms``: ``PSD_CLAMP``, ``COMMUTATION_FLOOR`` and
  ``JOINT_DIAGONAL_GATE``;
* ``symbols``: ``TILING_SLACK``, ``MONOTONE_SLACK``, ``VARIANCE_FLOOR``
  and ``PUNCTURE_MATCH``;
* ``experiments``: ``WINDOW_SLACK``; ``expressions``: the formatting
  limit ``INT_FORMAT_LIMIT`` (``poly_coefficients`` bounds the integers
  of each exact coefficient by the bits of ``max_poly_degree`` + 1
  doubles, ``FLOAT_BITS`` each).

A verdict should not change when t is scaled, so the constants that
compare an absolute quantity are marked here:
``TILING_SLACK`` and ``PUNCTURE_MATCH`` (lengths in x),
``VARIANCE_FLOOR``, ``WINDOW_SLACK``, ``COMMUTATION_FLOOR``,
``NORM_SLACK`` and ``PSD_SLACK``.  ``IDENTITY_GATE``,
``RECONSTRUCTION_GATE``, ``PSD_CLAMP`` and ``JOINT_DIAGONAL_GATE`` are
relative to max(1, norm), and so absolute below norm 1, as is the cut of
``transforms.numerical_rank``.  The others are relative or scale-free.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

# The largest array any size setting may allocate: 256 MiB, one complex
# 4096 x 4096 matrix (the resolvent check at its cap).  Every size cap is
# derived from it.
ARRAY_BUDGET = 2 ** 28
COMPLEX_BYTES = 16

# Each of these sets the length of a sample vector that is evaluated in
# complex128: the bulk grid, the points on the circle and the dyadic
# refinement near a puncture.
SIZE_CAPS = {name: ARRAY_BUDGET // COMPLEX_BYTES for name in (
    "grid_points", "circle_samples", "dyadic_depth")}
# The positive doubles span max_exp - min_exp + mant_dig = 2098 binary
# orders of magnitude, 2^-1074 to 2^1024.
FLOAT_BITS = sys.float_info.max_exp - sys.float_info.min_exp + sys.float_info.mant_dig
# Each sample of an approach halves the offset from a puncture (or doubles
# the point on the way to infinity), so a longer approach only repeats the
# puncture or overflows.
SIZE_CAPS["approach_steps"] = FLOAT_BITS

# The detector's Cauchy test compares successive samples of an approach,
# so an approach and its classification window need two of them.
SIZE_FLOORS = {"approach_steps": 2, "tail_samples": 2}


@dataclass(frozen=True)
class Config:
    # linear-algebra thresholds
    subspace_tol: float = 1e-10      # rank / subspace-equality cutoff
    kernel_tol: float = 1e-12        # smallest admitted singular value of a, a_*
    residual_tol: float = 1e-10      # operator identity residuals (finite dim)

    # singularity detector
    limit_tol: float = 1e-6          # Cauchy / declared-limit agreement
    blowup: float = 1e6              # |m| threshold for divergence to infinity
    osc_rel_var: float = 1e-3        # relative variance marking bounded oscillation
    approach_steps: int = 40         # geometric samples per side, ratio 1/2
    approach_start: float = 0.5      # first offset from the puncture
    tail_samples: int = 10           # classification window at the end of a run

    # behaviour at infinity
    inf_start: float = 1.0           # first |x| when sampling towards infinity
    inf_reach: float = 1e8           # cap so trig arguments stay meaningful
    vanish_window: float = 1e4       # R: C0 test looks at |x| > R
    vanish_tol: float = 1e-4         # |f| bound outside the window

    # pointwise zero tests on symbols
    zero_tol: float = 1e-8
    value_agreement_tol: float = 1e-9

    # grids
    grid_points: int = 10_000        # bulk sample count for identity checks
    dyadic_depth: int = 40           # refinement levels near punctures

    # polynomial / Toeplitz lab
    circle_samples: int = 2048
    max_poly_degree: int = 24

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Config":
        """Overrides from a JSON object, each checked against its field:
        integer fields take integers (not booleans), float fields take
        finite reals, every value must be positive, the sizes in
        ``SIZE_CAPS`` must not exceed their caps and those in
        ``SIZE_FLOORS`` must reach their floors."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        defaults = {f.name: f.default for f in dataclasses.fields(Config)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in data.items():
            kind = type(defaults[key])
            accepted = (int,) if kind is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, accepted):
                noun = "an integer" if kind is int else "a real number"
                raise ValueError(f"{key} must be {noun}, got {value!r}")
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
            if key in SIZE_CAPS and value > SIZE_CAPS[key]:
                raise ValueError(f"{key} must be at most {SIZE_CAPS[key]}, "
                                 f"got {value!r}")
            if value < SIZE_FLOORS.get(key, 0):
                raise ValueError(f"{key} must be at least {SIZE_FLOORS[key]}, "
                                 f"got {value!r}")
            values[key] = kind(value)
        return Config(**values)

    @staticmethod
    def load(path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_dict(json.load(fh))


DEFAULT = Config()
