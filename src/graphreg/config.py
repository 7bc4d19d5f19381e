"""Global numerical configuration.

``Config`` holds the settings a user may override with ``--config``: the
five rank, residual and value tolerances.  Every report echoes them.
The point classes of a symbol are decided exactly and take no setting
(``limits``); the sample sizes and the degree cap are constants.

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
  ``R_ROOT_MARGIN``, Wilson's stop test ``NEWTON_STOP`` and step cap
  ``NEWTON_MAX_STEPS``, the degree cap ``MAX_POLY_DEGREE`` and the
  ``CIRCLE_SAMPLES`` its residuals are read on (its verdicts are exact
  and take no threshold, and it takes no ``cfg``);
* ``transforms``: ``PSD_CLAMP``, ``COMMUTATION_FLOOR`` and
  ``JOINT_DIAGONAL_GATE``;
* ``symbols``: ``TILING_SLACK`` and ``PUNCTURE_MATCH``, and the sample
  grid's reach ``GRID_REACH``, bulk size ``GRID_POINTS`` and refinement
  depth ``DYADIC_DEPTH``;
* ``limits``: the rounding allowances ``EPS``, ``UP`` and ``TINY`` of its
  balls, the expansion windows ``WINDOWS``, the series caps
  ``MAX_TERMS``, ``MAX_KEYS`` and ``MAX_POWERS``, the series tail
  ``TAIL``, the limit blur ``BLUR`` and the quoting limit ``NODE_ECHO``
  (its verdicts are exact);
* ``experiments``: ``WINDOW_SLACK``; ``expressions``: the formatting
  limit ``INT_FORMAT_LIMIT`` (``poly_coefficients`` bounds the integers
  of each exact coefficient by the bits of degree cap + 1 doubles,
  ``FLOAT_BITS`` each).

A verdict should not change when t is scaled, so the constants that
compare an absolute quantity are marked here:
``TILING_SLACK`` and ``PUNCTURE_MATCH`` (lengths in x),
``WINDOW_SLACK``, ``COMMUTATION_FLOOR``, ``NORM_SLACK`` and
``PSD_SLACK``.  ``IDENTITY_GATE``,
``RECONSTRUCTION_GATE``, ``PSD_CLAMP`` and ``JOINT_DIAGONAL_GATE`` are
relative to max(1, norm), and so absolute below norm 1, as is the cut of
``transforms.numerical_rank``.  The others are relative or scale-free.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

# The largest array any size parameter may allocate: 256 MiB, one complex
# 4096 x 4096 matrix (the resolvent check at its cap).  The size caps of
# the command line are derived from it.
ARRAY_BUDGET = 2 ** 28
COMPLEX_BYTES = 16

# The positive doubles span max_exp - min_exp + mant_dig = 2098 binary
# orders of magnitude, 2^-1074 to 2^1024.
FLOAT_BITS = sys.float_info.max_exp - sys.float_info.min_exp + sys.float_info.mant_dig


@dataclass(frozen=True)
class Config:
    # linear-algebra thresholds
    subspace_tol: float = 1e-10      # rank / subspace-equality cutoff
    kernel_tol: float = 1e-12        # smallest admitted singular value of a, a_*
    residual_tol: float = 1e-10      # operator identity residuals (finite dim)

    # pointwise zero tests on symbols, and the agreement of two values
    # (a declared limit with the detected one, relative to max(1, |limit|))
    zero_tol: float = 1e-8
    value_agreement_tol: float = 1e-9

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Config":
        """Overrides from a JSON object: each value must be a positive
        finite real (not a boolean)."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(Config)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
            values[key] = float(value)
        return Config(**values)

    @staticmethod
    def load(path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_dict(json.load(fh))


DEFAULT = Config()
