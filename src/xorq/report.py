"""Per-game record of every computed quantity, with run metadata.

The report's schema, stated once: QUANTITY_FIELDS maps each `xorq bias
--quantities` name to the BiasReport field it fills (me and ent also fill
me_d and entangled_dims). CHAINS lists each checked inequality, lhs field <=
factor * rhs field, with its label and whether it is hard. A hard chain sets
a lower bound against an upper bound and must hold; a soft one sets a
relaxation against a constant times a heuristic lower bound and is only
reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

QUANTITY_FIELDS = {
    "omega": "omega_lower",
    "omega-c": "omega_c_lower",
    "me": "me_lower",
    "ent": "entangled_lower",
    "beta-sdp": "beta_sdp",
    "beta-nc": "beta_nc",
    "beta-os": "beta_os",
    "chains": "chains",  # evaluated for every report, asked for or not
}

CHAINS = (
    ("omega_lower", 1.0, "beta_nc", "omega_lower<=beta_nc", True),
    ("omega_lower", 1.0, "omega_c_lower", "omega_lower<=omega_c_lower", True),
    ("me_lower", 1.0, "beta_nc", "me_lower<=beta_nc", True),
    ("entangled_lower", 1.0, "beta_os", "entangled_lower<=beta_os", True),
    ("beta_nc", 1.0, "beta_os", "beta_nc<=beta_os", True),
    ("beta_nc", 1.0, "trace_norm", "beta_nc<=trace_norm", True),
    ("beta_os", 1.0, "trace_norm", "beta_os<=trace_norm", True),
    ("omega_lower", 1.0, "beta_sdp", "omega_lower<=beta_sdp", True),
    ("omega_c_lower", 1.0, "beta_sdp", "omega_c_lower<=beta_sdp", True),
    ("beta_nc", 2.0 * math.sqrt(2.0), "omega_lower", "beta_nc<=2sqrt2*omega_lower", False),
    ("beta_nc", 2.0, "omega_c_lower", "beta_nc<=2*omega_c_lower", False),
    ("beta_os", 2.0, "entangled_lower", "beta_os<=2*entangled_lower", False),
)


@dataclass
class BiasReport:
    """Collects lower bounds, relaxation values, and norms for one game.

    Unpopulated quantities stay None; chain checks apply to every populated
    pair. It holds no timings, so identical input gives identical bytes.
    """

    game: str
    n: int
    seed: int
    restarts: int
    tol: float
    trace_norm: float | None = None
    omega_lower: float | None = None
    omega_c_lower: float | None = None
    me_lower: float | None = None
    me_d: int | None = None
    entangled_lower: float | None = None
    entangled_dims: tuple[int, int] | None = None
    beta_sdp: float | None = None
    beta_nc: float | None = None
    beta_os: float | None = None
    chains: list = field(default_factory=list)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["cfg"] = {key: data.pop(key) for key in ("seed", "restarts", "tol")}
        return data
